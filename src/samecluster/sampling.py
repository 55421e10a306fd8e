"""D2-sampling with incrementally maintained weights, and rejection sampling.

The sampler keeps one weight per point: its squared distance to the nearest
center added so far. Draws are weighted by prefix-sum inversion, sped up by
a guide table (an indexed inverse-CDF search) that answers most draws
without a binary search and every draw exactly as the search would; with no
centers yet, draws are uniform (the standard first-draw convention).
"""

from __future__ import annotations

import numpy as np

from . import oracle as _oracle
from .geometry import GeometryError


class FullyCovered(RuntimeError):
    """Every point coincides with a center: D2-sampling has no support."""


class QuotaUnreachable(RuntimeError):
    """Rejection sampling hit its draw cap before filling every quota."""

    def __init__(self, msg, accepted=None, unmet=(), draws=0):
        super().__init__(msg)
        self.accepted = accepted or {}
        self.unmet = tuple(unmet)
        self.draws = draws


class SamplerState:
    """Per-point weights Phi({x}, C) for the current center set C.

    Weights start at 1.0 with an empty C purely as a placeholder; they only
    become meaningful (and draws weight-proportional) once add_center runs.
    """

    def __init__(self, points: np.ndarray):
        self.points = np.asarray(points, dtype=np.float64)
        n = len(self.points)
        if n == 0:
            raise GeometryError("sampler needs a non-empty point set")
        if not np.isfinite(self.points).all():
            raise GeometryError("sampler points contain non-finite coordinates")
        self.weights = np.ones(n, dtype=np.float64)
        self.total = float(n)
        self.centers_version = 0
        self._cumsum: np.ndarray | None = None
        self._guide: tuple[np.ndarray, np.ndarray] | None = None   # (cumsum, table)
        self._sq_norms: np.ndarray | None = None    # ||x||^2, from the second center

    @property
    def n_points(self) -> int:
        return len(self.points)

    @property
    def has_centers(self) -> bool:
        return self.centers_version > 0

    def cumsum(self) -> np.ndarray:
        if self._cumsum is None:
            self._cumsum = np.cumsum(self.weights)
        return self._cumsum


def add_center(state: SamplerState, center) -> SamplerState:
    """Lower each weight to min(weight, ||x - c||^2).

    The first center sets every weight to diff/einsum d^2. From the second
    on, the exact d^2 is computed only for the points whose weight can
    drop. Every point is bounded first by

        approx = ||x||^2 - 2 x.c + ||c||^2,

    which costs one pass over the points and no temporary (n, d) array,
    and a point is a candidate unless approx >= w + 1e-8 (||x||^2 + ||c||^2).
    Candidates get the full-pass formula (diff, einsum, np.minimum), so
    every weight and the total are bit-identical to a full pass.

    Why a skipped point keeps its weight: with S = ||x||^2 + ||c||^2 and
    unit roundoff u = 2^-53, approx is within about 2(d + 3) u S of the
    true d^2, and the diff/einsum d^2 within about (d + 2) u d^2 <=
    2(d + 2) u S of it. A skipped point has w <= approx <= ~2S, so adding
    the margin rounds off at most about 3 u S. All of these sit far inside
    the 1e-8 S margin for any d below about 10^7, so a skipped point's
    computed d^2 is at least w, and np.minimum would have kept w. This
    holds while the squares neither overflow nor underflow; a NaN in the
    bound compares False and makes the point a candidate.

    x.c is an einsum, not a BLAS product: threaded BLAS would
    oversubscribe the cores when several worker processes sample at once.
    """
    c = np.asarray(center, dtype=np.float64).ravel()
    if c.shape[0] != state.points.shape[1]:
        raise GeometryError(
            f"center dimension {c.shape[0]} != point dimension {state.points.shape[1]}"
        )
    if not np.isfinite(c).all():
        raise GeometryError("center contains non-finite coordinates")
    points = state.points
    if state.has_centers:
        if state._sq_norms is None:
            state._sq_norms = np.einsum("nd,nd->n", points, points)
        sq = state._sq_norms
        cc = float(np.einsum("d,d->", c, c))
        approx = sq - 2.0 * np.einsum("nd,d->n", points, c) + cc
        idx = np.flatnonzero(~(approx >= state.weights + 1e-8 * (sq + cc)))
        diff = points[idx] - c
        d2 = np.einsum("nd,nd->n", diff, diff)
        state.weights[idx] = np.minimum(state.weights[idx], d2)
    else:
        diff = points - c
        state.weights = np.einsum("nd,nd->n", diff, diff)
    state.total = float(state.weights.sum())
    state.centers_version += 1
    state._cumsum = None
    return state


def d2_sample_batch(state: SamplerState, rng: np.random.Generator, size: int) -> np.ndarray:
    """Draw `size` point indices with probability weight/total (uniform if no centers).

    Each draw is min(searchsorted(cs, u * top, "right"), n - 1) for one
    uniform u = rng.random(), cs the prefix sums of the weights and
    top = cs[-1]. A guide table (Chen & Asau 1974; Devroye 1986, III.2.4)
    gives that index without a binary search for most draws. With
    m = 2^ceil(log2(8n)) cells, e_k = fl((k/m) top) and
    t[k] = min(searchsorted(cs, e_k, "right"), n - 1) for k = 0..m, a draw
    falls in cell k = floor(u m); where t[k] == t[k + 1] that value is its
    index, and only the other draws are searched (at most n of the m
    cells hold a prefix sum, so at most about one draw in eight).

    Why this is exact: m is a power of two, so u m and k/m are exact and
    k/m <= u < (k + 1)/m. Rounding a product with a positive top is
    monotone, so e_k <= fl(u top) <= e_{k+1}; searchsorted and the clamp
    to n - 1 are monotone in the key, so the draw's index lies in
    [t[k], t[k + 1]]. The draws, and the RNG state after them, are those
    of the plain search.

    The table is kept with the prefix-sum array it was built from and
    serves only that array, which add_center drops. It is built on the
    first call of at least n draws against the array, since building it
    costs about as much as n plain draws, and serves later calls of any
    size.
    """
    if not state.has_centers:
        return rng.integers(0, state.n_points, size=size)
    if state.total <= 0.0:
        raise FullyCovered("all points coincide with the current centers")
    cs = state.cumsum()
    n = state.n_points
    top = cs[-1]
    guide = state._guide
    if guide is not None and guide[0] is cs:
        tab = guide[1]
    elif size >= n and np.isfinite(top):
        tab = _guide_table(cs, top)
        state._guide = (cs, tab)
    else:
        return np.minimum(np.searchsorted(cs, rng.random(size) * top, side="right"), n - 1)
    u = rng.random(size)
    idx = tab[(u * len(tab)).astype(np.intp)]
    miss = np.flatnonzero(idx < 0)
    idx[miss] = np.minimum(np.searchsorted(cs, u[miss] * top, side="right"), n - 1)
    return idx


def _guide_table(cs: np.ndarray, top) -> np.ndarray:
    """Cell k < m holds t[k] where t[k] == t[k + 1], else -1 (t as in
    d2_sample_batch).

    t is built in O(n log m): prefix sum i lies at or below edge k exactly
    when k >= searchsorted(edges, cs[i], "left"), so t[k] counts the sums
    whose first such edge is at most k.
    """
    n = len(cs)
    m = 1 << (8 * n - 1).bit_length()       # the least power of two >= 8n
    edges = np.arange(m + 1, dtype=np.float64) * (1.0 / m) * top
    first = np.searchsorted(edges, cs, side="left")
    t = np.minimum(np.cumsum(np.bincount(first, minlength=m + 1)[:m + 1]), n - 1)
    return np.where(t[:-1] == t[1:], t[:-1], -1)


def reference_point(sample_indices, state: SamplerState) -> int:
    """Minimum-weight sampled point; ties break toward the lowest point index."""
    idxs = np.unique(np.asarray(list(sample_indices), dtype=np.int64))
    if len(idxs) == 0:
        raise ValueError("reference_point needs at least one sample")
    return int(idxs[np.argmin(state.weights[idxs])])


def rej_samp(state: SamplerState, session: _oracle.OracleSession, W, refs: dict,
             T, eps: float, *, rng: np.random.Generator,
             reps: _oracle.Representatives | None = None,
             checker=None, accept_scale: float | None = None,
             draw_cap: int = 10**8, preaccepted: dict | None = None):
    """Rejection sampling: thin D2-draws so accepted points are uniform per cluster.

    Draws, classifies, and for clusters j in W accepts a draw x with
    probability min(1, scale * w(x_j*)/w(x)), looping until every j in W
    holds at least its quota (T: one int for all, or a map j -> int).
    Classification is exact-oracle Classify against `reps` by default; a
    `checker(point_index) -> cluster index or 0` callable replaces it for
    the noisy pipeline. Returns ({j: [point indices]}, draws, queries).

    The implementation processes draws in batches but charges the ledger,
    registers discoveries, and stops exactly where a draw-at-a-time loop
    would; unused tail draws of the final batch are discarded. No batch
    size depends on draw_cap: the cap only cuts a batch, so a cap that a
    pass does not reach leaves the pass as it is. When the cap cuts the
    pass short of a quota, QuotaUnreachable carries what was accepted.
    """
    W = sorted(W)
    scale = (eps / 128.0) if accept_scale is None else accept_scale
    quota = {j: (T[j] if isinstance(T, dict) else int(T)) for j in W}
    accepted: dict[int, list[int]] = {j: list(preaccepted.get(j, [])) if preaccepted else []
                                      for j in W}
    for j in W:
        if j not in refs:
            raise ValueError(f"no reference point for cluster {j}")
    ref_w = {j: float(state.weights[refs[j]]) for j in W}

    def need():
        return {j: quota[j] - len(accepted[j]) for j in W}

    queries0 = session.ledger
    if checker is not None:
        draws = _rej_samp_scalar(state, W, ref_w, scale, quota, accepted,
                                 rng=rng, checker=checker, draw_cap=draw_cap)
        return accepted, draws, session.ledger - queries0

    draws = 0
    acc_rate_guess = 0.05
    counts_capable = session.budget is None and state.has_centers
    counts_B = 2 ** 22
    w_arr = np.zeros(max(W) + 1)
    in_w_arr = np.zeros(max(W) + 2, dtype=bool)
    for j in W:
        w_arr[j] = ref_w[j]
        in_w_arr[j] = True
    while any(v > 0 for v in need().values()):
        if draws >= draw_cap:
            unmet = [j for j, v in need().items() if v > 0]
            raise QuotaUnreachable(
                f"draw cap {draw_cap} reached with quotas unmet for {unmet}",
                accepted=accepted, unmet=unmet, draws=draws)
        nd = need()
        max_need = max(nd.values())

        if counts_capable and counts_B >= 8192:
            # Far from the quotas, draw order is irrelevant: take the chunk
            # as multinomial counts and binomial acceptances. A chunk that
            # would finish every quota is discarded and retried smaller, so
            # only a short draw-ordered tail remains to place the stop. A
            # chunk that would pass the cap is discarded too, and the pass
            # goes on draw-ordered, where the cap cuts a batch.
            done, reason = _rej_counts_chunk(state, session, rng, reps, W,
                                             w_arr, in_w_arr, scale, nd,
                                             accepted, counts_B, draw_cap - draws)
            if done is not None:
                draws += done
                gained = sum(q - n for q, n in zip(nd.values(), need().values()))
                acc_rate_guess = max(gained / max(done, 1), 1e-6)
                continue
            if reason == "finishing":
                counts_B //= 4
                continue
            if reason == "cap":
                counts_capable = False

        B = int(min(max(4096, max_need / max(acc_rate_guess, 1e-6) * 1.5), 2**16))
        idx = d2_sample_batch(state, rng, B)
        cl, costs, new_firsts = _oracle.peek_classify(session, idx, reps)

        w_idx = np.flatnonzero(in_w_arr[np.minimum(cl, len(in_w_arr) - 1)])
        coins = rng.random(len(w_idx))
        wx = state.weights[idx[w_idx]]
        refw = w_arr[cl[w_idx]]
        p = np.minimum(1.0, scale * refw / np.maximum(wx, 1e-300))
        p[wx <= 0.0] = 1.0
        hit = w_idx[coins < p]

        # Earliest draw position by which every quota is filled; a sequential
        # loop would stop right after it, or at the cap before it.
        cut = B
        hit_cl = cl[hit]
        if all(int(np.count_nonzero(hit_cl == j)) >= nd[j] for j in W):
            fill_pos = [int(hit[hit_cl == j][nd[j] - 1]) for j in W if nd[j] > 0]
            cut = (max(fill_pos) + 1) if fill_pos else 0
        cut = min(cut, draw_cap - draws)
        _oracle.commit_classify(session, reps, costs, new_firsts, cut)
        draws += cut
        for pos, j in zip(hit, hit_cl):
            if pos >= cut:
                break
            accepted[int(j)].append(int(idx[pos]))
        acc_rate_guess = max(len(hit) / max(B, 1), 1e-4)
    return accepted, draws, session.ledger - queries0


def _rej_counts_chunk(state, session, rng, reps, W, ref_w_arr, in_w_arr,
                      scale, nd, accepted, B, room):
    """Order-free rejection chunk of B draws, with room draws left under the cap.

    Returns (committed draw count, None) on success, or (None, reason) when
    the chunk must instead be taken draw-ordered: "discovery" if an
    undiscovered cluster appeared, "finishing" if the chunk would have
    filled every quota (the exact stopping draw then matters), "cap" if
    neither holds but the chunk would pass the cap. The cap is checked
    last, so it stops only a chunk that an uncapped pass commits.
    """
    if state.total <= 0.0:
        raise FullyCovered("all points coincide with the current centers")
    pvals = state.weights / state.total
    counts = rng.multinomial(B, pvals)
    sampled = np.flatnonzero(counts)
    rank_arr = reps.rank_of_label(session)
    cl = rank_arr[session.truth[sampled]]
    if (cl == 0).any():
        return None, "discovery"
    mult = counts[sampled].astype(np.int64)
    in_w = in_w_arr[np.minimum(cl, len(in_w_arr) - 1)]
    acc_counts = np.zeros(int(in_w.sum()), dtype=np.int64)
    if len(acc_counts):
        wx = state.weights[sampled[in_w]]
        p = np.minimum(1.0, scale * ref_w_arr[cl[in_w]] / np.maximum(wx, 1e-300))
        p[wx <= 0.0] = 1.0
        acc_counts = rng.binomial(mult[in_w], p)
        got = np.bincount(cl[in_w] - 1, weights=acc_counts,
                          minlength=max(W)).astype(np.int64)
        if all(got[j - 1] >= nd[j] for j in W):
            return None, "finishing"
    if B > room:
        return None, "cap"
    session.charge(int((mult * cl).sum()))
    if len(acc_counts):
        pts = sampled[in_w]
        cls = cl[in_w]
        nz = acc_counts > 0
        for x, j, c in zip(pts[nz], cls[nz], acc_counts[nz]):
            accepted[int(j)].extend([int(x)] * int(c))
    return B, None


def _rej_samp_scalar(state, W, ref_w, scale, quota, accepted, *, rng, checker, draw_cap):
    """Draw-at-a-time rejection loop for checker-based (noisy) classification.

    Each draw is the scalar form of d2_sample_batch(state, rng, 1)[0] and
    each W-classified draw is followed by its acceptance coin, so the RNG
    stream is that of single batched draws with interleaved coins. The
    weights do not change during the loop, and unmet quotas are counted
    down as draws are accepted.
    """
    left = {j: quota[j] - len(accepted[j]) for j in W}
    unmet = sum(1 for v in left.values() if v > 0)
    n = state.n_points
    weights = state.weights
    uniform = not state.has_centers
    if not uniform:
        cs = state.cumsum()
        top = float(cs[-1])
    draws = 0
    while unmet:
        if draws >= draw_cap:
            missing = [j for j in W if left[j] > 0]
            raise QuotaUnreachable(
                f"draw cap {draw_cap} reached with quotas unmet for {missing}",
                accepted=accepted, unmet=missing, draws=draws)
        if uniform:
            x = int(rng.integers(0, n))
        elif state.total <= 0.0:
            raise FullyCovered("all points coincide with the current centers")
        else:
            x = min(int(cs.searchsorted(rng.random() * top, side="right")), n - 1)
        draws += 1
        j = checker(x)
        if j not in ref_w:
            continue
        wx = float(weights[x])
        p = 1.0 if wx <= 0.0 else min(1.0, scale * ref_w[j] / wx)
        if rng.random() < p:
            accepted[j].append(x)
            left[j] -= 1
            if left[j] == 0:
                unmet -= 1
    return draws
