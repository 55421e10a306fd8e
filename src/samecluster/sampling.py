"""D2-sampling with incrementally maintained weights, and rejection sampling.

The sampler keeps one weight per point: its squared distance to the nearest
center added so far. Draws are weighted by prefix-sum inversion, through
a guide table (an indexed inverse-CDF search) that answers a draw in a few
lookups, exactly as the binary search would; with no centers yet, draws
are uniform (the standard first-draw convention).

Adding a center lowers the weights it can lower, but not at once: add_center
queues the center, and the queue is applied in order when something reads
the whole weight vector (weights, total, cumsum(), and so d2_sample_batch,
counts_chunk and rej_samp). A float32 screen over a scaled (d, n) copy of
the points, kept from the second center on, rules out most points with a
proven error margin; the rest get the exact float64 update, so the screen
changes no weight (_apply_center). weights_at reads single points through
the queue without applying it (reference_point and the experiment engine
use it), so a center costs its pass over the points only if a full read
comes after it.
"""

from __future__ import annotations

import numpy as np

from . import oracle as _oracle
from .geometry import GeometryError

_F32_U = 2.0 ** -24             # float32 unit roundoff
_SCREEN_MAX_DIM = 2 ** 20 - 2   # keeps (d + 2) u at most 1/16
_SCREEN_MAX_C = 2.0 ** 64       # largest scaled center coordinate the screen takes
_GUIDE_STEPS = 2                # steps a guide-table miss takes before the full search


class FullyCovered(RuntimeError):
    """Every point coincides with a center: D2-sampling has no support."""


class SamplerState:
    """Per-point weights Phi({x}, C) for the current center set C.

    With an empty C every weight is 1.0 and the total n: the uniform law
    that counts_chunk reads before any center (d2_sample_batch and the
    rejection walk draw uniform integers then instead).

    The centers add_center queues are pending until a full read: weights,
    total and cumsum() first apply them in order (_flush), one screened
    update each as the eager update made it, and then sum the total once,
    so every weight and the total equal those of applying each center as
    it came. weights_at(idx) reads points without applying the queue.
    """

    def __init__(self, points: np.ndarray):
        self.points = np.ascontiguousarray(points, dtype=np.float64)   # as _apply_center sums rows
        n = len(self.points)
        if n == 0:
            raise GeometryError("sampler needs a non-empty point set")
        # Finite exactly when the max and the min are (each is NaN if any
        # point is); each is tested apart, as max(nan, x) is not max(x, nan).
        hi, lo = self.points.max(initial=0.0), self.points.min(initial=0.0)
        if not (np.isfinite(hi) and np.isfinite(lo)):
            raise GeometryError("sampler points contain non-finite coordinates")
        self._weights = np.ones(n, dtype=np.float64)
        self._total = float(n)
        self._pending: list[np.ndarray] = []    # centers added, not yet applied
        self.centers_version = 0
        self._cumsum: np.ndarray | None = None
        # (cumsum, guide table): the table of _d2_index for that prefix-sum array.
        self._guide: tuple[np.ndarray, np.ndarray] | None = None
        # _apply_center's screen. _scale is the power of two s that puts the
        # largest |x_i s| in [1/2, 1), or 0.0 where the screen is not used
        # (d above _SCREEN_MAX_DIM, or s outside [2^-500, 2^500]).
        top = max(hi, -lo)
        e = int(np.frexp(top)[1])
        self._scale = (2.0 ** -e if -500 <= e <= 500
                       and self.points.shape[1] <= _SCREEN_MAX_DIM else 0.0)
        # From the second center: the points times s as a C-contiguous
        # float32 (d, n) array (4 n d bytes), and fl((1 - delta)/2 ||x s||^2).
        self._xt: np.ndarray | None = None
        self._half_sq: np.ndarray | None = None

    @property
    def n_points(self) -> int:
        return len(self.points)

    @property
    def has_centers(self) -> bool:
        return self.centers_version > 0

    @property
    def weights(self) -> np.ndarray:
        """Every weight (a full read: applies the pending centers first)."""
        if self._pending:
            self._flush()
        return self._weights

    @weights.setter
    def weights(self, w) -> None:
        """Set the weights of the current center set by hand: the pending
        centers are dropped, the total summed and the prefix sums dropped."""
        self._weights = np.asarray(w, dtype=np.float64)
        self._pending.clear()
        self._total = float(self._weights.sum())
        self._cumsum = None

    @property
    def total(self) -> float:
        """The sum of the weights (a full read)."""
        if self._pending:
            self._flush()
        return self._total

    def cumsum(self) -> np.ndarray:
        """Prefix sums of the weights (a full read)."""
        if self._cumsum is None:
            self._cumsum = np.cumsum(self.weights)
        return self._cumsum

    def weights_at(self, idx) -> np.ndarray:
        """weights[idx] without applying the pending centers to other points.

        The rows of idx are gathered and each pending center lowers them
        with the formula _apply_center uses for a point it does not skip
        (diff, einsum, np.minimum; a pending first center sets the weight),
        which is the weight that center leaves. When the gather would be
        larger than a full pass (len(idx) times the pending centers above
        n), the centers are applied instead.
        """
        idx = np.asarray(idx, dtype=np.intp)
        pending = self._pending
        if len(idx) * len(pending) > self.n_points:
            self._flush()
        if not self._pending:
            return self._weights[idx]
        rows = self.points.take(idx, axis=0)
        w = None if self.centers_version == len(pending) else self._weights[idx]
        for c in pending:
            diff = rows - c
            d2 = np.einsum("nd,nd->n", diff, diff)
            w = d2 if w is None else np.minimum(w, d2)
        return w

    def _flush(self) -> None:
        """Apply the pending centers in order, then sum the total once."""
        first = self.centers_version == len(self._pending)
        for c in self._pending:
            _apply_center(self, c, first)
            first = False
        self._pending.clear()
        self._total = float(self._weights.sum())


def add_center(state: SamplerState, center) -> SamplerState:
    """Add a center: each weight becomes min(weight, ||x - c||^2).

    The center is checked (dimension, finiteness) and copied at once, then
    queued: centers_version counts it and the prefix sums are dropped. A
    full read of the state (weights, total, cumsum(), and so
    d2_sample_batch, counts_chunk and rej_samp) applies the queue first;
    weights_at and reference_point read points through it.
    """
    c = np.array(center, dtype=np.float64).ravel()     # a copy: applied later
    if c.shape[0] != state.points.shape[1]:
        raise GeometryError(
            f"center dimension {c.shape[0]} != point dimension {state.points.shape[1]}"
        )
    if not np.isfinite(c).all():
        raise GeometryError("center contains non-finite coordinates")
    state._pending.append(c)
    state.centers_version += 1
    state._cumsum = None
    return state


def _apply_center(state: SamplerState, c: np.ndarray, first: bool) -> None:
    """Lower each weight to min(weight, ||x - c||^2) in place.

    The first center sets every weight to diff/einsum d^2. From the second
    on, the exact d^2 is computed only for the candidates, the points that
    a float32 screen cannot show to keep their weight. Candidates get the
    full-pass formula (diff, einsum, np.minimum), so every weight is
    bit-identical to a full pass.

    The screen works in units scaled by s = state._scale: X = x s, C = c s,
    |X_i| < 1. One unit-stride float32 einsum over the copy state._xt gives
    D ~ X.C, and a point is skipped when, in float64,

        D <= (1 - delta)/2 ||X||^2 - w s^2/2 + (1 - delta)/2 ||C||^2 - eta/2,
        delta = g/(1 - g) + (d + 20) 2^-50,  g = (d + 2) 2^-24,
        eta = 2^-123 (||C||_1 + 4d),

    the first term being state._half_sq and w the point's current weight.

    Why a skipped point keeps its weight. Let S = ||X||^2 + ||C||^2 and
    u = 2^-24. Each float32 rounding (a coordinate of X or C, a product, a
    sum) errs by at most u relative or, in float32's subnormal range, by
    less than nu = 2^-126 absolute, flush-to-zero included. The inner-
    product bound (Higham, Accuracy and Stability of Numerical Algorithms,
    2002, section 3.1) then gives

        2 |D - X.C| <= g/(1 - g) 2 sum |X_i C_i| + 2.3 nu (||C||_1 + 3d)
                    <= g/(1 - g) S + eta/2,

    using |X_i| < 1 and |C_i| <= 2^64; the rest of eta covers float64
    underflow in the test. Rounding the float64 side of the test moves it
    by at most about (d + 10) 2^-53 S where it can hold (there
    w s^2 <= 2S + eta/2), and the diff/einsum d^2 is at least
    (1 - (d + 3) 2^-53) times the exact d^2, with d^2 s^2 <= 2S. So a
    skipped point has exact
    d^2 s^2 = S - 2 X.C >= w s^2 + ((d + 20) 2^-50 - (3d + 16) 2^-53) S,
    its computed d^2 is at least w, and np.minimum would have kept w. This
    holds while squares of coordinates and distances neither overflow nor
    underflow in float64; a NaN in the test compares False and makes the
    point a candidate.

    Every point is a candidate when a scaled center coordinate exceeds
    2^64 (so that no float32 product or sum can overflow) or the screen is
    off for the point set (state._scale == 0.0).

    The products are einsums, not BLAS calls: threaded BLAS would
    oversubscribe the cores when several worker processes sample at once.
    """
    points = state.points
    if first:
        diff = points - c
        state._weights = np.einsum("nd,nd->n", diff, diff)
    else:
        idx = _candidates(state, c)
        diff = points.take(idx, axis=0)     # points[idx], gathered faster
        diff -= c
        d2 = np.einsum("nd,nd->n", diff, diff)
        state._weights[idx] = np.minimum(state._weights[idx], d2)


def _candidates(state: SamplerState, c: np.ndarray):
    """Indices of the points that _apply_center's screen keeps for the exact update."""
    s = state._scale
    if s == 0.0 or not np.abs(c).max(initial=0.0) <= _SCREEN_MAX_C / s:
        return np.arange(state.n_points)
    cs = c * s
    d = len(c)
    g = (d + 2) * _F32_U
    b = (1.0 - g / (1.0 - g) - (d + 20) * 2.0 ** -50) / 2.0
    if state._xt is None:
        points, n = state.points, state.n_points
        xt = state._xt = np.empty((d, n), dtype=np.float32)
        half_sq = state._half_sq = np.empty(n)
        step = max(1, (1 << 16) // d)       # rows per block of about 2^16 coordinates
        for a in range(0, n, step):
            xs = points[a:a + step] * s
            xt[:, a:a + step] = xs.T
            half_sq[a:a + step] = np.einsum("nd,nd->n", xs, xs)
        half_sq *= b
    dot = np.einsum("dn,d->n", state._xt, cs.astype(np.float32))
    eta = 2.0 ** -123 * (float(np.abs(cs).sum()) + 4 * d)
    with np.errstate(over="ignore"):        # -inf: the point is a candidate
        thr = state._weights * (-0.5 * s * s)
    thr += state._half_sq
    thr += b * float(np.einsum("d,d->", cs, cs)) - eta / 2
    return np.flatnonzero(~(dot <= thr))


def d2_sample_batch(state: SamplerState, rng: np.random.Generator, size: int) -> np.ndarray:
    """Draw `size` point indices with probability weight/total (uniform if no centers).

    Each draw is min(searchsorted(cs, u * top, "right"), n - 1) for one
    uniform u = rng.random(), cs the prefix sums of the weights and
    top = cs[-1]. _d2_index finds it in a few table lookups.
    """
    if not state.has_centers:
        return rng.integers(0, state.n_points, size=size)
    if state.total <= 0.0:
        raise FullyCovered("all points coincide with the current centers")
    return _d2_index(state, rng.random(size))


def _d2_index(state: SamplerState, u: np.ndarray) -> np.ndarray:
    """d2_sample_batch's index of each uniform in u.

    A guide table (Chen & Asau 1974; Devroye 1986, III.2.4) gives each
    index in a few lookups. With m = 2^ceil(log2(8n)) cells,
    e_k = fl((k/m) top) and t[k] = min(searchsorted(cs, e_k, "right"), n - 1)
    for k = 0..m, a draw falls in cell k = floor(u m) and its index lies in
    [t[k], t[k + 1]]. Where t[k] == t[k + 1] that value is the index. In
    the other cells (at most n of the m, which hold a prefix sum) the
    index is the first j >= t[k] with cs[j] > u top, or n - 1: up to
    _GUIDE_STEPS steps j += 1 find it for almost every draw, and the full
    search (_search) takes the draws still open.

    Why the bracket holds. m is a power of two, so u m and k/m are exact
    and k/m <= u < (k + 1)/m. Rounding a product with a positive top is
    monotone, so e_k <= fl(u top) <= e_{k+1}; searchsorted and the clamp
    to n - 1 are monotone in the key, so the index lies in [t[k], t[k + 1]].
    Every index is that of the plain search, and u is all the randomness.

    The table is kept with the prefix-sum array it was built from and
    serves only that array, which add_center drops. It is built on the
    first call of at least n uniforms against the array, since building it
    costs about as much as n plain searches, and serves later calls of any
    size.
    """
    cs = state.cumsum()
    n = state.n_points
    top = cs[-1]
    guide = state._guide
    if guide is not None and guide[0] is cs:
        tab = guide[1]
    elif len(u) >= n and np.isfinite(top):
        tab = _guide_table(cs, top)
        state._guide = (cs, tab)
    else:
        return _search(cs, u * top)
    idx = tab[(u * len(tab)).astype(np.intp)]
    miss = np.flatnonzero(idx < 0)
    if len(miss):
        key = u[miss] * top
        j = -1 - idx[miss]
        for _ in range(_GUIDE_STEPS):
            j += (cs[j] <= key) & (j < n - 1)
        open_ = np.flatnonzero((cs[j] <= key) & (j < n - 1))
        j[open_] = _search(cs, key[open_])
        idx[miss] = j
    return idx


def _search(cs: np.ndarray, key: np.ndarray) -> np.ndarray:
    """The index of each key by binary search: min(searchsorted(cs, key, "right"), n - 1)."""
    return np.minimum(np.searchsorted(cs, key, side="right"), len(cs) - 1)


def _guide_table(cs: np.ndarray, top) -> np.ndarray:
    """Cell k < m holds t[k] where t[k] == t[k + 1], else -1 - t[k] (t as
    in _d2_index).

    t is built in O(n log m): prefix sum i lies at or below edge k exactly
    when k >= searchsorted(edges, cs[i], "left"), so t[k] counts the sums
    whose first such edge is at most k.
    """
    n = len(cs)
    m = 1 << (8 * n - 1).bit_length()       # the least power of two >= 8n
    edges = np.arange(m + 1, dtype=np.float64) * (1.0 / m) * top
    first = np.searchsorted(edges, cs, side="left")
    t = np.minimum(np.cumsum(np.bincount(first, minlength=m + 1)[:m + 1]), n - 1)
    return np.where(t[:-1] == t[1:], t[:-1], -1 - t[:-1])


def counts_chunk(state: SamplerState, session: _oracle.OracleSession,
                 reps: _oracle.Representatives, rng: np.random.Generator, size: int):
    """`size` D2 draws as counts, classified against `reps` (exact oracle).

    One rng.multinomial over weight/total, which is 1/n each before any
    center. Returns (points, clusters, multiplicities) for the distinct
    points drawn, in index order; the chunk costs
    (multiplicities * clusters).sum() queries, charged by the caller.
    Returns None when a drawn cluster is undiscovered, since its cost and
    registration depend on the draw order.
    """
    if state.total <= 0.0:
        raise FullyCovered("all points coincide with the current centers")
    counts = rng.multinomial(size, state.weights / state.total)
    points = np.flatnonzero(counts)
    clusters, _, new_firsts = _oracle.peek_classify(session, points, reps)
    if new_firsts:
        return None
    return points, clusters, counts[points].astype(np.int64)


def reference_point(sample_indices, state: SamplerState) -> int:
    """Minimum-weight sampled point; ties break toward the lowest point index.

    Reads the samples' weights only (SamplerState.weights_at)."""
    idxs = np.asarray(sample_indices, dtype=np.int64)
    if len(idxs) == 0:
        raise ValueError("reference_point needs at least one sample")
    w = state.weights_at(idxs)
    return int(idxs[w == w.min()].min())


def _accept_prob(scale: float, ref_w: np.ndarray, wx: np.ndarray) -> np.ndarray:
    """Acceptance probability min(1, scale w(ref) / w(x)) per draw; 1 where w(x) = 0."""
    with np.errstate(over="ignore"):        # inf: the draw is accepted
        p = np.divide(scale * ref_w, wx, out=np.ones(len(wx)), where=wx > 0.0)
    return np.minimum(1.0, p)


def rej_samp(state: SamplerState, session: _oracle.OracleSession, W, refs: dict,
             T, eps: float, *, rng: np.random.Generator,
             reps: _oracle.Representatives | None = None,
             checker=None, draw_cap: int = 10**8):
    """Rejection sampling: thin D2-draws so accepted points are uniform per cluster.

    Draws, classifies, and for clusters j in W accepts a draw x with
    probability min(1, (eps/128) w(x_j*)/w(x)), looping until every j in W
    holds at least its quota (T: one int for all, or a map j -> int) or
    draw_cap draws are made.
    Classification is exact-oracle Classify against `reps` by default; a
    `checker(point_index) -> cluster index or 0` callable replaces it for
    the noisy pipeline. Returns ({j: [point indices]}, draws, queries).

    A checker is called once per distinct point of the pass (_rej_walk);
    every later draw of that point is charged the ledger delta of its first
    check and gets the same verdict. So a checker must be deterministic for
    the rest of a pass once it has seen x: the same verdict at the same
    cost, as check_cluster is once its pairs are answered. rng must then be
    a PCG64 Generator (np.random.default_rng).

    The exact-oracle pass charges the ledger, registers discoveries and
    stops exactly where a draw-at-a-time loop would. With centers and no
    budget it takes chunks of 2^22 draws from counts_chunk, with binomial
    acceptances, since far from the quotas the draw order does not matter.
    A chunk with an undiscovered cluster is dropped for one draw-ordered
    batch; one that would fill every quota is retried a quarter the size,
    down to 8192 draws, so that a short draw-ordered tail places the stop;
    one that would pass the cap ends the chunks. A draw-ordered batch is
    committed through the quota-filling draw, or up to the cap, and its
    tail draws are discarded. No batch size depends on draw_cap: the cap
    only cuts a batch, so a cap that a pass does not reach leaves the pass
    as it is. A pass that reaches the cap ends there and returns as a
    filled one does; the pools short of their quota show what it missed.
    """
    W = sorted(W)
    scale = eps / 128.0
    quota = {j: (T[j] if isinstance(T, dict) else int(T)) for j in W}
    accepted: dict[int, list[int]] = {j: [] for j in W}
    for j in W:
        if j not in refs:
            raise ValueError(f"no reference point for cluster {j}")
    ref_w = {j: float(state.weights[refs[j]]) for j in W}

    def need():
        return {j: quota[j] - len(accepted[j]) for j in W}

    queries0 = session.ledger
    if checker is not None:
        draws = _rej_walk(state, W, ref_w, scale, quota, accepted, rng=rng,
                          checker=checker, session=session, draw_cap=draw_cap)
        return accepted, draws, session.ledger - queries0

    draws = 0
    acc_rate_guess = 0.05
    chunk = 2 ** 22 if session.budget is None and state.has_centers else 0
    w_arr = np.zeros(max(W) + 1)
    in_w_arr = np.zeros(max(W) + 2, dtype=bool)
    for j in W:
        w_arr[j] = ref_w[j]
        in_w_arr[j] = True

    def accept(pts, cl):
        """Acceptance probability of each draw pts[i] of cluster cl[i]; -1 outside W."""
        p = np.full(len(pts), -1.0)
        w = np.flatnonzero(in_w_arr[np.minimum(cl, len(in_w_arr) - 1)])
        p[w] = _accept_prob(scale, w_arr[cl[w]], state.weights[pts[w]])
        return p

    # The pass's acceptance table, per point, for the L0 clusters discovered
    # now; the weights do not change within a pass. A cluster of W that is
    # still undiscovered gets an id above L0, so then the draws of clusters
    # past L0 are looked up on their own.
    L0 = reps.discovered_count
    table = accept(np.arange(state.n_points), reps.rank_of_point(session))

    def accept_drawn(pts, cl):
        p = table[pts]
        if max(W) > L0:
            late = np.flatnonzero(cl > L0)
            p[late] = accept(pts[late], cl[late])
        return p

    while draws < draw_cap and any(v > 0 for v in need().values()):
        nd = need()

        got = counts_chunk(state, session, reps, rng, chunk) if chunk >= 8192 else None
        if got is not None:
            pts, cl, mult = got
            p = accept_drawn(pts, cl)
            in_w = ~(p < 0.0)               # p is NaN where an infinite weight meets W
            pts_w, cl_w = pts[in_w], cl[in_w]
            acc = rng.binomial(mult[in_w], p[in_w])
            per_j = np.bincount(cl_w - 1, weights=acc, minlength=max(W))
            if all(per_j[j - 1] >= nd[j] for j in W):
                chunk //= 4
                continue
            if chunk <= draw_cap - draws:
                session.charge(int((mult * cl).sum()))
                nz = acc > 0
                for x, j, c in zip(pts_w[nz], cl_w[nz], acc[nz]):
                    accepted[int(j)].extend([int(x)] * int(c))
                draws += chunk
                acc_rate_guess = max(int(acc.sum()) / chunk, 1e-6)
                continue
            chunk = 0

        B = int(min(max(4096, max(nd.values()) / max(acc_rate_guess, 1e-6) * 1.5), 2**16))
        idx = d2_sample_batch(state, rng, B)
        cl, costs, new_firsts = _oracle.peek_classify(session, idx, reps)

        p = accept_drawn(idx, cl)
        w_idx = np.flatnonzero(~(p < 0.0))
        coins = rng.random(len(w_idx))
        hit = w_idx[coins < p[w_idx]]

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


_WALK_WORDS = 4096                  # generator words drawn per block of _rej_walk
_UNIT = 1.0 / 9007199254740992.0    # 2^-53: a 64-bit word's top 53 bits as a double


def _rej_walk(state, W, ref_w, scale, quota, accepted, *, rng, checker, session, draw_cap):
    """Rejection loop for checker-based (noisy) classification, over pre-drawn blocks.

    Draws, coins, checker calls, charges and the generator state left behind
    are those of the loop that, per draw, takes d2_sample_batch(state, rng,
    1)[0], checks it, and for a W-classified draw takes one rng.random()
    coin. The weights do not change during the loop, and unmet quotas are
    counted down as draws are accepted. Returns the draws made, which stop
    at the quota fill or at draw_cap.

    Each block snapshots the generator and draws _WALK_WORDS 64-bit words
    at once. With centers they are rng.random() doubles, each with its
    candidate index from _d2_index; before any center they are raw
    words, from which _uniform_index replays integers(0, n). A coin is the
    next word as a double. A block ends at the quota fill, at the cap, or
    before a draw whose index words leave no word for a coin. On every
    exit, a raising check included, the generator is rewound to the words
    used (_rewind). A block that ends before its first draw is drawn again
    twice as long.

    The first draw of a point x in the walk calls checker(x) and keeps its
    verdict, its ledger delta and its acceptance probability; a later draw
    of x charges that delta through session.charge and reuses the rest.
    """
    if not isinstance(rng.bit_generator, np.random.PCG64):
        raise TypeError("the rejection walk replays a PCG64 generator's words")
    left = {j: quota[j] - len(accepted[j]) for j in W}
    unmet = sum(1 for v in left.values() if v > 0)
    n = state.n_points
    uniform = not state.has_centers
    thresh = (2 ** 32 - n) % n        # Lemire's rejection threshold for integers(0, n)
    bitgen = rng.bit_generator
    charge = session.charge
    verdicts: dict[int, tuple] = {}    # x -> (cluster or 0, ledger delta, p or None)
    size = _WALK_WORDS
    draws = 0
    while unmet and draws < draw_cap:
        if not uniform and state.total <= 0.0:
            raise FullyCovered("all points coincide with the current centers")
        entry = bitgen.state
        has32, half = entry["has_uint32"], entry["uinteger"]
        used, first = 0, draws
        try:
            if uniform:
                words = bitgen.random_raw(size).tolist()
            else:
                u = rng.random(size)
                xs = _d2_index(state, u).tolist()
                coins = u.tolist()
            end = size - 1                 # a draw leaves the last word for its coin
            while unmet and draws < draw_cap:
                if uniform:
                    got = _uniform_index(words, used, end, has32, half, n, thresh)
                    if got is None:
                        break
                    x, used, has32, half = got
                elif used < end:
                    x = xs[used]
                    used += 1
                else:
                    break
                draws += 1
                v = verdicts.get(x)
                if v is None:
                    before = session.ledger
                    j = checker(x)
                    p = None
                    if j in ref_w:
                        wx = float(state.weights[x])
                        p = 1.0 if wx <= 0.0 else min(1.0, scale * ref_w[j] / wx)
                    v = verdicts[x] = (j, session.ledger - before, p)
                else:
                    charge(v[1])
                if v[2] is None:
                    continue
                coin = (words[used] >> 11) * _UNIT if uniform else coins[used]
                used += 1
                if coin < v[2]:
                    j = v[0]
                    accepted[j].append(x)
                    left[j] -= 1
                    if left[j] == 0:
                        unmet -= 1
        finally:
            _rewind(bitgen, entry, used, has32, half)
        if draws == first and unmet and draws < draw_cap:
            size *= 2
    return draws


def _uniform_index(words, pos, end, has32, half, n, thresh):
    """Replay one integers(0, n) draw (n <= 2^32) from PCG64 output words.

    numpy takes 32-bit halves r, low half first, keeping the high half
    buffered (has32, half) for the next; it returns (r n) >> 32 unless
    the low 32 bits of r n fall below thresh = (2^32 - n) mod n, in which
    case it takes another half (Lemire, "Fast Random Integer Generation in
    an Interval", 2019). Returns (x, pos, has32, half) after the draw, or
    None if it needs the word at end or later, or starts past end. For
    n = 1 numpy takes no word at all.
    """
    if pos > end:
        return None
    if n == 1:
        return 0, pos, has32, half
    while True:
        if has32:
            r, has32 = half, 0
        elif pos < end:
            w = words[pos]
            pos += 1
            r, half, has32 = w & 0xFFFFFFFF, w >> 32, 1
        else:
            return None
        m = r * n
        if (m & 0xFFFFFFFF) >= thresh:
            return m >> 32, pos, has32, half


def _rewind(bitgen, entry, used, has32, half):
    """Set bitgen to its state `entry` advanced by `used` words, with the
    buffered half-word (has32, half); advance alone clears that buffer."""
    bitgen.state = entry
    bitgen.advance(used)
    st = bitgen.state
    st["has_uint32"], st["uinteger"] = has32, half
    bitgen.state = st
