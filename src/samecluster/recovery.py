"""Cluster-recovery algorithms driven by same-cluster queries.

Two families share one run state:

* Theory-literal algorithms (`run_basic`, `run_improved`) follow the
  four-phase round structure with the published sampling thresholds and
  classify representatives in discovery order.
* Experiment-style variants (`run_basic_simplified`,
  `run_improved_simplified`, `run_uniform`) recover a cluster once it holds
  `heavy_threshold` uniform samples, reuse samples across rounds, and (for
  the D2 variants) classify by querying clusters in increasing distance to
  running sample-mean centers.

All draws are processed in batches whose ledger accounting, discovery
registration and stopping points match a draw-at-a-time execution exactly.
tests/test_recovery.py keeps the draw-at-a-time references:
TestPhase2Reference checks the Improved Phase 2, TestExpEngineReference
the experiment engine (`exp_engine_reference`), and TestUniformReference
`run_uniform`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, asdict

import numpy as np

from . import oracle as _oracle
from . import sampling as _sampling
from .geometry import PointSet, centroid_error
from .oracle import BudgetExhausted, OracleSession, Representatives
from .sampling import FullyCovered, SamplerState

_FILL_BATCH = 1 << 21   # draws per counts chunk of draw_classified_fill
_FILL_PIECE = 1 << 16   # least draws per draw-ordered piece of a fill
_PHASE_CHUNK = 1 << 13


def log2p(x: float) -> float:
    """Base-2 log clamped below at 1; the reading used for all band counts."""
    return max(1.0, math.log2(x))


def threshold_t1(eps: float, k: int) -> float:
    return 8.0 / eps * math.log(10.0 * (k + 1))


def basic_phase2_threshold(eps: float, k: int, q: int) -> float:
    return 96.0 * q * math.log(10.0 * (k + q)) / eps


def basic_t2(eps: float, k: int, q: int) -> float:
    return (2.0 ** 12) * q * math.log(10.0 * (k + q)) / eps ** 2


def basic_t3(eps: float, r: int) -> float:
    return 20.0 / eps * r * math.log(10.0 * r) ** 2


def improved_t2(eps: float, k: int, q: int, w: int) -> float:
    return (2.0 ** 17) * w * log2p(q) * math.log(10.0 * (k + q)) / eps ** 2


def improved_t3(eps: float, k_guess: int) -> float:
    return 30.0 * k_guess / eps


# ---------------------------------------------------------------------------
# Band partition

@dataclass
class BandPartition:
    """Dyadic bands B_1..B_L plus a tail band of negligible clusters."""

    bands: list[list[int]]
    tail: list[int]
    heavy: list[bool]          # per dyadic band, tail flag last
    l_bands: int

    def heavy_clusters(self) -> list[int]:
        out = []
        for ell, members in enumerate(self.bands):
            if self.heavy[ell]:
                out.extend(members)
        if self.heavy[-1]:
            out.extend(self.tail)
        return sorted(out)


def dyadic_band(p: float) -> int:
    """Band index l with 2^-l < p <= 2^-(l-1), exact at powers of two."""
    m, e = math.frexp(p)
    return (1 - e) if m > 0.5 else (2 - e)


def _l_bands(q: int) -> int:
    """Number of dyadic bands L = max(1, ceil(3 log2 q)) for q clusters."""
    return max(1, math.ceil(3 * math.log2(q))) if q > 1 else 1


def split_bands(p_hat: dict, q: int) -> BandPartition:
    """Partition clusters by empirical conditional frequency into dyadic bands.

    Clusters with p_hat <= 1/q^3 form the tail (for q >= 2; a lone cluster
    with p_hat = 1 sits in band 1). A band is heavy when its total
    frequency is at least 1/(3L) for L = max(1, ceil(3 log2 q)).
    """
    if q < 1:
        raise ValueError("q must be >= 1")
    l_bands = _l_bands(q)
    bands: list[list[int]] = [[] for _ in range(l_bands)]
    tail: list[int] = []
    cutoff = 1.0 / q ** 3
    for cid in sorted(p_hat):
        p = float(p_hat[cid])
        if not (0.0 <= p <= 1.0):
            raise ValueError(f"p_hat[{cid}] = {p} outside [0, 1]")
        if p <= 0.0 or (q > 1 and p <= cutoff):
            tail.append(cid)
            continue
        ell = dyadic_band(p)
        if ell > l_bands:
            tail.append(cid)
        else:
            bands[ell - 1].append(cid)
    thresh = 1.0 / (3.0 * l_bands)
    heavy = [sum(p_hat[c] for c in members) >= thresh for members in bands]
    heavy.append(sum(p_hat[c] for c in tail) >= thresh if tail else False)
    return BandPartition(bands=bands, tail=tail, heavy=heavy, l_bands=l_bands)


# ---------------------------------------------------------------------------
# Configuration and results

@dataclass
class RecoveryConfig:
    eps: float = 0.5
    heavy_threshold: int = 10
    reuse_samples: bool = True
    draw_cap: int = 10 ** 8
    seed: int = 0

    def __post_init__(self):
        if not (0.0 < self.eps <= 1.0):
            raise ValueError(f"eps must be in (0, 1], got {self.eps}")
        if self.heavy_threshold < 1:
            raise ValueError("heavy_threshold must be >= 1")
        if self.draw_cap < 0:
            raise ValueError(f"draw_cap must be >= 0, got {self.draw_cap}")


@dataclass
class RecoveryResult:
    algorithm: str
    seed: int
    I: list[int] = field(default_factory=list)
    centers: dict[int, list[float]] = field(default_factory=dict)
    reps: dict[int, int] = field(default_factory=dict)
    truth_labels: dict[int, int] = field(default_factory=dict)
    K_recovered: int = 0
    L_discovered: int = 0
    queries_total: int = 0
    samples_total: int = 0
    rounds_total: int = 0
    per_round: list[dict] = field(default_factory=list)
    per_cluster_errors: dict[int, float] = field(default_factory=dict)
    stop_reason: str = "terminated"
    incomplete: bool = False
    starved: list[int] = field(default_factory=list)

    def to_payload(self) -> dict:
        return asdict(self)


class TargetReached(RuntimeError):
    pass


class _DrawCap(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# Shared run state

def _live(centers, L: int) -> np.ndarray:
    """Per cluster id 1..L: not recovered (not a key of centers)."""
    live = np.ones(L, dtype=bool)
    live[[c - 1 for c in centers]] = False
    return live


class RunState:
    """Mutable state of one recovery run over one dataset and session."""

    def __init__(self, X: PointSet, session: OracleSession, config: RecoveryConfig,
                 target: int | None = None):
        if len(X) == 0:
            raise ValueError("recovery needs a non-empty point set")
        if len(X) != session.n_points:
            raise ValueError("point set and oracle session sizes differ")
        if target is not None and target < 1:
            raise ValueError(f"target must be >= 1, got {target}")
        self.X = X
        self.session = session
        self.config = config
        self.target = target
        self.rng = np.random.default_rng(config.seed)
        self.sampler = SamplerState(X.points)
        self.reps = Representatives()
        self.centers: dict[int, np.ndarray] = {}        # the recovered clusters, in order
        self.counts = np.zeros(8, dtype=np.int64)       # samples per id since the reset
        # The cluster each point was drawn for since the reset, 0 if none:
        # one, since a committed id is its label's discovery rank.
        self.owner = np.zeros(len(X), dtype=np.int64)
        self.draws = 0
        self.round = 0
        self.logs: list[dict] = []

    @property
    def k(self) -> int:
        return len(self.centers)

    @property
    def s_total(self) -> int:
        """Samples since the last reset."""
        return int(self.counts.sum())

    @property
    def L(self) -> int:
        return self.reps.discovered_count

    def Q(self) -> list[int]:
        """Sampled-but-unrecovered clusters."""
        L = self.L
        return (np.flatnonzero(_live(self.centers, L) & (self.counts[:L] > 0)) + 1).tolist()

    def reset_round_state(self):
        """Theory semantics without sample reuse: the sample counts and
        owners start empty, so Q does."""
        self.counts[:] = 0
        self.owner[:] = 0

    # -- sample ingestion ---------------------------------------------------

    def ingest(self, idx: np.ndarray, cl: np.ndarray, mult: np.ndarray | None = None):
        """Record committed classified draws into counts and owners: point
        idx[i] of cluster cl[i], drawn mult[i] times (once without mult)."""
        if len(idx) == 0:
            return
        self.reserve(int(cl.max()))
        self.counts += np.bincount(cl - 1, weights=mult,
                                  minlength=len(self.counts)).astype(np.int64)
        self.owner[idx] = cl
        self.draws += len(idx) if mult is None else int(mult.sum())

    def reserve(self, ids: int):
        """Grow counts, by doubling, to hold cluster ids up to `ids`."""
        while ids > len(self.counts):
            self.counts = np.concatenate([self.counts, np.zeros_like(self.counts)])

    def commit_peeked(self, idx: np.ndarray, cl: np.ndarray, costs: np.ndarray,
                      new_firsts, upto: int):
        """Charge, register and ingest the first `upto` draws of a peeked batch.

        On BudgetExhausted the draws before .done are ingested, then the
        exception propagates.
        """
        try:
            _oracle.commit_classify(self.session, self.reps, costs, new_firsts, upto)
        except BudgetExhausted as e:
            self.ingest(idx[:e.done], cl[:e.done])
            raise
        self.ingest(idx[:upto], cl[:upto])

    def draw_classified_fill(self, n: int):
        """Draw n D2-samples, classify in discovery order, commit exactly.

        The draws come in chunks of up to _FILL_BATCH. Without a budget, a
        chunk is taken as counts (sampling.counts_chunk), since the draw
        order does not change counts, ledger sums or owners. A chunk that
        holds an undiscovered cluster, and every chunk of a budgeted run,
        is drawn again in order, so that registrations and per-draw costs,
        and the draw where the budget runs out, are those of a
        draw-at-a-time run. That re-draw goes in pieces of
        max(_FILL_PIECE, n_points) draws, each drawn (d2_sample_batch),
        peeked (peek_classify) and committed (commit_peeked) before the
        next, so that its arrays stay in cache; a piece of at least
        n_points keeps _d2_index's guide table and the point -> rank
        table, which are built only for a call that large. The generator
        gives the same values in consecutive calls as in one, so the
        pieces draw what the whole chunk would. Only a fill that
        BudgetExhausted stops leaves the generator elsewhere, after its
        current piece, and nothing reads it after that stop.
        If n would pass the draw cap, only the draws up to the cap are
        made, then _DrawCap is raised.
        """
        fits = remaining = self.room(n)
        session = self.session
        piece = max(_FILL_PIECE, self.sampler.n_points)
        while remaining > 0:
            b = int(min(remaining, _FILL_BATCH))
            got = (_sampling.counts_chunk(self.sampler, session, self.reps, self.rng, b)
                   if session.budget is None else None)
            if got is None:
                for start in range(0, b, piece):
                    m = min(piece, b - start)
                    idx = _sampling.d2_sample_batch(self.sampler, self.rng, m)
                    cl, costs, new_firsts = _oracle.peek_classify(session, idx, self.reps)
                    self.commit_peeked(idx, cl, costs, new_firsts, m)
            else:
                points, clusters, mult = got
                session.charge(int((mult * clusters).sum()))
                self.ingest(points, clusters, mult)
            remaining -= b
        if fits < n:
            raise _DrawCap()

    # -- recovery commit ----------------------------------------------------

    def commit_recovery(self, cid: int, center: np.ndarray):
        """Record a recovered cluster and add its center to the sampler."""
        _sampling.add_center(self.sampler, center)
        self.centers[cid] = np.asarray(center, dtype=np.float64)

    def check_target(self):
        if self.target is not None and self.k >= self.target:
            raise TargetReached()

    def room(self, n: int) -> int:
        """How many of n further draws fit under the draw cap; _DrawCap
        when none does. The one check of the cap outside rejection passes.
        """
        fits = min(n, self.config.draw_cap - self.draws)
        if fits <= 0:
            raise _DrawCap()
        return fits

    def reference_for(self, cid: int) -> int:
        """The minimum-weight point sampled for cid (sampling.reference_point)."""
        return _sampling.reference_point(np.flatnonzero(self.owner == cid), self.sampler)

    def rej_samp(self, W, refs: dict, quota: int, **kwargs) -> tuple[dict, list[int]]:
        """sampling.rej_samp within the draws left under the cap.

        Returns (pools, unmet), unmet being the clusters of W whose pool
        came back short of the quota: the cap cut the pass. The remainder
        goes in as it is, 0 included, where the pass draws nothing and
        every pool comes back short. The round records what it completed
        and lists the unmet clusters as skipped, which makes them the
        run's starved clusters, then raises _DrawCap unless the target is
        reached.
        """
        acc, draws, _ = _sampling.rej_samp(
            self.sampler, self.session, W=W, refs=refs, T=quota,
            eps=self.config.eps, rng=self.rng,
            draw_cap=self.config.draw_cap - self.draws, **kwargs)
        self.draws += draws
        return acc, [j for j in W if len(acc[j]) < quota]

    # -- round skeleton -------------------------------------------------------

    def new_round(self, **extra) -> dict:
        """Open the next round: count it, drop per-round state when samples
        are not reused, and append its log."""
        self.round += 1
        if not self.config.reuse_samples:
            self.reset_round_state()
        log = {"round": self.round, **extra, "recovered": [], "skipped": []}
        self.logs.append(log)
        return log

    def end_round(self, log: dict):
        log["queries"] = self.session.ledger
        log["samples"] = self.draws

    def execute(self, algorithm: str, body, *args) -> RecoveryResult:
        """Run body(self, *args), then finalize with the cause that ended it.

        A body that returns ends the run as "terminated"; this is the one
        place where the stop exceptions map to stop causes.
        """
        stop = "terminated"
        try:
            body(self, *args)
        except TargetReached:
            stop = "target"
        except BudgetExhausted:
            stop = "budget"
        except _DrawCap:
            stop = "draw_cap"
        return self.finalize(algorithm, stop)

    # -- finalization ---------------------------------------------------------

    def finalize(self, algorithm: str, stop_reason: str) -> RecoveryResult:
        res = RecoveryResult(algorithm=algorithm, seed=self.config.seed)
        res.I = list(self.centers)
        res.centers = {cid: c.tolist() for cid, c in self.centers.items()}
        res.reps = {cid: int(self.reps.rep_point(cid)) for cid in range(1, self.L + 1)}
        res.K_recovered = self.k
        res.L_discovered = self.L
        res.queries_total = self.session.ledger
        res.samples_total = self.draws
        res.rounds_total = self.round
        res.per_round = self.logs
        res.stop_reason = stop_reason
        res.starved = sorted(j for log in self.logs for j in log["skipped"])
        res.incomplete = bool(res.starved) or stop_reason == "draw_cap"
        # The majority label of the cluster's representatives (the one
        # representative of an exact run).
        if self.X.labels is not None:
            for cid in self.centers:
                labs, n = np.unique(self.X.labels[np.asarray(self.reps.members(cid))],
                                    return_counts=True)
                lab = int(labs[np.argmax(n)])
                res.truth_labels[cid] = lab
                res.per_cluster_errors[cid] = centroid_error(self.X, self.centers[cid], lab)
        return res


# ---------------------------------------------------------------------------
# Phase 1

def phase1_probe(run: RunState) -> bool:
    """Draw fresh D2-samples until one classifies outside I, up to floor(T1)+1.

    Returns whether Q is non-empty afterwards. Carried samples (reuse mode)
    satisfy the probe without drawing.
    """
    if run.Q():
        return True
    t1 = threshold_t1(run.config.eps, run.k)
    budget_draws = math.floor(t1) + 1
    for _ in range(budget_draws):
        try:
            idx = _sampling.d2_sample_batch(run.sampler, run.rng, run.room(1))
        except FullyCovered:
            return False
        cl = _oracle.classify_batch(run.session, idx, run.reps)
        run.ingest(idx, cl)
        if int(cl[0]) not in run.centers:
            return True
    return bool(run.Q())


# ---------------------------------------------------------------------------
# The Basic algorithm (theory-literal)

def run_basic(X: PointSet, session: OracleSession, config: RecoveryConfig,
              target: int | None = None) -> RecoveryResult:
    """One cluster per round: probe, find the largest new cluster, pick a
    reference point, rejection-sample its quota, recover its centroid."""
    run = RunState(X, session, config, target)
    return run.execute("basic", _basic_rounds)


def _basic_rounds(run: RunState):
    while True:
        log = run.new_round()
        if not phase1_probe(run):
            return
        _basic_round(run, log)
        run.end_round(log)


def _basic_round(run: RunState, log: dict):
    eps, k = run.config.eps, run.k
    # Phase 2: sample until the dynamic threshold, then take the largest
    # newly discovered cluster (ties to the lowest index). Q is non-empty:
    # the probe found it so, and Phase 2 only adds samples.
    while True:
        t = basic_phase2_threshold(eps, k, len(run.Q()))
        gap = math.floor(t) + 1 - run.s_total
        if gap <= 0:
            break
        run.draw_classified_fill(gap)
    Q = run.Q()
    j = min(Q, key=lambda c: (-run.counts[c - 1], c))
    _recover_rejection(run, log, [j], basic_t2(eps, k, len(Q)), basic_t3(eps, run.round))


def _recover_rejection(run: RunState, log: dict, W: list[int], t2: float, t3: float):
    """Phases 3-4 of a theory round: recover every cluster of W.

    Phase 3 tops the sample up to floor(t2) + 1 draws and takes each
    cluster's minimum-weight sampled point as its reference. Phase 4
    rejection-samples max(1, ceil(t3)) uniform points per cluster and
    recovers each cluster at the mean of its points. W holds unrecovered
    clusters only, which carry no pool: a pass starts empty. A cluster
    whose quota the draw cap cuts short is skipped, and the step then
    raises _DrawCap unless the target is reached.
    """
    gap = math.floor(t2) + 1 - run.s_total
    if gap > 0:
        run.draw_classified_fill(gap)
    refs = {j: run.reference_for(j) for j in W}
    acc, unmet = run.rej_samp(W, refs, max(1, math.ceil(t3)), reps=run.reps)
    for j in W:
        if j in unmet:
            log["skipped"].append(j)
            continue
        run.commit_recovery(j, run.X.points[np.asarray(acc[j])].mean(axis=0))
        log["recovered"].append(j)
    run.check_target()
    if unmet:
        raise _DrawCap()


# ---------------------------------------------------------------------------
# The Improved algorithm (theory-literal, bands and K-doubling)

def run_improved(X: PointSet, session: OracleSession, config: RecoveryConfig,
                 target: int | None = None) -> RecoveryResult:
    """Band-splitting algorithm with K-doubling; recovers whole heavy bands."""
    run = RunState(X, session, config, target)
    return run.execute("improved", k_doubling, phase1_probe, _improved_round)


def k_doubling(run: RunState, probe, round_):
    """Rounds under a doubling guess of the cluster count.

    probe(run) reports whether unrecovered mass was found; while it was
    and fewer than K_guess clusters are recovered, round_(run, K_guess,
    log) runs and reports whether unrecovered mass remains. The guess
    doubles when a round leaves mass behind at K_guess recoveries; the
    run ends when none remains within the guess.
    """
    k_guess = 1
    while True:
        while True:
            log = run.new_round(K_guess=k_guess)
            more = probe(run)
            if more and run.k < k_guess:
                more = round_(run, k_guess, log)
                run.check_target()
            run.end_round(log)
            if not more or run.k >= k_guess:
                break
        if not more and run.k <= k_guess:
            return
        k_guess *= 2


def _improved_round(run: RunState, k_guess: int, log: dict) -> bool:
    eps, k = run.config.eps, run.k
    W, q_frozen = _improved_phase2(run)
    _recover_rejection(run, log, W, improved_t2(eps, k, q_frozen, len(W)),
                       improved_t3(eps, k_guess))
    return bool(run.Q())


def _improved_phase2(run: RunState) -> tuple[list[int], int]:
    """Sample until the band stop rule holds; return (W, q) at that draw.

    The rule is checked as if after every single draw: stop at the first
    sample where |S| >= 1600 |W| log|Q| ln(10(k+|Q|)) / eps, W being the
    clusters in heavy bands of the unrecovered sample counts.

    Draws come in chunks of _PHASE_CHUNK, each peek-classified and split
    into segments at the first draw of every undiscovered label; q can then
    change inside a segment only when a discovered but unsampled cluster is
    drawn. Per segment, `_w_bounds` bounds q and |W| over all its positions
    from the counts after its first and last draws, and `_phase2_stop`
    takes one of three outcomes:

    * No stop possible: q never falls below its value q0 at the first
      draw and |W| never below max(1, floor), since a stop needs |W| >= 1;
      f(q) = 1600 log q ln(10(k+q)) / eps rises with q, and so does its
      float evaluation, every factor being monotone and positive; and |S|
      is at most s_end, its value at the segment's last draw. When
      s_end < f(q0) max(1, floor), no draw of the segment meets the rule,
      and the segment is skipped.
    * Pinned: floor == ceiling fixes q and |W| over the segment, so the
      stop is the first position with |S| >= f(q) |W|.
    * Open: only then are the (cluster x position) cumulative counts built
      and `_heavy_rows` evaluates the rule at every position.

    Only the prefix through the stop draw is charged, registered and
    ingested. The budget stops the run on the draw where a draw-at-a-time
    run would, since that run checks the budget before the stop rule; the
    draw cap likewise commits the draws up to the cap, then raises
    _DrawCap. TestPhase2Reference in tests/test_recovery.py holds the
    draw-at-a-time reference this must match.
    """
    session = run.session
    while True:
        idx = _sampling.d2_sample_batch(run.sampler, run.rng, _PHASE_CHUNK)
        cl, costs, new_firsts = _oracle.peek_classify(session, idx, run.reps)
        stop = _phase2_stop(run, cl, new_firsts)
        upto = len(idx) if stop is None else stop + 1
        cut = run.room(upto)
        run.commit_peeked(idx, cl, costs, new_firsts, cut)
        if cut < upto:
            raise _DrawCap()
        if stop is not None:
            break
    # W is non-empty: Q is (the probe found it so), and of the bands
    # 1..L+1 one holds at least T/(L+1) >= T/(3L) samples.
    Q = np.asarray(run.Q(), dtype=np.int64)
    counts = run.counts[Q - 1]
    _, heavy = _heavy_rows(counts[:, None], np.array([counts.sum()]))
    return Q[heavy[:, 0]].tolist(), len(Q)


def _phase2_stop(run: RunState, cl: np.ndarray, new_firsts) -> int | None:
    """First position of a peeked chunk at which the Phase-2 rule stops.

    Segments start at position 0 and at each first draw of an undiscovered
    label. Each is skipped when its last draw is below the least threshold
    f(q) |W| any of its positions can have, solved in closed form when
    `_w_bounds` pins q and |W|, and evaluated draw by draw by `_heavy_rows`
    otherwise; see `_improved_phase2` for why each outcome is exact.
    """
    eps, k = run.config.eps, run.k
    scale = 1600.0 / eps

    def factor(q: int) -> float:
        return scale * log2p(q) * math.log(10.0 * (k + q))

    m = run.L + len(new_firsts)
    live = np.r_[False, _live(run.centers, m)]      # by cluster id, 0 not one
    counts = np.zeros(m + 1, dtype=np.int64)      # live counts before a segment
    counts[1:run.L + 1] = run.counts[:run.L]
    counts[~live] = 0
    s_before = run.s_total
    cuts = [p for p, _ in new_firsts if p > 0]
    for a, b in zip([0] + cuts, cuts + [len(cl)]):
        seg = cl[a:b]
        hi = counts + np.where(live, np.bincount(seg, minlength=m + 1), 0)
        lo = counts.copy()
        if live[seg[0]]:
            lo[seg[0]] += 1
        q, floor, ceiling = _w_bounds(lo, hi, int(lo.sum()), int(hi.sum()))
        if s_before + b < factor(max(q, 1)) * max(1, floor):
            pass                    # no position of the segment can stop
        elif floor == ceiling:
            if floor:
                j = max(a, math.ceil(factor(q) * floor) - s_before - 1)
                if j < b:
                    return j
        else:
            ids = np.flatnonzero(hi)
            C = counts[ids, None] + np.cumsum(seg == ids[:, None], axis=1)
            q, heavy = _heavy_rows(C, C.sum(axis=0))
            w = heavy.sum(axis=0)
            f = np.array([factor(v) if v else 0.0 for v in range(int(q.max()) + 1)])
            hit = np.flatnonzero((w > 0) & (s_before + np.arange(a + 1, b + 1) >= f[q] * w))
            if len(hit):
                return a + int(hit[0])
        counts = hi
    return None


def _bitlen(x: np.ndarray) -> np.ndarray:
    """int.bit_length of non-negative integers below 2**53."""
    return np.frexp(np.asarray(x, dtype=np.float64))[1]


def _heavy_rows(C: np.ndarray, T: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact band rule over count columns.

    C[c, j] is cluster c's sample count and T[j] the total at position j.
    A present cluster sits in band bitlen(T // s), the integer form of
    2^-l < s/T <= 2^-(l-1); bands past L(q) form the tail, and a band is
    heavy when 3 L(q) times its count sum is at least T. Returns (q, heavy)
    with q[j] the number of present clusters and heavy[c, j] whether c is
    in W.
    """
    present = C > 0
    q = present.sum(axis=0)
    lb = np.array([_l_bands(v) for v in range(len(C) + 1)])[q]
    ell = _bitlen(T // np.maximum(C, 1))
    g = np.where(present, np.minimum(ell, lb + 1), 0)
    cols = np.arange(C.shape[1])
    gsum = np.bincount((g * len(cols) + cols).ravel(), weights=C.ravel(),
                       minlength=(int(lb.max()) + 2) * len(cols))
    heavy = 3 * lb * gsum.reshape(-1, len(cols)) >= T
    heavy[0] = False
    return q, heavy[g, cols]


def _w_bounds(lo: np.ndarray, hi: np.ndarray, t_lo: int, t_hi: int) -> tuple[int, int, int]:
    """(q, floor, ceiling): q and bounds on |W| between two count states.

    lo and hi are the counts after the first and the last position of a
    range, t_lo and t_hi their totals; q is the number of present clusters
    at the first position, and q never falls below it in the range. Counts
    only grow in between, and T // s rises with T and falls with s, so a
    cluster's band lies between bitlen(t_lo // hi) and bitlen(t_hi // lo)
    (at least 1, at most the tail L(q) + 1). When q is pinned, a cluster
    is surely in W when every band it can be in is surely heavy: 3 L(q)
    times the lo sum of the band's pinned members, plus the cluster's own
    lo count if it is not pinned there, is at least t_hi. It can be in W
    when one of its bands can be heavy by the hi sums of every cluster
    that can be in it, against t_lo. When q is not pinned, L(q) moves and
    only the floor of 1 holds: some band 1..L+1 always holds at least T/3L
    of the samples. |W| lies between floor and ceiling at every position,
    and the range is pinned (q and |W| constant) exactly when they meet.
    """
    present = lo > 0
    q = int(present.sum())
    q_hi = int(np.count_nonzero(hi))
    if q != q_hi:
        return q, min(q, 1), q_hi
    if q == 0:
        return 0, 0, 0
    s_lo, s_hi = lo[present], hi[present]
    lb = _l_bands(q)
    g_min = np.minimum(np.maximum(_bitlen(t_lo // s_hi), 1), lb + 1)
    g_max = np.minimum(_bitlen(t_hi // s_lo), lb + 1)
    bands = np.arange(lb + 2)
    can = (g_min[:, None] <= bands) & (bands <= g_max[:, None])
    pinned = g_min == g_max
    base = np.bincount(g_min[pinned], weights=s_lo[pinned], minlength=lb + 2)
    own = np.where(pinned, 0, s_lo)
    sure = np.where(can, 3 * lb * (base + own[:, None]) >= t_hi, True).all(axis=1)
    could = can & (3 * lb * (can * s_hi[:, None]).sum(axis=0) >= t_lo)
    return q, max(1, int(sure.sum())), int(could.any(axis=1).sum())


# ---------------------------------------------------------------------------
# Experiment-style variants: continuous acceptance, heuristic classification

class _ExpEngine:
    """Block engine for the experiment-style variants.

    Every D2-draw is classified (by increasing distance to running
    sample-mean centers, the query-saving order the experiments use), then
    offered to its own cluster's acceptance test, min(1, w(ref) / w(x)),
    building per-cluster pools of uniform samples as sampling proceeds.
    A cluster's reference is the (w, x)-least of its draws taken while it
    was live, each compared with the reference by the weights of the time
    it was ingested. A recovery that lowers the weights does not recompute
    it, so it can weigh more than the cluster's current minimum-weight
    sampled point.

    Draws come from a 2048-draw buffer refilled when it runs out, and
    `take` processes a block of them at once. A block ends at the buffer's
    end, at the caller's limit or, given a pick rule, right after the
    first draw at which the rule fires. It runs through the first draws
    of undiscovered labels: such a draw discovers its cluster, at one
    query per cluster discovered before it, and its acceptance coin is
    drawn and always accepts, since the draw is its cluster's reference.
    The block has one layout, its (draw x cluster) one-hot, which the
    coins, the pick rule and the costs all read down its rows; a pick cut
    keeps a prefix of it. Within a block every draw's query cost,
    reference point, acceptance coin and pool are those of the
    draw-at-a-time loop that `exp_engine_reference` in
    tests/test_recovery.py keeps, which this must match.
    """

    def __init__(self, run: RunState):
        self.run = run
        self.refs: dict[int, int] = {}
        self.accepted: dict[int, list[int]] = {}        # uniform pool per cluster
        # Running sample sum per discovered cluster, row cid - 1; the rows
        # past L are zero, and a block that discovers past the last row
        # doubles them.
        self.sums = np.zeros((8, run.X.dim))
        self._buf = np.empty(0, dtype=np.int64)
        self._pos = 0

    def take(self, limit: int, pick=None) -> tuple[np.ndarray, list[int]]:
        """Take and commit up to `limit` (>= 1) draws as one block.

        The block is the rest of the buffer, up to `limit` draws. Its
        draws are peeked once and their acceptance coins drawn; given a
        pick rule, the block is cut right after the first draw at which
        the rule fires, and only the draws kept are costed. A first draw
        of an undiscovered label gets the next id and keeps the peek's
        cost, one query per cluster discovered before it; until that draw
        its cluster has no center to be ranked against. Returns the
        cluster ids of the committed draws and, when pick fired after the
        last of them, the clusters it names. On BudgetExhausted the draws
        that fit are committed, and only their discoveries registered,
        then the exception propagates; FullyCovered comes from a buffer
        refill, before any draw.
        """
        run = self.run
        if self._pos >= len(self._buf):
            self._buf = _sampling.d2_sample_batch(run.sampler, run.rng, 2048)
            self._pos = 0
        xs = self._buf[self._pos:self._pos + limit]
        cl, peeked, new_firsts = _oracle.peek_classify(run.session, xs, run.reps)
        L = max(run.L, int(cl.max()))           # ids 1..L, discoveries included
        run.reserve(L)
        while L > len(self.sums):
            self.sums = np.vstack([self.sums, np.zeros_like(self.sums)])
        live = _live(run.centers, L)
        onehot = cl[:, None] == np.arange(1, L + 1)
        rng = run.rng
        saved = rng.bit_generator.state
        hit, coin_pos, wx, ref_w = self._coins(xs, cl, onehot, live)
        upto, ready = len(xs), []
        if pick is not None:
            upto, ready = _fire(run.counts[:L] + np.cumsum(onehot, axis=0),
                                self.pools(L) + np.cumsum(onehot & hit[:, None], axis=0),
                                live, pick, run.config.heavy_threshold)
        costs = self._costs(xs[:upto], cl[:upto], onehot[:upto], live)
        first = [p for p, _ in new_firsts if p < upto]
        costs[first] = peeked[first]
        try:
            _oracle.commit_classify(run.session, run.reps, costs, new_firsts, upto)
        except BudgetExhausted as e:
            upto = e.done
            raise
        finally:
            used = int(np.searchsorted(coin_pos, upto))
            if used < len(coin_pos):
                # Leave the generator where the coins of the committed
                # draws leave it.
                rng.bit_generator.state = saved
                rng.random(used)
            self._ingest(xs[:upto], cl[:upto], hit[:upto], live, wx[:upto], ref_w)
        return cl[:upto], ready

    def _coins(self, xs, cl, onehot, live):
        """Acceptance coins of a block: hit[t] for every draw, drawn in
        order for the draws of live clusters (coin_pos). The first draw of
        a cluster without a reference, a discovery among them, is its own
        reference, so its coin always accepts. The weights of the draws
        and of the reference points of the live clusters drawn are one
        pointwise read (SamplerState.weights_at), so the centers recovered
        since the last buffer refill are applied to these rows only; they
        are returned too, as wx per draw and ref_w per cluster (+inf
        without a reference), for `_ingest`."""
        run = self.run
        coin_pos = np.flatnonzero(live[cl - 1])
        cids = np.flatnonzero(live & onehot.any(axis=0)) + 1
        refs = np.array([self.refs.get(c, -1) for c in cids.tolist()], dtype=np.int64)
        has = refs >= 0
        w = run.sampler.weights_at(np.concatenate([xs, refs[has]]))
        wx = w[:len(xs)]
        ref_w = np.full(onehot.shape[1], np.inf)
        ref_w[cids[has] - 1] = w[len(xs):]
        # A draw's reference weight is the minimum, by the current weights,
        # of its cluster's reference point and the cluster's draws in the
        # block up to and including this one.
        wref = np.minimum.accumulate(np.vstack([ref_w, np.where(onehot, wx[:, None], np.inf)]),
                                     axis=0)[coin_pos + 1, cl[coin_pos] - 1]
        p = _sampling._accept_prob(1.0, wref, wx[coin_pos])
        hit = np.zeros(len(xs), dtype=bool)
        hit[coin_pos] = run.rng.random(len(coin_pos)) < p
        return hit, coin_pos, wx, ref_w

    def _costs(self, xs: np.ndarray, cl: np.ndarray, onehot: np.ndarray,
               live: np.ndarray) -> np.ndarray:
        """Queries of each draw: the rank of its cluster among the running
        centers before it, by squared distance, ties by id.

        Every draw starts from the centers before the block: running sum
        over max(count, 1), a recovered cluster's own center, and +inf for
        a cluster the block discovers (which distance_ranks treats as not
        existing). Only the columns of live clusters drawn in the block
        move: their running sums are np.cumsum down [sums; the draws'
        points where the one-hot is set, 0.0 elsewhere]. Adding 0.0 leaves
        a partial sum unchanged (none is -0.0, the sums starting at +0.0),
        so this adds in the order of sequential +=. A discovered cluster
        stays at +inf through its first draw; the rank computed for that
        draw is meaningless, and the caller replaces it.
        """
        run = self.run
        L0 = run.L
        m, L = onehot.shape
        P = run.X.points[xs]
        centers = np.full((L, P.shape[1]), np.inf)
        centers[:L0] = self.sums[:L0] / np.maximum(run.counts[:L0], 1)[:, None]
        for cid, c in run.centers.items():
            centers[cid - 1] = c
        mv = np.flatnonzero(live & onehot.any(axis=0))
        drawn = onehot[:, mv]
        sums = np.zeros((m + 1, len(mv), P.shape[1]))
        sums[0] = self.sums[mv]
        t, j = np.nonzero(drawn)
        sums[t + 1, j] = P[t]
        np.cumsum(sums, axis=0, out=sums)
        before = np.cumsum(drawn, axis=0) - drawn       # block draws before each row
        means = sums[:-1]
        means /= np.maximum(run.counts[mv] + before, 1)[:, :, None]
        means[(before == 0) & (mv >= L0)] = np.inf
        C = np.repeat(centers[None], m, axis=0)
        C[:, mv] = means
        C -= P[:, None, :]
        return _oracle.distance_ranks(np.einsum("mld,mld->ml", C, C), cl)

    def _ingest(self, xs, cl, hit, live, wx, ref_w):
        """Commit draws: counts, owners and sums, then refs and pools. The
        references are ranked by the weights `_coins` read, wx of the
        draws and ref_w of the old references; no center is added in
        between."""
        run = self.run
        self._pos += len(xs)
        run.ingest(xs, cl)
        np.add.at(self.sums, cl - 1, run.X.points[xs])
        mine = live[cl - 1]
        c, x, w = cl[mine], xs[mine], wx[mine]
        old = [k for k in set(c.tolist()) if k in self.refs]
        if old:
            c = np.append(c, old)
            x = np.append(x, [self.refs[k] for k in old])
            w = np.append(w, ref_w[np.array(old) - 1])
        order = np.lexsort((x, w, c))
        _, first = np.unique(c[order], return_index=True)
        for k, v in zip(c[order[first]].tolist(), x[order[first]].tolist()):
            self.refs[k] = v
        for k, v in zip(cl[hit].tolist(), xs[hit].tolist()):
            self.accepted.setdefault(k, []).append(v)

    def pools(self, L: int) -> np.ndarray:
        """Uniform pool size per cluster id 1..L."""
        return np.array([len(self.accepted.get(c, ())) for c in range(1, L + 1)],
                        dtype=np.int64)


def _phase1_probe_engine(run: RunState, engine: _ExpEngine) -> bool:
    """Per-round termination test: draw the full floor(T1)+1 probe samples
    and report whether any classified outside the recovered set. Q starts
    empty each round, so carried samples do not satisfy the probe."""
    left = math.floor(threshold_t1(run.config.eps, run.k)) + 1
    seen_new = False
    while left:
        try:
            cl, _ = engine.take(run.room(left))
        except FullyCovered:
            return seen_new
        seen_new = seen_new or bool(_live(run.centers, run.L)[cl - 1].any())
        left -= len(cl)
    return seen_new


def _experiment_rounds(run: RunState, pick):
    """Rounds of the experiment-style variants: probe, draw until the pick
    rule names the clusters to recover, recover each from the first h+1
    samples of its uniform pool. The pick-loop blocks start at 32 draws
    and double, since the rule often fires within a few dozen draws."""
    engine = _ExpEngine(run)
    h = run.config.heavy_threshold
    while True:
        log = run.new_round()
        if not run.config.reuse_samples:
            engine.refs.clear()
            engine.sums[:] = 0.0
            engine.accepted = {cid: pool for cid, pool in engine.accepted.items()
                               if cid in run.centers}
        if not _phase1_probe_engine(run, engine):
            return
        L = run.L
        _, ready = _fire(run.counts[None, :L], engine.pools(L)[None],
                         _live(run.centers, L), pick, h)
        size = 32
        while not ready:
            _, ready = engine.take(run.room(size), pick)
            size = min(2 * size, 2048)
        for j in ready:
            pool = engine.accepted[j][:h + 1]
            run.commit_recovery(j, run.X.points[np.asarray(pool)].mean(axis=0))
            log["recovered"].append(j)
        run.end_round(log)
        run.check_target()


# Pick rules. Each maps per-position state, counts[t, c] and pools[t, c]
# (sample count and uniform pool size of cluster c + 1 after position t)
# and live[c] (not recovered), to ready[t, c]: whether the
# rule, evaluated after position t, recovers cluster c + 1. A row with no
# ready cluster means the rule does not fire there. A live cluster is
# heavy when its pool holds strictly more than h samples. A pool is drawn
# from its own cluster's samples, so a heavy cluster is in Q (the live
# clusters with samples), and a live cluster without samples adds 0 to
# the mass of Q.

def _fire(counts, pools, live, pick, h) -> tuple[int, list[int]]:
    """Evaluate pick on state rows: the rows up to and including the first
    at which it fires, and the cluster ids it names there; all the rows
    and no id when it fires at none."""
    fire = pick(counts, pools, live, h)
    rows = np.flatnonzero(fire.any(axis=1))
    if not len(rows):
        return len(fire), []
    return int(rows[0]) + 1, (np.flatnonzero(fire[rows[0]]) + 1).tolist()


def _pick_first(counts, pools, live, h) -> np.ndarray:
    """The heavy cluster of lowest index."""
    heavy = live & (pools > h)
    return heavy & (np.cumsum(heavy, axis=1) == 1)


def _pick_heavy_mass(counts, pools, live, h) -> np.ndarray:
    """All heavy clusters, once they hold over half the raw sample mass of Q."""
    heavy = live & (pools > h)
    fires = 2 * (counts * heavy).sum(axis=1) > (counts * live).sum(axis=1)
    return heavy & fires[:, None]


def run_basic_simplified(X: PointSet, session: OracleSession, config: RecoveryConfig,
                         target: int | None = None) -> RecoveryResult:
    """Experiment-style Basic: one cluster per round, recovered as soon as
    its uniform (acceptance-thinned) pool reaches heavy_threshold. Every
    round pays the full Phase-1 probe before sampling toward a recovery."""
    run = RunState(X, session, config, target)
    return run.execute("basic_simplified", _experiment_rounds, _pick_first)


def run_improved_simplified(X: PointSet, session: OracleSession, config: RecoveryConfig,
                            target: int | None = None) -> RecoveryResult:
    """Experiment-style Improved: sample until over half the unrecovered
    sample mass sits in heavy clusters, then recover all of them at once."""
    run = RunState(X, session, config, target)
    return run.execute("improved_simplified", _experiment_rounds, _pick_heavy_mass)


# ---------------------------------------------------------------------------
# Uniform baseline

def run_uniform(X: PointSet, session: OracleSession, config: RecoveryConfig,
                target: int | None = None) -> RecoveryResult:
    """Uniform draws with replacement; a cluster is recovered once it holds
    strictly more than heavy_threshold samples. Runs until budget, target
    or the draw cap. A recovery queues its center on the sampler
    (sampling.add_center), which no uniform draw reads."""
    if session.budget is None and target is None:
        raise ValueError("run_uniform needs a query budget or a recovery target")
    run = RunState(X, session, config, target)
    return run.execute("uniform", _uniform_draws)


def _uniform_draws(run: RunState):
    """Draw, classify and commit uniform blocks of 4096 draws.

    A draw is a recovery event when it is its cluster's (h+1)-th sample:
    its committed draws before the block (run.counts) plus its earlier
    draws in the block, ranked by one stable argsort. A block with a
    target is committed through its (target - k)-th event. The center is
    the mean of the cluster's first h+1 draws, the only draws kept; the
    run never reads the centers it queues.
    """
    h = run.config.heavy_threshold
    n = len(run.X)
    kept_idx = kept_cl = np.zeros(0, dtype=np.int64)     # first h+1 draws per cluster
    while True:
        idx = run.rng.integers(0, n, size=run.room(4096))
        cl, costs, new_firsts = _oracle.peek_classify(run.session, idx, run.reps)
        run.reserve(int(cl.max()))
        order = np.argsort(cl, kind="stable")
        ranked = cl[order]
        seen = np.empty_like(cl)            # the cluster's samples before this draw
        seen[order] = np.arange(len(cl)) - np.searchsorted(ranked, ranked)
        seen += run.counts[cl - 1]
        events = np.flatnonzero(seen == h)
        cut = len(cl)
        if run.target is not None and len(events) >= run.target - run.k:
            cut = int(events[run.target - run.k - 1]) + 1
        try:
            run.commit_peeked(idx, cl, costs, new_firsts, cut)
        except BudgetExhausted as e:
            cut = e.done
            raise
        finally:
            # Recover what the committed draws complete, budget or not.
            keep = seen[:cut] <= h
            kept_idx = np.concatenate([kept_idx, idx[:cut][keep]])
            kept_cl = np.concatenate([kept_cl, cl[:cut][keep]])
            for cid in cl[events[events < cut]].tolist():
                run.commit_recovery(cid, run.X.points[kept_idx[kept_cl == cid]].mean(axis=0))
            run.round = run.k  # one recovery per "round" for reporting
        run.check_target()
