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
registration and stopping points match a draw-at-a-time execution exactly;
tests/test_recovery.py::TestPhase2Reference checks the Improved Phase 2
against its draw-at-a-time reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, asdict

import numpy as np

from . import oracle as _oracle
from . import sampling as _sampling
from .geometry import PointSet, centroid_error
from .oracle import BudgetExhausted, OracleSession, Representatives
from .sampling import FullyCovered, QuotaUnreachable, SamplerState

_FILL_BATCH = 1 << 21
_PHASE_CHUNK = 1 << 13


def _draw_pvals(sampler: SamplerState) -> np.ndarray:
    """D2 draw probabilities; uniform before any center exists."""
    if not sampler.has_centers:
        return np.full(sampler.n_points, 1.0 / sampler.n_points)
    if sampler.total <= 0.0:
        raise FullyCovered("all points coincide with the current centers")
    return sampler.weights / sampler.total


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


def improved_phase2_threshold(eps: float, k: int, w: int, q: int) -> float:
    return 1600.0 * w * log2p(q) * math.log(10.0 * (k + q)) / eps


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


class _RunAborted(RuntimeError):
    """Internal: no recoverable cluster remains although Q is non-empty."""


class _DrawCap(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# Shared run state

class RunState:
    """Mutable state of one recovery run over one dataset and session."""

    def __init__(self, X: PointSet, session: OracleSession, config: RecoveryConfig,
                 target: int | None = None):
        if len(X) == 0:
            raise ValueError("recovery needs a non-empty point set")
        if len(X) != session.n_points:
            raise ValueError("point set and oracle session sizes differ")
        self.X = X
        self.session = session
        self.config = config
        self.target = target
        self.rng = np.random.default_rng(config.seed)
        self.sampler = SamplerState(X.points)
        self.reps = Representatives()
        self.I: list[int] = []
        self.recovered: set[int] = set()
        self.starved: set[int] = set()
        self.centers: dict[int, np.ndarray] = {}
        self.counts = np.zeros(8, dtype=np.int64)       # per discovered id, 1-based
        self.masks: dict[int, np.ndarray] = {}          # sampled-point bitmaps
        self.accepted: dict[int, list[int]] = {}        # uniform pools per cluster
        self.s_total = 0
        self.draws = 0
        self.round = 0
        self.logs: list[dict] = []
        # Running sample sums for heuristic-classification centers; theory
        # variants never consult them and switch the upkeep off.
        self.track_sums = True
        self.sums = np.zeros((8, X.dim), dtype=np.float64)

    # -- growth helpers -----------------------------------------------------

    def _ensure_capacity(self, cid: int):
        while cid > len(self.counts):
            self.counts = np.concatenate([self.counts, np.zeros(len(self.counts), dtype=np.int64)])
            self.sums = np.vstack([self.sums, np.zeros_like(self.sums)])

    def mask_of(self, cid: int) -> np.ndarray:
        m = self.masks.get(cid)
        if m is None:
            m = np.zeros(len(self.X), dtype=bool)
            self.masks[cid] = m
        return m

    @property
    def k(self) -> int:
        return len(self.I)

    @property
    def L(self) -> int:
        return self.reps.discovered_count

    def Q(self) -> list[int]:
        """Sampled-but-unrecovered clusters, starved ones excluded."""
        out = []
        for cid in range(1, self.L + 1):
            if cid in self.recovered or cid in self.starved:
                continue
            if self.counts[cid - 1] > 0:
                out.append(cid)
        return out

    def reset_round_state(self):
        """Theory semantics without sample reuse: Q, S and pools start empty."""
        self.counts[:] = 0
        self.sums[:] = 0.0
        self.masks.clear()
        self.accepted = {cid: pool for cid, pool in self.accepted.items()
                         if cid in self.recovered}
        self.s_total = 0

    # -- sample ingestion ---------------------------------------------------

    def ingest(self, idx: np.ndarray, cl: np.ndarray):
        """Record committed classified draws into counts, sums and bitmaps."""
        if len(idx) == 0:
            return
        self._ensure_capacity(int(cl.max()))
        self.counts += np.bincount(cl - 1, minlength=len(self.counts))
        if self.track_sums:
            np.add.at(self.sums, cl - 1, self.X.points[idx])
        for cid in np.unique(cl):
            self.mask_of(int(cid))[idx[cl == cid]] = True
        self.s_total += len(idx)
        self.draws += len(idx)

    def ingest_one(self, x: int, cid: int):
        self._ensure_capacity(cid)
        self.counts[cid - 1] += 1
        self.sums[cid - 1] += self.X.points[x]
        self.mask_of(cid)[x] = True
        self.s_total += 1
        self.draws += 1

    def ingest_counts(self, sampled: np.ndarray, cl: np.ndarray, mult: np.ndarray):
        """Record draws given as (distinct point, cluster, multiplicity)."""
        self._ensure_capacity(int(cl.max()))
        binc = np.bincount(cl - 1, weights=mult, minlength=len(self.counts))
        self.counts += binc.astype(np.int64)
        if self.track_sums:
            np.add.at(self.sums, cl - 1, self.X.points[sampled] * mult[:, None])
        for cid in np.unique(cl):
            self.mask_of(int(cid))[sampled[cl == cid]] = True
        total = int(mult.sum())
        self.s_total += total
        self.draws += total

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

    def _ordered_fill_chunk(self, b: int):
        idx = _sampling.d2_sample_batch(self.sampler, self.rng, b)
        cl, costs, new_firsts = _oracle.peek_classify(self.session, idx, self.reps)
        self.commit_peeked(idx, cl, costs, new_firsts, b)

    def draw_classified_fill(self, n: int):
        """Draw n D2-samples, classify in discovery order, commit exactly.

        When no budget is active and a chunk discovers nothing new, the
        chunk is drawn as multinomial counts (draw order is irrelevant to
        counts, ledger sums and bitmaps); chunks with discoveries, and all
        budgeted runs, go through the draw-ordered path. If n would pass
        the draw cap, only the draws up to the cap are made, then _DrawCap
        is raised.
        """
        room = self.config.draw_cap - self.draws
        remaining = min(n, room)
        session = self.session
        truth = session.truth
        while remaining > 0:
            b = int(min(remaining, _FILL_BATCH))
            if session.budget is not None:
                self._ordered_fill_chunk(b)
                remaining -= b
                continue
            counts = self.rng.multinomial(b, _draw_pvals(self.sampler))
            sampled = np.flatnonzero(counts)
            rank_arr = self.reps.rank_of_label(session)
            cl = rank_arr[truth[sampled]]
            if (cl == 0).any():
                # Undiscovered cluster present: replay this chunk draw-ordered
                # so registration and per-draw costs stay sequential-exact.
                self._ordered_fill_chunk(b)
                remaining -= b
                continue
            mult = counts[sampled].astype(np.int64)
            session.charge(int((mult * cl).sum()))
            self.ingest_counts(sampled, cl, mult)
            remaining -= b
        if n > room:
            raise _DrawCap()

    # -- recovery commit ----------------------------------------------------

    def commit_recovery(self, cid: int, center: np.ndarray):
        self.centers[cid] = np.asarray(center, dtype=np.float64)
        _sampling.add_center(self.sampler, center)
        self.I.append(cid)
        self.recovered.add(cid)

    def check_target(self):
        if self.target is not None and self.k >= self.target:
            raise TargetReached()

    def check_cap(self):
        """Raise _DrawCap before a draw that would pass the draw cap."""
        if self.draws >= self.config.draw_cap:
            raise _DrawCap()

    def reference_for(self, cid: int) -> int:
        idxs = np.flatnonzero(self.mask_of(cid))
        if len(idxs) == 0:
            raise ValueError(f"no sampled points recorded for cluster {cid}")
        return int(idxs[np.argmin(self.sampler.weights[idxs])])

    def rej_samp(self, W, refs: dict, T, **kwargs) -> tuple[dict, list[int]]:
        """sampling.rej_samp within the draws left under the cap.

        Returns (pools, unmet). Unmet quotas mean the cap bound; the round
        records what it completed, then calls stop_if_capped.
        """
        try:
            acc, draws, _ = _sampling.rej_samp(
                self.sampler, self.session, W=W, refs=refs, T=T,
                eps=self.config.eps, rng=self.rng,
                draw_cap=self.config.draw_cap - self.draws, **kwargs)
        except QuotaUnreachable as e:
            self.draws += e.draws
            return e.accepted, list(e.unmet)
        self.draws += draws
        return acc, []

    def stop_if_capped(self, unmet: list[int]):
        """After a round's recoveries: a target reached still wins, then a
        cap that left quotas unmet stops the run."""
        if unmet:
            self.check_target()
            raise _DrawCap()

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
        except _RunAborted:
            stop = "terminated"
        return self.finalize(algorithm, stop)

    # -- finalization ---------------------------------------------------------

    def finalize(self, algorithm: str, stop_reason: str) -> RecoveryResult:
        res = RecoveryResult(algorithm=algorithm, seed=self.config.seed)
        res.I = list(self.I)
        res.centers = {cid: self.centers[cid].tolist() for cid in self.I}
        res.reps = {cid: int(self.reps.rep_point(cid)) for cid in range(1, self.L + 1)}
        res.K_recovered = self.k
        res.L_discovered = self.L
        res.queries_total = self.session.ledger
        res.samples_total = self.draws
        res.rounds_total = self.round
        res.per_round = self.logs
        res.stop_reason = stop_reason
        res.starved = sorted(self.starved)
        res.incomplete = bool(self.starved) or stop_reason == "draw_cap"
        # Single representatives are only trusted under the exact oracle;
        # representative sets are read by majority.
        if self.X.labels is not None and (self.session.exact or self.reps.noisy):
            for cid in self.I:
                labs, n = np.unique(self.X.labels[np.asarray(self.reps.members(cid))],
                                    return_counts=True)
                lab = int(labs[np.argmax(n)])
                res.truth_labels[cid] = lab
                res.per_cluster_errors[cid] = centroid_error(
                    self.X.cluster_points(lab), self.centers[cid])
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
        run.check_cap()
        try:
            idx = _sampling.d2_sample_batch(run.sampler, run.rng, 1)
        except FullyCovered:
            return False
        cl = _oracle.classify_batch(run.session, idx, run.reps)
        run.ingest(idx, cl)
        if int(cl[0]) not in run.recovered and int(cl[0]) not in run.starved:
            return True
    return bool(run.Q())


# ---------------------------------------------------------------------------
# The Basic algorithm (theory-literal)

def run_basic(X: PointSet, session: OracleSession, config: RecoveryConfig,
              target: int | None = None) -> RecoveryResult:
    """One cluster per round: probe, find the largest new cluster, pick a
    reference point, rejection-sample its quota, recover its centroid."""
    run = RunState(X, session, config, target)
    run.track_sums = False
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
    # newly discovered cluster (ties to the lowest index).
    while True:
        q = len(run.Q())
        if q == 0:
            raise _RunAborted()
        t = basic_phase2_threshold(eps, k, q)
        gap = math.floor(t) + 1 - run.s_total
        if gap <= 0:
            break
        run.draw_classified_fill(gap)
    Q = run.Q()
    if not Q:
        raise _RunAborted()
    counts = {cid: int(run.counts[cid - 1]) for cid in Q}
    j = min(Q, key=lambda c: (-counts[c], c))
    q_frozen = len(Q)
    # Phase 3: top up to T2, then choose the minimum-weight sampled point of j.
    t2 = basic_t2(eps, k, q_frozen)
    gap = math.floor(t2) + 1 - run.s_total
    if gap > 0:
        run.draw_classified_fill(gap)
    ref = run.reference_for(j)
    # Phase 4: rejection-sample the quota and recover the centroid.
    t3 = max(1, math.ceil(basic_t3(eps, run.round)))
    pool = run.accepted.get(j, []) if run.config.reuse_samples else []
    acc, unmet = run.rej_samp([j], {j: ref}, {j: t3}, reps=run.reps,
                              preaccepted={j: pool})
    if unmet:
        run.starved.add(j)
        log["skipped"].append(j)
        run.stop_if_capped(unmet)
    run.accepted[j] = acc[j]
    run.commit_recovery(j, run.X.points[np.asarray(acc[j])].mean(axis=0))
    log["recovered"].append(j)
    run.check_target()


# ---------------------------------------------------------------------------
# The Improved algorithm (theory-literal, bands and K-doubling)

def run_improved(X: PointSet, session: OracleSession, config: RecoveryConfig,
                 target: int | None = None) -> RecoveryResult:
    """Band-splitting algorithm with K-doubling; recovers whole heavy bands."""
    run = RunState(X, session, config, target)
    run.track_sums = False
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
    if not W:
        raise _RunAborted()
    # Phase 3: top up to T2, then pick each cluster's reference point.
    t2 = improved_t2(eps, k, q_frozen, len(W))
    gap = math.floor(t2) + 1 - run.s_total
    if gap > 0:
        run.draw_classified_fill(gap)
    refs = {j: run.reference_for(j) for j in W}
    # Phase 4: rejection-sample every W quota, recover the batch.
    quota = max(1, math.ceil(improved_t3(eps, k_guess)))
    pools = {j: (run.accepted.get(j, []) if run.config.reuse_samples else [])
             for j in W}
    acc, unmet = run.rej_samp(W, refs, {j: quota for j in W}, reps=run.reps,
                              preaccepted=pools)
    for j in W:
        pool = acc.get(j, [])
        run.accepted[j] = pool
        if j in unmet:
            run.starved.add(j)
            log["skipped"].append(j)
            continue
        run.commit_recovery(j, run.X.points[np.asarray(pool)].mean(axis=0))
        log["recovered"].append(j)
    run.stop_if_capped(unmet)
    return bool(run.Q())


def _improved_phase2(run: RunState) -> tuple[list[int], int]:
    """Sample until the band stop rule holds; return (W, q) at that draw.

    The rule is checked as if after every single draw: stop at the first
    sample where |S| >= 1600 |W| log|Q| ln(10(k+|Q|)) / eps, W being the
    clusters in heavy bands of the unrecovered sample counts.

    Draws come in chunks of _PHASE_CHUNK, each peek-classified and split
    into segments at the first draw of every undiscovered label; q can then
    change inside a segment only when a discovered but unsampled cluster is
    drawn. Per segment (`_phase2_stop`):

    * Interval fast path: counts only grow, and a band index bitlen(T // s)
      rises with T and falls with s, so the counts after the segment's
      first and last draws bound every band and heavy flag in between
      (`_constant_w`). When they pin q and |W|, the stop is the first
      position with |S| >= f(q) |W|.
    * Exact fallback: otherwise the (cluster x position) cumulative counts
      are built and `_heavy_rows` evaluates the rule at every position.

    Only the prefix through the stop draw is charged, registered and
    ingested. The budget stops the run on the draw where a draw-at-a-time
    run would, since that run checks the budget before the stop rule; the
    draw cap likewise commits the draws up to the cap, then raises
    _DrawCap. TestPhase2Reference in tests/test_recovery.py holds the
    draw-at-a-time reference this must match.
    """
    session = run.session
    while True:
        run.check_cap()
        idx = _sampling.d2_sample_batch(run.sampler, run.rng, _PHASE_CHUNK)
        cl, costs, new_firsts = _oracle.peek_classify(session, idx, run.reps)
        stop = _phase2_stop(run, cl, new_firsts)
        upto = len(idx) if stop is None else stop + 1
        cut = min(upto, run.config.draw_cap - run.draws)
        run.commit_peeked(idx, cl, costs, new_firsts, cut)
        if cut < upto:
            raise _DrawCap()
        if stop is not None:
            break
    Q = np.asarray(run.Q(), dtype=np.int64)
    counts = run.counts[Q - 1]
    _, heavy = _heavy_rows(counts[:, None], np.array([counts.sum()]))
    return Q[heavy[:, 0]].tolist(), len(Q)


def _phase2_stop(run: RunState, cl: np.ndarray, new_firsts) -> int | None:
    """First position of a peeked chunk at which the Phase-2 rule stops.

    Segments start at position 0 and at each first draw of an undiscovered
    label; see `_improved_phase2` for the fast path and the fallback.
    """
    eps, k = run.config.eps, run.k
    scale = 1600.0 / eps

    def factor(q: int) -> float:
        return scale * log2p(q) * math.log(10.0 * (k + q))

    m = run.L + len(new_firsts)
    live = np.ones(m + 1, dtype=bool)
    live[0] = False
    live[list(run.recovered | run.starved)] = False
    counts = np.zeros(m + 1, dtype=np.int64)      # live counts before a segment
    counts[1:run.L + 1] = run.counts[:run.L]
    counts[~live] = 0
    inc = live[cl]
    totals = int(counts.sum()) + np.cumsum(inc)
    s_before = run.s_total
    cuts = [p for p, _ in new_firsts if p > 0]
    for a, b in zip([0] + cuts, cuts + [len(cl)]):
        seg = cl[a:b]
        hi = counts + np.bincount(seg[inc[a:b]], minlength=m + 1)
        lo = counts.copy()
        if inc[a]:
            lo[cl[a]] += 1
        qw = _constant_w(lo, hi, int(totals[a]), int(totals[b - 1]))
        if qw is not None:
            q, w = qw
            if w:
                j = max(a, math.ceil(factor(q) * w) - s_before - 1)
                if j < b:
                    return j
        else:
            ids = np.flatnonzero(hi)
            C = counts[ids, None] + np.cumsum(seg == ids[:, None], axis=1)
            q, heavy = _heavy_rows(C, totals[a:b])
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


def _constant_w(lo: np.ndarray, hi: np.ndarray, t_lo: int, t_hi: int):
    """(q, |W|) shared by every position between two count states, or None.

    lo and hi are the counts after the first and the last position of a
    range, t_lo and t_hi their totals. Counts only grow in between, and
    T // s rises with T and falls with s, so a band index lies between
    bitlen(t_lo // hi) and bitlen(t_hi // lo) and a band sum between its
    lo and hi sums. When these bounds pin q, every band and every heavy
    flag, |W| is constant over the range; otherwise the answer is None.
    """
    present = lo > 0
    q = int(present.sum())
    if q != int(np.count_nonzero(hi)):
        return None
    if q == 0:
        return 0, 0
    s_lo, s_hi = lo[present], hi[present]
    ell = _bitlen(t_lo // s_hi)
    if not np.array_equal(ell, _bitlen(t_hi // s_lo)):
        return None
    lb = _l_bands(q)
    g = np.minimum(ell, lb + 1)
    heavy = 3 * lb * np.bincount(g, weights=s_lo) >= t_hi
    light = 3 * lb * np.bincount(g, weights=s_hi) < t_lo
    if not (heavy | light).all():
        return None
    return q, int(heavy[g].sum())


# ---------------------------------------------------------------------------
# Experiment-style variants: continuous acceptance, heuristic classification

class _ExpEngine:
    """Draw-at-a-time engine for the experiment-style variants.

    Every D2-draw is classified (by increasing distance to running
    sample-mean centers, the query-saving order the experiments use), then
    offered to its own cluster's acceptance test, min(1, w(ref) / w(x))
    against the cluster's current minimum-weight sampled point, building
    per-cluster pools of uniform samples as sampling proceeds.
    """

    def __init__(self, run: RunState):
        self.run = run
        self.refs: dict[int, int] = {}
        self._buf = np.empty(0, dtype=np.int64)
        self._pos = 0

    def _centers_matrix(self) -> np.ndarray:
        run = self.run
        L = run.L
        counts = np.maximum(run.counts[:L], 1)
        centers = run.sums[:L] / counts[:, None]
        for cid in run.recovered:
            centers[cid - 1] = run.centers[cid]
        return centers

    def step(self) -> int:
        """One draw: classify, record, maybe accept. Returns the cluster id."""
        run = self.run
        session = run.session
        if self._pos >= len(self._buf):
            self._buf = _sampling.d2_sample_batch(run.sampler, run.rng, 2048)
            self._pos = 0
        x = int(self._buf[self._pos])
        self._pos += 1
        lab = int(session.truth[x])
        L = run.L
        rank_arr = run.reps.rank_of_label(session)
        true_cid = int(rank_arr[lab]) if lab < len(rank_arr) else 0
        if L == 0:
            cid = run.reps.add_cluster(x)
        elif true_cid == 0:
            session.charge(L)
            cid = run.reps.add_cluster(x)
        else:
            # Query order: increasing distance to running centers, ties by id.
            centers = self._centers_matrix()
            diff = centers - run.X.points[x]
            d2 = np.einsum("ld,ld->l", diff, diff)
            order = np.argsort(d2, kind="stable")
            session.charge(int(np.nonzero(order == true_cid - 1)[0][0]) + 1)
            cid = true_cid
        run.ingest_one(x, cid)
        if cid not in run.recovered and cid not in run.starved:
            ref = self.refs.get(cid)
            w = run.sampler.weights
            if ref is None or w[x] < w[ref] or (w[x] == w[ref] and x < ref):
                self.refs[cid] = ref = x
            wx = float(w[x])
            p = 1.0 if wx <= 0.0 else min(1.0, float(w[ref]) / wx)
            if run.rng.random() < p:
                run.accepted.setdefault(cid, []).append(x)
        return cid


def _phase1_probe_engine(run: RunState, engine: _ExpEngine) -> bool:
    """Per-round termination test: draw the full floor(T1)+1 probe samples
    and report whether any classified outside the recovered set. Q starts
    empty each round, so carried samples do not satisfy the probe."""
    t1 = threshold_t1(run.config.eps, run.k)
    seen_new = False
    for _ in range(math.floor(t1) + 1):
        run.check_cap()
        try:
            cid = engine.step()
        except FullyCovered:
            return seen_new
        if cid not in run.recovered and cid not in run.starved:
            seen_new = True
    return seen_new


def _experiment_rounds(run: RunState, pick):
    """Rounds of the experiment-style variants: probe, draw until
    pick(run) names the clusters to recover, recover each from the first
    h+1 samples of its uniform pool."""
    engine = _ExpEngine(run)
    h = run.config.heavy_threshold
    while True:
        log = run.new_round()
        if not run.config.reuse_samples:
            engine.refs.clear()
        if not _phase1_probe_engine(run, engine):
            return
        while not (ready := pick(run)):
            run.check_cap()
            engine.step()
        for j in ready:
            pool = run.accepted[j][:h + 1]
            run.commit_recovery(j, run.X.points[np.asarray(pool)].mean(axis=0))
            log["recovered"].append(j)
        run.end_round(log)
        run.check_target()


def _heavy(run: RunState, Q: list[int]) -> list[int]:
    """Clusters of Q, in index order, whose uniform pool holds strictly
    more than heavy_threshold samples."""
    h = run.config.heavy_threshold
    return [cid for cid in Q if len(run.accepted.get(cid, ())) > h]


def _pick_first(run: RunState) -> list[int]:
    return _heavy(run, run.Q())[:1]


def _pick_heavy_mass(run: RunState) -> list[int]:
    """All heavy clusters, once they hold over half the raw sample mass of Q."""
    Q = run.Q()
    heavy = _heavy(run, Q)
    if heavy:
        cnt = run.counts
        hsum = int(sum(cnt[c - 1] for c in heavy))
        tot = int(sum(cnt[c - 1] for c in Q))
        if 2 * hsum > tot:
            return heavy
    return []


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
    or the draw cap."""
    if session.budget is None and target is None:
        raise ValueError("run_uniform needs a query budget or a recovery target")
    return RunState(X, session, config, target).execute("uniform", _uniform_draws)


def _uniform_draws(run: RunState):
    h = run.config.heavy_threshold
    n = len(run.X)
    pending: dict[int, list[int]] = {}
    while True:
        run.check_cap()
        B = int(min(4096, run.config.draw_cap - run.draws))
        idx = run.rng.integers(0, n, size=B)
        cl, costs, new_firsts = _oracle.peek_classify(run.session, idx, run.reps)
        cut, events = _uniform_scan(run, cl, h, pending)
        try:
            run.commit_peeked(idx, cl, costs, new_firsts, cut)
        except BudgetExhausted as e:
            cut = e.done
            raise
        finally:
            # Recover what the committed draws complete, budget or not.
            for p in range(cut):
                pending.setdefault(int(cl[p]), []).append(int(idx[p]))
            for p, cid in events:
                if p < cut:
                    first = run.X.points[np.asarray(pending[cid][:h + 1])]
                    run.commit_recovery(cid, first.mean(axis=0))
            run.round = run.k  # one recovery per "round" for reporting
        run.check_target()


def _uniform_scan(run: RunState, cl: np.ndarray, h: int,
                  pending: dict[int, list[int]]):
    """Walk a peeked batch for recovery events, up to the target.

    Returns (cut, events): the draws to commit, which is the whole batch or
    the prefix through the draw that reaches the target, and the recovery
    events [(position, cid)] inside that prefix.
    """
    k = run.k
    target = run.target
    events: list[tuple[int, int]] = []
    recovered = set(run.recovered)
    counts: dict[int, int] = {}
    for p, cid in enumerate(cl.tolist()):
        if cid not in recovered:
            counts[cid] = counts.get(cid, 0) + 1
            if len(pending.get(cid, ())) + counts[cid] > h:
                events.append((p, cid))
                recovered.add(cid)
                k += 1
                if target is not None and k >= target:
                    return p + 1, events
    return len(cl), events
