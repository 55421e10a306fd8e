"""Recovery with a noisy same-cluster oracle (error probability p < 1/2).

Classification decisions go through majority votes over representative sets
Z_i. The published pipeline delegates sample grouping to a stochastic-
block-model recovery routine; find_clusters below substitutes a greedy
majority-linkage pass that preserves the interface (large groups of the
sample survive, small ones are dropped).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import sampling as _sampling
from .geometry import PointSet, centroid_error
from .oracle import BudgetExhausted, OracleSession, Representatives, check_cluster
from .recovery import (
    RecoveryResult,
    TargetReached,
    _DrawCap,
    improved_t3,
    split_bands,
    threshold_t1,
)
from .sampling import QuotaUnreachable, SamplerState


@dataclass
class NoisyConfig:
    p: float = 0.1
    rep_size_cap: int = 8        # the C of the C*K/eps representative sizing
    retain_cap: int = 8          # the C4 of the post-round retention rule
    c2: float = 16.0             # Phase-2 sample-count constant
    min_cluster_frac: float = 1.0

    def __post_init__(self):
        if not (0.0 <= self.p < 0.5):
            raise ValueError(f"oracle error probability must be < 0.5, got {self.p}")
        if min(self.rep_size_cap, self.retain_cap) < 1:
            raise ValueError("representative caps must be >= 1")


def group_size_cutoff(T: int, min_cluster_frac: float) -> float:
    """Groups smaller than min_cluster_frac * sqrt(T) * log2(T) are dropped."""
    if T <= 1:
        return 0.0
    return min_cluster_frac * math.sqrt(T) * math.log2(T)


def find_clusters(samples, session: OracleSession, config: NoisyConfig):
    """Greedy majority-linkage grouping of sampled point indices.

    Each sample joins the first existing group in which a strict majority
    of up to min(|Z|, 2 * rep_size_cap) distinct queried members answers
    "same"; otherwise it opens a new group. Groups below the size cutoff
    are dropped. Returns (surviving group ids 1..m, {id: member list}).
    Member lists keep duplicates (multiset sizes feed the frequency
    estimates); queries only ever go to distinct members.
    """
    cap = 2 * config.rep_size_cap
    groups: list[list[int]] = []
    distinct: list[dict] = []      # insertion-ordered distinct members per group
    for x in samples:
        x = int(x)
        placed = False
        for g, dd in zip(groups, distinct):
            queried = list(dd)[:cap]
            agree = sum(1 for z in queried if session.same_cluster(x, z))
            if 2 * agree > len(queried):
                g.append(x)
                dd.setdefault(x, None)
                placed = True
                break
        if not placed:
            groups.append([x])
            distinct.append({x: None})
    cutoff = group_size_cutoff(len(list(samples)), config.min_cluster_frac)
    survivors = [g for g in groups if len(g) >= cutoff]
    Z = {i + 1: g for i, g in enumerate(survivors)}
    return list(Z), Z


def _capped_reps(members, cap: int) -> list[int]:
    out: dict[int, None] = {}
    for x in members:
        if x not in out:
            out[x] = None
            if len(out) >= cap:
                break
    return list(out)


def run_noisy(X: PointSet, session: OracleSession, config: NoisyConfig,
              eps: float, *, seed: int = 0, draw_cap: int = 10 ** 8,
              target: int | None = None) -> RecoveryResult:
    """Noisy-oracle recovery: K-doubling rounds with majority-vote
    classification, greedy grouping, band selection and rejection sampling."""
    if not (0.0 < eps <= 1.0):
        raise ValueError("eps must be in (0, 1]")
    if abs(session.error_prob - config.p) > 1e-12:
        raise ValueError("session error probability differs from config.p")
    rng = np.random.default_rng(seed)
    sampler = SamplerState(X.points)
    recovered_reps = Representatives(noisy=True)
    I: list[int] = []
    centers: dict[int, np.ndarray] = {}
    logs: list[dict] = []
    draws = 0
    rounds = 0
    stop = "terminated"
    incomplete = False

    def rep_cap(k_guess: int) -> int:
        return max(1, math.ceil(config.rep_size_cap * k_guess / eps))

    def classify_recovered(x: int) -> int | None:
        return check_cluster(session, x, recovered_reps)

    try:
        k_guess = 1
        while True:
            saw_new = True
            while True:
                rounds += 1
                log = {"round": rounds, "K_guess": k_guess, "recovered": [],
                       "skipped": []}
                logs.append(log)
                k = len(I)
                # Phase 1: D2-sample floor(T1)+1 points, stop at the first
                # that matches no recovered cluster.
                n1 = math.floor(threshold_t1(eps, k)) + 1
                probe = _sampling.d2_sample_batch(sampler, rng, n1)
                draws += n1
                saw_new = False
                for x in probe:
                    if classify_recovered(int(x)) is None:
                        saw_new = True
                        break
                if saw_new and k < k_guess:
                    done = _noisy_round(
                        X, session, config, eps, sampler, rng, recovered_reps,
                        I, centers, log, k_guess, draw_cap, draws)
                    draws = done["draws"]
                    if done["bail"] == "draw_cap":
                        raise _DrawCap()
                    if done["bail"]:
                        saw_new = False
                    if done["starved"]:
                        incomplete = True
                    if target is not None and len(I) >= target:
                        raise TargetReached()
                log["queries"] = session.ledger
                log["samples"] = draws
                if not saw_new or len(I) >= k_guess:
                    break
            if not saw_new and len(I) <= k_guess:
                break
            k_guess *= 2
    except TargetReached:
        stop = "target"
    except BudgetExhausted:
        stop = "budget"
    except _DrawCap:
        stop = "draw_cap"
        incomplete = True

    res = RecoveryResult(algorithm="noisy", seed=seed)
    res.I = list(I)
    res.centers = {cid: centers[cid].tolist() for cid in I}
    res.reps = {cid: int(recovered_reps.members(cid)[0]) for cid in I}
    res.K_recovered = len(I)
    res.L_discovered = len(I)
    res.queries_total = session.ledger
    res.samples_total = draws
    res.rounds_total = rounds
    res.per_round = logs
    res.stop_reason = stop
    res.incomplete = incomplete
    if X.labels is not None:
        for cid in I:
            members = recovered_reps.members(cid)
            labs = X.labels[np.asarray(members)]
            lab = int(np.bincount(labs).argmax())
            res.truth_labels[cid] = lab
            res.per_cluster_errors[cid] = centroid_error(
                X.cluster_points(lab), centers[cid])
    return res


def _noisy_round(X, session, config, eps, sampler, rng, recovered_reps,
                 I, centers, log, k_guess, draw_cap, draws):
    """Phases 2-4 of one noisy round; returns updated counters.

    out["bail"] names why the round gave up before recovering: "draw_cap"
    when Phase 2 would pass the draw cap, "no_heavy_band" when no band is
    heavy; it is None otherwise.
    """
    k = len(I)
    out = {"bail": None, "starved": False, "draws": draws}
    # Phase 2: double the guess q until enough large fresh groups survive.
    q = 1
    while True:
        arg = max(1.0, math.log2((k + q) / eps))
        T = math.ceil(config.c2 * q * q * arg * arg / (eps * eps))
        if out["draws"] + T > draw_cap:
            out["bail"] = "draw_cap"   # cannot confirm the Phase-1 signal
            return out
        S = _sampling.d2_sample_batch(sampler, rng, T)
        out["draws"] += T
        _, Z = find_clusters(S, session, config)
        cutoff = group_size_cutoff(T, config.min_cluster_frac)
        survivors = {gid: g for gid, g in Z.items() if len(g) >= cutoff}
        fresh: dict[int, list[int]] = {}
        for gid, g in survivors.items():
            if check_cluster(session, g[0], recovered_reps) is None:
                fresh[gid] = g
        if len(fresh) >= q / 2:
            break
        q *= 2
    # Bands over the surviving fresh groups' sample frequencies.
    groups = {i + 1: g for i, g in enumerate(fresh.values())}
    p_hat = {gid: len(g) / T for gid, g in groups.items()}
    part = split_bands(p_hat, q=len(groups))
    W = part.heavy_clusters()
    if not W:
        out["bail"] = "no_heavy_band"
        return out
    # Phase 3: reference point = minimum-weight member of each Z_j.
    refs = {j: _sampling.reference_point(set(groups[j]), sampler) for j in W}
    # Phase 4: rejection sampling classified by majority vote over capped
    # representative subsets.
    cap = max(1, math.ceil(config.rep_size_cap * k_guess / eps))
    w_reps = Representatives(noisy=True)
    for j in W:
        w_reps.reps[j] = _capped_reps(groups[j], cap)

    def checker(x: int) -> int:
        got = check_cluster(session, x, w_reps)
        return got if got is not None else 0

    quota = max(1, math.ceil(improved_t3(eps, k_guess)))
    starved: list[int] = []
    try:
        acc, rej_draws, _ = _sampling.rej_samp(
            sampler, session, W=W, refs=refs, T=quota, eps=eps, rng=rng,
            checker=checker, draw_cap=max(1, draw_cap - out["draws"]))
        out["draws"] += rej_draws
    except QuotaUnreachable as e:
        out["draws"] += e.draws
        acc = e.accepted
        starved = list(e.unmet)
        out["starved"] = True
    retain = max(1, math.ceil(config.retain_cap * k_guess / eps))
    for j in W:
        pool = acc.get(j, [])
        if j in starved or len(pool) < quota:
            log["skipped"].append(j)
            continue
        cid = recovered_reps.discovered_count + 1
        recovered_reps.reps[cid] = _capped_reps(groups[j], retain)
        centers[cid] = X.points[np.asarray(pool)].mean(axis=0)
        _sampling.add_center(sampler, centers[cid])
        I.append(cid)
        log["recovered"].append(cid)
    return out
