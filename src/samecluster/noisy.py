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
from .geometry import PointSet
from .oracle import OracleSession, Representatives, check_cluster
from .recovery import (
    RecoveryConfig,
    RecoveryResult,
    RunState,
    _DrawCap,
    improved_t3,
    k_doubling,
    split_bands,
    threshold_t1,
)


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
    rconfig = RecoveryConfig(eps, draw_cap=draw_cap, seed=seed)
    if abs(session.error_prob - config.p) > 1e-12:
        raise ValueError("session error probability differs from config.p")
    run = RunState(X, session, rconfig, target)
    run.reps = Representatives(noisy=True)   # recovered clusters only
    return run.execute("noisy", k_doubling, _noisy_probe,
                       lambda r, k_guess, log: _noisy_round(r, config, k_guess, log))


def _noisy_probe(run: RunState) -> bool:
    """Phase 1: D2-sample floor(T1)+1 points in one batch and report whether
    one matches no recovered cluster (checked up to the first that does not).

    A batch that would pass the draw cap is not drawn.
    """
    n1 = math.floor(threshold_t1(run.config.eps, run.k)) + 1
    if run.draws + n1 > run.config.draw_cap:
        raise _DrawCap()
    probe = _sampling.d2_sample_batch(run.sampler, run.rng, n1)
    run.draws += n1
    return any(check_cluster(run.session, int(x), run.reps) is None for x in probe)


def _noisy_round(run: RunState, config: NoisyConfig, k_guess: int, log: dict) -> bool:
    """Phases 2-4 of one noisy round.

    Returns False when no band is heavy, which ends the doubling as in
    run_improved; True otherwise. Raises _DrawCap when a Phase-2 batch
    would pass the draw cap, which leaves the Phase-1 signal unconfirmed.
    """
    eps, k = run.config.eps, run.k
    session = run.session
    # Phase 2: double the guess q until enough large fresh groups survive.
    q = 1
    while True:
        arg = max(1.0, math.log2((k + q) / eps))
        T = math.ceil(config.c2 * q * q * arg * arg / (eps * eps))
        if run.draws + T > run.config.draw_cap:
            raise _DrawCap()
        S = _sampling.d2_sample_batch(run.sampler, run.rng, T)
        run.draws += T
        _, Z = find_clusters(S, session, config)
        cutoff = group_size_cutoff(T, config.min_cluster_frac)
        survivors = {gid: g for gid, g in Z.items() if len(g) >= cutoff}
        fresh: dict[int, list[int]] = {}
        for gid, g in survivors.items():
            if check_cluster(session, g[0], run.reps) is None:
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
        return False
    # Phase 3: reference point = minimum-weight member of each Z_j.
    refs = {j: _sampling.reference_point(set(groups[j]), run.sampler) for j in W}
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
    acc, unmet = run.rej_samp(W, refs, quota, checker=checker)
    retain = max(1, math.ceil(config.retain_cap * k_guess / eps))
    for j in W:
        if j in unmet:
            log["skipped"].append(j)
            continue
        cid = run.reps.discovered_count + 1
        run.reps.reps[cid] = _capped_reps(groups[j], retain)
        run.commit_recovery(cid, run.X.points[np.asarray(acc[j])].mean(axis=0))
        log["recovered"].append(cid)
    run.stop_if_capped(unmet)
    return True
