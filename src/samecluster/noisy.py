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
from .oracle import OracleSession, Representatives, check_cluster, majority
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


_C = 8          # the C of the C*K/eps representative subsets
_C4 = 8         # the C4 of the post-round retention rule
_C2 = 16.0      # the Phase-2 sample-count constant c2


@dataclass
class NoisyConfig:
    p: float = 0.1
    min_cluster_frac: float = 1.0

    def __post_init__(self):
        if not (0.0 <= self.p < 0.5):
            raise ValueError(f"oracle error probability must be < 0.5, got {self.p}")


def group_size_cutoff(T: int, min_cluster_frac: float) -> float:
    """Groups smaller than min_cluster_frac * sqrt(T) * log2(T) are dropped."""
    if T <= 1:
        return 0.0
    return min_cluster_frac * math.sqrt(T) * math.log2(T)


def find_clusters(samples, session: OracleSession, config: NoisyConfig):
    """Greedy majority-linkage grouping of sampled point indices.

    Each sample joins the first existing group in which a strict majority
    of up to min(|Z|, 2C) distinct queried members answers
    "same"; otherwise it opens a new group. Groups below the size cutoff
    are dropped. Returns (surviving group ids 1..m, {id: member list}).
    Member lists keep duplicates (multiset sizes feed the frequency
    estimates); queries only ever go to distinct members.
    """
    cap = 2 * _C
    groups: list[list[int]] = []
    heads: list[list[int]] = []    # first `cap` distinct members per group, in order
    for x in samples:
        x = int(x)
        placed = False
        for g, head in zip(groups, heads):
            if majority(session, x, head):
                g.append(x)
                if len(head) < cap and x not in head:
                    head.append(x)
                placed = True
                break
        if not placed:
            groups.append([x])
            heads.append([x])
    cutoff = group_size_cutoff(len(samples), config.min_cluster_frac)
    survivors = [g for g in groups if len(g) >= cutoff]
    Z = {i + 1: g for i, g in enumerate(survivors)}
    return list(Z), Z


def run_noisy(X: PointSet, session: OracleSession, config: NoisyConfig,
              eps: float, *, seed: int = 0, draw_cap: int = 10 ** 8,
              target: int | None = None) -> RecoveryResult:
    """Noisy-oracle recovery: K-doubling rounds with majority-vote
    classification, greedy grouping, band selection and rejection sampling."""
    rconfig = RecoveryConfig(eps, draw_cap=draw_cap, seed=seed)
    if abs(session.error_prob - config.p) > 1e-12:
        raise ValueError("session error probability differs from config.p")
    run = RunState(X, session, rconfig, target)
    return run.execute("noisy", k_doubling, _noisy_probe,
                       lambda r, k_guess, log: _noisy_round(r, config, k_guess, log))


def _noisy_probe(run: RunState) -> bool:
    """Phase 1: D2-sample floor(T1)+1 points in one batch and report whether
    one matches no recovered cluster (checked up to the first that does not).

    A batch that would pass the draw cap is not drawn. When every point
    coincides with a recovered center, no mass is left unrecovered.
    """
    n1 = math.floor(threshold_t1(run.config.eps, run.k)) + 1
    if run.room(n1) < n1:
        raise _DrawCap()
    try:
        probe = _sampling.d2_sample_batch(run.sampler, run.rng, n1)
    except _sampling.FullyCovered:
        return False
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
        T = math.ceil(_C2 * q * q * arg * arg / (eps * eps))
        if run.room(T) < T:
            raise _DrawCap()
        S = _sampling.d2_sample_batch(run.sampler, run.rng, T)
        run.draws += T
        _, Z = find_clusters(S, session, config)
        fresh = [g for g in Z.values() if check_cluster(session, g[0], run.reps) is None]
        if len(fresh) >= q / 2:
            break
        q *= 2
    # Bands over the surviving fresh groups' sample frequencies, numbered 1..m.
    part = split_bands({j: len(g) / T for j, g in enumerate(fresh, 1)}, q=len(fresh))
    # The heavy groups, renumbered 1..|W| in W's sorted order, as their
    # distinct members in sampling order.
    heavy = [list(dict.fromkeys(fresh[j - 1])) for j in part.heavy_clusters()]
    if not heavy:
        return False
    # Phase 3: reference point = minimum-weight member of each group.
    refs = {i: _sampling.reference_point(g, run.sampler) for i, g in enumerate(heavy, 1)}
    # Phase 4: rejection sampling classified by majority vote over capped
    # representative subsets.
    cap = max(1, math.ceil(_C * k_guess / eps))
    w_reps = Representatives()
    for g in heavy:
        w_reps.add_cluster(*g[:cap])

    quota = max(1, math.ceil(improved_t3(eps, k_guess)))
    acc, unmet = run.rej_samp(list(refs), refs, quota,
                              checker=lambda x: check_cluster(session, x, w_reps) or 0)
    retain = max(1, math.ceil(_C4 * k_guess / eps))
    for i, g in enumerate(heavy, 1):
        if i in unmet:
            continue
        cid = run.reps.add_cluster(*g[:retain])
        run.commit_recovery(cid, run.X.points[np.asarray(acc[i])].mean(axis=0))
        log["recovered"].append(cid)
    if unmet:
        # The unmet groups are numbered after the clusters recovered, so
        # skipped and starved ids never name a cluster of I.
        L = run.reps.discovered_count
        log["skipped"].extend(range(L + 1, L + 1 + len(unmet)))
        run.check_target()
        raise _DrawCap()
    return True
