"""Pinned integer payload fields of every runner on one small fixture.

A refactor that keeps the algorithms keeps these values for fixed seeds;
a change to any of them is a change to a run's trajectory and must be
stated as one. Float fields (centers, errors) are left out because their
last bits can differ between CPUs. Noisy runs also pin the noise state they
leave behind: the number of cached answers and a digest of the flip RNG, so
a change that draws other flips shows even where the ledger does not move.
"""

import hashlib
import json

import numpy as np
import pytest

from samecluster.geometry import PointSet
from samecluster.noisy import NoisyConfig, run_noisy
from samecluster.oracle import OracleSession
from samecluster.recovery import (
    RecoveryConfig,
    run_basic,
    run_basic_simplified,
    run_improved,
    run_improved_simplified,
    run_uniform,
)
from samecluster.synthgen import SynthConfig, generate


def three_blobs() -> PointSet:
    """360 points in 2-d, three well-separated clusters of sizes 180/120/60."""
    rng = np.random.default_rng(0)
    centers, sizes = [(0, 0), (6, 0), (0, 6)], [180, 120, 60]
    pts = np.vstack([rng.normal(loc=c, scale=0.4, size=(m, 2))
                     for c, m in zip(centers, sizes)])
    return PointSet(pts, labels=np.repeat([1, 2, 3], sizes))


def _exact(runner, target=None):
    cfg = RecoveryConfig(eps=1.0, seed=1)

    def run(X, budget):
        session = OracleSession(X.labels, budget=budget)
        return runner(X, session, cfg, target), session
    return run


def _noisy(p):
    def run(X, budget):
        session = OracleSession(X.labels, error_prob=p, rng_seed=1, budget=budget)
        return run_noisy(X, session, NoisyConfig(p=p), 1.0, seed=2, draw_cap=10 ** 5), session
    return run


RUNS = {
    "basic": _exact(run_basic),
    "improved": _exact(run_improved),
    "basic_simplified": _exact(run_basic_simplified),
    "improved_simplified": _exact(run_improved_simplified),
    "uniform_target": _exact(run_uniform, target=3),
    "uniform": _exact(run_uniform),
    "noisy_p0": _noisy(0.0),
    "noisy_p0.1": _noisy(0.1),
}

PINS = {
    ("basic", None): dict(
        queries_total=825991, samples_total=341024, rounds_total=4,
        I=[1, 2, 3], reps={1: 170, 2: 184, 3: 332}, K_recovered=3,
        stop_reason="terminated", incomplete=False,
        per_round=[
            {"round": 1, "recovered": [1], "skipped": [], "queries": 113483, "samples": 68244},
            {"round": 2, "recovered": [2], "skipped": [], "queries": 448927, "samples": 212376},
            {"round": 3, "recovered": [3], "skipped": [], "queries": 825940, "samples": 340994},
            {"round": 4, "recovered": [], "skipped": []},
        ]),
    ("basic", 412995): dict(
        queries_total=412995, samples_total=68400, rounds_total=2,
        I=[1], reps={1: 170, 2: 184, 3: 342}, K_recovered=1,
        stop_reason="budget", incomplete=False,
        per_round=[
            {"round": 1, "recovered": [1], "skipped": [], "queries": 113703, "samples": 68400},
            {"round": 2, "recovered": [], "skipped": []},
        ]),
    ("improved", None): dict(
        queries_total=3578133, samples_total=2147159, rounds_total=3,
        I=[1, 2, 3], reps={1: 170, 2: 184, 3: 342}, K_recovered=3,
        stop_reason="terminated", incomplete=False,
        per_round=[
            {"round": 1, "K_guess": 1, "recovered": [1, 2, 3], "skipped": [], "queries": 3578038, "samples": 2147099},
            {"round": 2, "K_guess": 2, "recovered": [], "skipped": [], "queries": 3578085, "samples": 2147129},
            {"round": 3, "K_guess": 4, "recovered": [], "skipped": [], "queries": 3578133, "samples": 2147159},
        ]),
    ("improved", 1789066): dict(
        queries_total=1789066, samples_total=1073292, rounds_total=1,
        I=[], reps={1: 170, 2: 184, 3: 342}, K_recovered=0,
        stop_reason="budget", incomplete=False,
        per_round=[
            {"round": 1, "K_guess": 1, "recovered": [], "skipped": []},
        ]),
    ("basic_simplified", None): dict(
        queries_total=125, samples_total=125, rounds_total=4,
        I=[1, 2, 3], reps={1: 170, 2: 184, 3: 342}, K_recovered=3,
        stop_reason="terminated", incomplete=False,
        per_round=[
            {"round": 1, "recovered": [1], "skipped": [], "queries": 20, "samples": 20},
            {"round": 2, "recovered": [2], "skipped": [], "queries": 44, "samples": 44},
            {"round": 3, "recovered": [3], "skipped": [], "queries": 95, "samples": 95},
            {"round": 4, "recovered": [], "skipped": []},
        ]),
    ("basic_simplified", 62): dict(
        queries_total=62, samples_total=62, rounds_total=3,
        I=[1, 2], reps={1: 170, 2: 184, 3: 342}, K_recovered=2,
        stop_reason="budget", incomplete=False,
        per_round=[
            {"round": 1, "recovered": [1], "skipped": [], "queries": 20, "samples": 20},
            {"round": 2, "recovered": [2], "skipped": [], "queries": 44, "samples": 44},
            {"round": 3, "recovered": [], "skipped": []},
        ]),
    ("improved_simplified", None): dict(
        queries_total=125, samples_total=125, rounds_total=4,
        I=[1, 2, 3], reps={1: 170, 2: 184, 3: 342}, K_recovered=3,
        stop_reason="terminated", incomplete=False,
        per_round=[
            {"round": 1, "recovered": [1], "skipped": [], "queries": 20, "samples": 20},
            {"round": 2, "recovered": [2], "skipped": [], "queries": 44, "samples": 44},
            {"round": 3, "recovered": [3], "skipped": [], "queries": 95, "samples": 95},
            {"round": 4, "recovered": [], "skipped": []},
        ]),
    ("improved_simplified", 62): dict(
        queries_total=62, samples_total=62, rounds_total=3,
        I=[1, 2], reps={1: 170, 2: 184, 3: 342}, K_recovered=2,
        stop_reason="budget", incomplete=False,
        per_round=[
            {"round": 1, "recovered": [1], "skipped": [], "queries": 20, "samples": 20},
            {"round": 2, "recovered": [2], "skipped": [], "queries": 44, "samples": 44},
            {"round": 3, "recovered": [], "skipped": []},
        ]),
    ("uniform_target", None): dict(
        queries_total=95, samples_total=60, rounds_total=3,
        I=[1, 2, 3], reps={1: 170, 2: 184, 3: 342}, K_recovered=3,
        stop_reason="target", incomplete=False,
        per_round=[]),
    ("uniform_target", 47): dict(
        queries_total=47, samples_total=30, rounds_total=1,
        I=[1], reps={1: 170, 2: 184, 3: 342}, K_recovered=1,
        stop_reason="budget", incomplete=False,
        per_round=[]),
    ("uniform", 45): dict(
        queries_total=45, samples_total=28, rounds_total=1,
        I=[1], reps={1: 170, 2: 184, 3: 342}, K_recovered=1,
        stop_reason="budget", incomplete=False,
        per_round=[]),
    ("noisy_p0", None): dict(
        queries_total=709499, samples_total=28754, rounds_total=4,
        I=[1, 2, 3], reps={1: 13, 2: 187, 3: 331}, K_recovered=3,
        stop_reason="terminated", incomplete=False,
        per_round=[
            {"round": 1, "K_guess": 1, "recovered": [1, 2], "skipped": [], "queries": 110621, "samples": 8014},
            {"round": 2, "K_guess": 2, "recovered": [], "skipped": [], "queries": 110637, "samples": 8042},
            {"round": 3, "K_guess": 4, "recovered": [3], "skipped": [], "queries": 708954, "samples": 28724},
            {"round": 4, "K_guess": 4, "recovered": [], "skipped": [], "queries": 709499, "samples": 28754},
        ]),
    # The budget stops round 3 in find_clusters, after its 41-draw Phase-2
    # batch: 10763 + 28 probe draws + 41.
    ("noisy_p0.1", 300000): dict(
        queries_total=300000, samples_total=10832, rounds_total=3,
        I=[1, 2], reps={1: 13, 2: 252}, K_recovered=2,
        stop_reason="budget", incomplete=False,
        per_round=[
            {"round": 1, "K_guess": 1, "recovered": [1, 2], "skipped": [], "queries": 146087, "samples": 10735},
            {"round": 2, "K_guess": 2, "recovered": [], "skipped": [], "queries": 146103, "samples": 10763},
            {"round": 3, "K_guess": 4, "recovered": [], "skipped": []},
        ]),
    # Every cluster is recovered by round 3; a noisy probe miss then sends
    # round 4 into Phase 2, whose q doubling runs into the draw cap.
    ("noisy_p0.1", None): dict(
        queries_total=1166409, samples_total=45476, rounds_total=4,
        I=[1, 2, 3], reps={1: 13, 2: 252, 3: 337}, K_recovered=3,
        stop_reason="draw_cap", incomplete=True,
        per_round=[
            {"round": 1, "K_guess": 1, "recovered": [1, 2], "skipped": [], "queries": 146087, "samples": 10735},
            {"round": 2, "K_guess": 2, "recovered": [], "skipped": [], "queries": 146103, "samples": 10763},
            {"round": 3, "K_guess": 4, "recovered": [3], "skipped": [], "queries": 764514, "samples": 30763},
            {"round": 4, "K_guess": 4, "recovered": [], "skipped": []},
        ]),
}

# (len(session.answer_cache), digest of the session's flip RNG state)
NOISE = {
    ("noisy_p0", None): (0, "7e62aff6a05eb04c"),
    ("noisy_p0.1", 300000): (13924, "9094edd8bab8d362"),
    ("noisy_p0.1", None): (31965, "7eb671e0b95929ef"),
}


def noise_state(session: OracleSession) -> tuple[int, str]:
    state = json.dumps(session._rng.bit_generator.state, sort_keys=True)
    return len(session.answer_cache), hashlib.sha256(state.encode()).hexdigest()[:16]


@pytest.fixture(scope="module")
def X():
    return three_blobs()


@pytest.mark.parametrize("name,budget", list(PINS), ids=[f"{n}-{b}" for n, b in PINS])
def test_payload_pinned(X, name, budget):
    res, session = RUNS[name](X, budget)
    got = {field: getattr(res, field) for field in PINS[name, budget]}
    assert got == PINS[name, budget]
    if (name, budget) in NOISE:
        assert noise_state(session) == NOISE[name, budget]


# improved_simple at target 30 on practical-shaped sets (n=1e5, K=50, eps
# 0.5, as the practical benchmark runs it): a round commits its whole heavy
# batch, so the run passes the target. Each round's recovered list is
# pinned; a per-recovery target check would stop at 30.
TARGET_PINS = {
    (0.0, 1): dict(K_recovered=35, stop_reason="target", queries_total=2182, samples_total=1007,
                   recovered=[[1, 2, 4, 5, 6, 10, 11, 14, 15, 18, 20],
                              [3, 12, 13, 16, 19, 22, 24, 26, 27, 29, 32, 34, 43, 45],
                              [8, 9, 25, 31, 37, 38, 41, 42, 46, 49]]),
    (0.3, 2): dict(K_recovered=38, stop_reason="target", queries_total=2711, samples_total=1059,
                   recovered=[[1, 2, 3, 4, 10, 11, 14, 18, 28, 29, 34],
                              [6, 9, 12, 13, 16, 17, 19, 23, 24, 25, 30, 32, 35, 38, 39, 42],
                              [5, 7, 15, 20, 26, 31, 36, 37, 41, 45, 46]]),
}


@pytest.mark.parametrize("p_collision,seed", list(TARGET_PINS))
def test_improved_simple_commits_whole_batch_past_target(p_collision, seed):
    X, _ = generate(SynthConfig(n=100_000, K=50, p_collision=p_collision, seed=seed))
    session = OracleSession(X.labels, rng_seed=seed)
    res = run_improved_simplified(X, session, RecoveryConfig(eps=0.5, seed=seed), target=30)
    got = dict(K_recovered=res.K_recovered, stop_reason=res.stop_reason,
               queries_total=res.queries_total, samples_total=res.samples_total,
               recovered=[r["recovered"] for r in res.per_round])
    assert got == TARGET_PINS[p_collision, seed]
    assert res.K_recovered > 30
    # Only the last round crosses the target.
    assert sum(len(r) for r in got["recovered"][:-1]) < 30
