"""Acceptance suite: one test per criterion, printing a PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. The heavier criteria parallelize their trials over two worker
processes; stated runtimes assume a two-core machine.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from samecluster.datasets import DatasetSpec
from samecluster.harness import (
    ExperimentPlan,
    classify_study,
    run_error_report,
    run_fixed_budget,
    run_fixed_recovery,
)
from samecluster.noisy import NoisyConfig, run_noisy
from samecluster.oracle import OracleSession, Representatives, check_cluster
from samecluster.recovery import (
    RecoveryConfig,
    dyadic_band,
    run_basic,
    run_basic_simplified,
    run_improved,
    run_improved_simplified,
    run_uniform,
    split_bands,
)
from samecluster.sampling import SamplerState, add_center, d2_sample_batch, rej_samp
from samecluster.synthgen import SynthConfig, generate

DATA = Path(__file__).parent / "data"
WORKERS = 2


def report(num: int, ok: bool, detail: str):
    print(f"\nCRITERION {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


# -- shared heavy sweeps ------------------------------------------------------

@pytest.fixture(scope="module")
def query_sweeps():
    """Fixed-recovery sweeps at n=1e5, K=50 shared by criteria 5 and 7."""
    out = {}
    for p, seed in ((0.0, 505), (0.3, 606)):
        cfg = SynthConfig(n=100_000, K=50, alpha=2.5, sigma=0.3, b=5.0, d=10,
                          rho=0.1, p_collision=p)
        plan = ExperimentPlan(
            mode="fixed_recovery", algorithms=["uniform", "basic", "improved_simple"],
            targets=[30], trials=20, eps=0.5, seed=seed, synth=cfg,
            workers=WORKERS)
        out[p] = run_fixed_recovery(plan)
    return out


def test_c01_sampler_fidelity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)
    pts = rng.normal(size=(50, 2)) * 3.0
    st = SamplerState(pts)
    add_center(st, [0.0, 0.0])
    add_center(st, [4.0, 4.0])
    exact = st.weights / st.total
    draws = d2_sample_batch(st, np.random.default_rng(12), 100_000)
    emp = np.bincount(draws, minlength=50) / 100_000
    tv = 0.5 * float(np.abs(emp - exact).sum())
    dt = time.perf_counter() - t0
    report(1, tv < 0.02 and dt < 5.0,
           f"D2 sampler TV distance {tv:.4f} < 0.02 over 1e5 draws ({dt:.1f}s < 5s)")


def test_c02_rejection_uniformity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(21)
    planted = rng.normal(loc=(10.0, 0.0), scale=0.5, size=(20, 2))
    near = rng.normal(loc=(0.0, 0.0), scale=0.5, size=(400, 2))
    pts = np.vstack([planted, near])
    labels = np.array([1] * 20 + [2] * 400)
    session = OracleSession(labels)
    reps = Representatives()
    reps.add_cluster(0)
    reps.add_cluster(20)
    st = SamplerState(pts)
    add_center(st, [0.0, 0.0])
    ref = int(np.argmin(st.weights[:20]))
    accepted, draws, _ = rej_samp(
        st, session, W=[1], refs={1: ref}, T=10_000, eps=1.0,
        rng=np.random.default_rng(22), reps=reps)
    counts = np.bincount(np.asarray(accepted[1][:10_000]), minlength=20)[:20]
    chi, pvalue = stats.chisquare(counts)
    dt = time.perf_counter() - t0
    report(2, pvalue >= 0.01 and dt < 30.0,
           f"rejection-sampling GOF vs uniform p={pvalue:.3f} >= 0.01 "
           f"on 1e4 accepted of a 20-point cluster ({dt:.1f}s < 30s)")


def test_c03_loop_invariant():
    t0 = time.perf_counter()
    cfg = SynthConfig(n=10_000, K=20, alpha=2.5, sigma=0.3, b=5.0, d=10,
                      rho=0.1, p_collision=0.0)
    plan = ExperimentPlan(
        mode="fixed_recovery", algorithms=["basic_theory", "improved"],
        targets=[20], trials=20, eps=0.5, seed=303, synth=cfg,
        draw_cap=10 ** 10, workers=WORKERS)
    records, _ = run_fixed_recovery(plan)
    ok_runs = {}
    for algo in ("basic_theory", "improved"):
        group = [r for r in records if r.algorithm == algo]
        good = sum(
            1 for r in group
            if r.per_cluster_errors and all(e <= 0.5 for e in r.per_cluster_errors.values()))
        ok_runs[algo] = good
    dt = time.perf_counter() - t0
    ok = all(v >= 18 for v in ok_runs.values()) and dt < 120.0
    report(3, ok,
           "loop invariant cost(X_i, mu~_i) <= (1+eps) cost(X_i, mu_i) held in "
           f"{ok_runs['basic_theory']}/20 basic and {ok_runs['improved']}/20 "
           f"improved runs (need >= 18) at n=1e4, K=20, eps=0.5 ({dt:.0f}s < 120s)")


def test_c04_error_rates():
    t0 = time.perf_counter()
    cfg = SynthConfig(n=10_000, K=20, alpha=2.5, sigma=0.3, b=5.0, d=10,
                      rho=0.1, p_collision=0.0)
    plan = ExperimentPlan(
        mode="error_report", algorithms=["uniform", "basic", "improved_simple"],
        targets=[10, 15, 20], trials=20, eps=0.5, seed=404, synth=cfg,
        workers=WORKERS)
    _, table = run_error_report(plan)
    worst = max(row["mean"] for row in table)
    spreads = []
    for t in (10, 15, 20):
        means = [row["mean"] for row in table if row["x"] == t]
        spreads.append(max(means) - min(means))
    dt = time.perf_counter() - t0
    ok = worst < 0.10 and max(spreads) < 0.03 and dt < 300.0
    report(4, ok,
           f"median centroid errors: worst mean {worst:.4f} < 0.10, "
           f"max inter-algorithm spread {max(spreads):.4f} < 0.03 ({dt:.0f}s < 300s)")


def test_c05_query_ordering(query_sweeps):
    t0 = time.perf_counter()
    details = []
    ok = True
    for p in (0.0, 0.3):
        _, table = query_sweeps[p]
        means = {row["algorithm"]: row["mean"] for row in table}
        imp, bas, uni = (means["improved_simple"], means["basic"],
                         means["uniform"])
        leg = imp <= bas <= 0.67 * uni
        ok = ok and leg
        details.append(f"p={p}: improved {imp:.0f} <= basic {bas:.0f} "
                       f"<= 0.67*uniform {0.67 * uni:.0f}")
    dt = time.perf_counter() - t0
    report(5, ok and dt < 600.0,
           "; ".join(details) + f" at the 60%-clusters target ({dt:.0f}s < 600s)")


def test_c06_collision_hardness():
    means = {}
    for p, seed in ((0.0, 616), (0.3, 617)):
        cfg = SynthConfig(n=30_000, K=50, alpha=2.5, sigma=0.3, b=5.0, d=10,
                          rho=0.1, p_collision=p)
        plan = ExperimentPlan(
            mode="fixed_budget", algorithms=["basic", "improved_simple"],
            budgets=[2500], trials=20, eps=0.5, seed=seed, synth=cfg,
            workers=WORKERS)
        _, table = run_fixed_budget(plan)
        means[p] = {row["algorithm"]: row["mean"] for row in table}
    ok = all(means[0.3][a] < means[0.0][a] for a in ("basic", "improved_simple"))
    report(6, ok,
           "clusters recovered at budget 2500 drop under collisions: "
           f"basic {means[0.0]['basic']:.1f} -> {means[0.3]['basic']:.1f}, "
           f"improved {means[0.0]['improved_simple']:.1f} -> "
           f"{means[0.3]['improved_simple']:.1f}")


def test_c07_rounds(query_sweeps):
    records, _ = query_sweeps[0.0]
    big = {a: float(np.mean([r.rounds for r in records if r.algorithm == a]))
           for a in ("basic", "improved_simple")}
    cfg = SynthConfig(n=10_000, K=20, alpha=2.5, sigma=0.3, b=5.0, d=10,
                      rho=0.1, p_collision=0.0)
    plan = ExperimentPlan(
        mode="fixed_recovery", algorithms=["basic", "improved_simple"],
        targets=[15], trials=20, eps=0.5, seed=707, synth=cfg, workers=WORKERS)
    records20, _ = run_fixed_recovery(plan)
    small = {a: float(np.mean([r.rounds for r in records20 if r.algorithm == a]))
             for a in ("basic", "improved_simple")}
    ok = (big["improved_simple"] <= big["basic"]
          and small["improved_simple"] <= small["basic"])
    report(7, ok,
           f"mean rounds improved <= basic: {big['improved_simple']:.1f} <= "
           f"{big['basic']:.1f} (n=1e5) and {small['improved_simple']:.1f} <= "
           f"{small['basic']:.1f} (20-cluster fixture)")


def test_c08_classification_heuristic():
    cfg = SynthConfig(n=10_000, K=20, alpha=2.5, sigma=0.3, b=5.0, d=10,
                      rho=0.1, p_collision=0.0, seed=808)
    ps, _ = generate(cfg)
    res = run_improved_simplified(ps, OracleSession(ps.labels, rng_seed=1),
                                  RecoveryConfig(eps=0.5, seed=2))
    hist, correct = classify_study(ps, res, seed=3)
    one = hist.get(1, 0) / len(ps)
    ok = one >= 0.85 and correct == 1.0
    report(8, ok,
           f"{one:.1%} of points classified with exactly one query (>= 85%), "
           f"{correct:.1%} classified correctly (= 100%)")


def test_c09_noisy_stack():
    # Majority-vote classification error with Lemma-style representative
    # sizing: |Z_i| = ceil(8 K / eps) = 40 for K=5, eps=1.
    K, reps_per = 5, 40
    rng = np.random.default_rng(91)
    truth = np.concatenate([np.repeat(np.arange(1, K + 1), reps_per),
                            rng.integers(1, K + 1, size=10_000)])
    session = OracleSession(truth, error_prob=0.1, rng_seed=92)
    reps = Representatives()
    for i in range(K):
        reps.reps[i + 1] = list(range(i * reps_per, (i + 1) * reps_per))
    base = K * reps_per
    wrong = sum(
        1 for t in range(10_000)
        if check_cluster(session, base + t, reps) != int(truth[base + t]))
    rate = wrong / 10_000

    # Full noisy pipeline on three well-separated clusters.
    from samecluster.harness import run_fixed_recovery as _rfr
    plan = ExperimentPlan(
        mode="fixed_recovery", algorithms=["noisy"], targets=[3], trials=20,
        eps=0.5, seed=909, noise_p=0.1,
        dataset=DatasetSpec(DATA / "three_blobs.csv", normalize=False),
        workers=WORKERS)
    records, _ = _rfr(plan)
    good = sum(1 for r in records
               if not r.censored and r.clusters_recovered == 3
               and all(e <= 0.5 for e in r.per_cluster_errors.values()))
    ok = rate < 0.01 and good >= 16
    report(9, ok,
           f"check_cluster error rate {rate:.2%} < 1% over 1e4 calls at p=0.1; "
           f"run_noisy recovered all 3 clusters within eps in {good}/20 seeds "
           "(need >= 16)")


def test_c10_determinism_and_accounting():
    ps, _ = generate(SynthConfig(n=1500, K=6, sigma=0.2, d=4, seed=10))
    runs = {
        "basic_theory": lambda s: run_basic(
            ps, s, RecoveryConfig(eps=1.0, seed=5, draw_cap=10 ** 9)),
        "improved_theory": lambda s: run_improved(
            ps, s, RecoveryConfig(eps=1.0, seed=5, draw_cap=10 ** 9)),
        "basic": lambda s: run_basic_simplified(
            ps, s, RecoveryConfig(eps=0.5, seed=5)),
        "improved_simple": lambda s: run_improved_simplified(
            ps, s, RecoveryConfig(eps=0.5, seed=5)),
        "uniform": lambda s: run_uniform(
            ps, s, RecoveryConfig(seed=5), target=4),
        "noisy": lambda s: run_noisy(
            ps, s, NoisyConfig(p=0.1), eps=0.5, seed=5),
    }
    mismatched = []
    for name, runner in runs.items():
        p_noise = 0.1 if name == "noisy" else 0.0
        a_sess = OracleSession(ps.labels, error_prob=p_noise, rng_seed=3)
        b_sess = OracleSession(ps.labels, error_prob=p_noise, rng_seed=3)
        a, b = runner(a_sess), runner(b_sess)
        if a.to_payload() != b.to_payload():
            mismatched.append(name)
        if a.queries_total != a_sess.ledger:
            mismatched.append(name + ":ledger")
    report(10, not mismatched,
           "byte-identical reruns and ledger-exact query accounting for "
           f"{len(runs)} algorithm variants"
           + (f" (failed: {mismatched})" if mismatched else ""))


def test_c11_band_partition_properties():
    rng = np.random.default_rng(111)
    bad = 0
    for _ in range(1000):
        q = int(rng.integers(1, 60))
        raw = rng.random(q) ** rng.integers(1, 5)
        p = raw / raw.sum()
        p_hat = {i + 1: float(p[i]) for i in range(q)}
        part = split_bands(p_hat, q)
        seen = []
        ok = part.l_bands == (max(1, math.ceil(3 * math.log2(q))) if q > 1 else 1)
        for ell, members in enumerate(part.bands, start=1):
            for cid in members:
                v = p_hat[cid]
                ok &= 2.0 ** -ell < v <= 2.0 ** (-ell + 1)
                ok &= not (q > 1 and v <= 1.0 / q ** 3)
                seen.append(cid)
        for cid in part.tail:
            v = p_hat[cid]
            ok &= (q > 1 and v <= 1.0 / q ** 3) or dyadic_band(v) > part.l_bands
            seen.append(cid)
        ok &= sorted(seen) == sorted(p_hat)  # disjoint cover
        thresh = 1.0 / (3.0 * part.l_bands)
        for flag, members in zip(part.heavy, part.bands):
            ok &= flag == (sum(p_hat[c] for c in members) >= thresh)
        if not ok:
            bad += 1
    report(11, bad == 0,
           f"band partition invariants held on {1000 - bad}/1000 random "
           "frequency vectors (disjoint cover, dyadic bands, tail rule, heavy rule)")
