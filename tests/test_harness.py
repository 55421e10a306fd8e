import math

import numpy as np
import pytest

from samecluster.datasets import DatasetSpec, write_csv
from samecluster.geometry import PointSet
from samecluster.harness import (
    ExperimentPlan,
    TrialRecord,
    aggregate,
    check_reducibility,
    classify_study,
    read_records_json,
    read_table_csv,
    run_classify_study,
    run_fixed_budget,
    run_fixed_recovery,
    trial_seeds,
    write_records_json,
    write_table_csv,
)
from samecluster.oracle import OracleSession, Representatives
from samecluster.recovery import (
    RecoveryConfig,
    run_basic,
    run_basic_simplified,
    run_improved,
    run_improved_simplified,
    run_uniform,
)
from samecluster.synthgen import SynthConfig, generate

SMALL = SynthConfig(n=1200, K=4, sigma=0.15, d=4, b=6.0, seed=0)


def small_plan(mode, **kw):
    base = dict(mode=mode, algorithms=["uniform", "basic"], trials=3,
                eps=0.5, seed=9, synth=SMALL)
    base.update(kw)
    return ExperimentPlan(**base)


class TestPlanValidation:
    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            small_plan("bogus")

    def test_unknown_algorithm(self):
        with pytest.raises(ValueError):
            small_plan("fixed_budget", algorithms=["kmeans"], budgets=[10])

    def test_budgets_must_increase(self):
        with pytest.raises(ValueError):
            small_plan("fixed_budget", budgets=[100, 100])

    def test_negative_budget_rejected(self):
        # Rejected when the plan is built, before any trial runs.
        with pytest.raises(ValueError, match="budgets must be >= 0, got -5"):
            small_plan("fixed_budget", budgets=[-5, 10])
        small_plan("fixed_budget", budgets=[0, 10])

    def test_dataset_xor_synth(self):
        with pytest.raises(ValueError):
            ExperimentPlan(mode="fixed_budget", algorithms=["uniform"],
                           budgets=[1], trials=1)

    def test_trial_seeds_deterministic(self):
        assert trial_seeds(5, 4) == trial_seeds(5, 4)
        assert trial_seeds(5, 4) != trial_seeds(6, 4)


class TestFixedBudget:
    def test_zero_budget_recovers_nothing(self):
        plan = small_plan("fixed_budget",
                          algorithms=["uniform", "basic", "improved_simple"],
                          budgets=[0], trials=2)
        _, table = run_fixed_budget(plan)
        assert all(row["mean"] == 0.0 for row in table)

    def test_more_budget_more_clusters(self):
        plan = small_plan("fixed_budget", budgets=[30, 2000], trials=3)
        _, table = run_fixed_budget(plan)
        for algo in ("uniform", "basic"):
            rows = {r["x"]: r["mean"] for r in table if r["algorithm"] == algo}
            assert rows[2000] >= rows[30]

    def test_ledger_never_exceeds_budget(self):
        plan = small_plan("fixed_budget", budgets=[123], trials=3)
        records, _ = run_fixed_budget(plan)
        assert all(r.queries <= 123 for r in records)


class TestFixedRecovery:
    def test_single_cluster_target_one(self):
        cfg = SynthConfig(n=400, K=1, sigma=0.1, d=3, seed=1)
        plan = ExperimentPlan(mode="fixed_recovery", algorithms=["uniform"],
                              targets=[1], trials=3, seed=2, synth=cfg)
        records, table = run_fixed_recovery(plan)
        assert all(r.clusters_recovered == 1 for r in records)
        assert all(r.queries <= 10 for r in records)

    def test_censored_counted_not_dropped(self):
        plan = small_plan("fixed_recovery", algorithms=["basic"], targets=[4],
                          trials=3, draw_cap=40)
        records, table = run_fixed_recovery(plan)
        assert table[0]["censored"] == 3
        assert len(records) == 3

    def test_workers_match_serial(self):
        p1 = small_plan("fixed_recovery", targets=[2, 3], trials=3, workers=1)
        p2 = small_plan("fixed_recovery", targets=[2, 3], trials=3, workers=2)
        r1, t1 = run_fixed_recovery(p1)
        r2, t2 = run_fixed_recovery(p2)
        assert [r.to_payload() for r in r1] == [r.to_payload() for r in r2]
        assert t1 == t2


class TestAggregate:
    def test_recomputable_from_records(self):
        plan = small_plan("fixed_recovery", targets=[2], trials=4)
        records, table = run_fixed_recovery(plan)
        again = aggregate(records, lambda r: r.queries)
        assert again == table

    def test_censored_excluded_from_mean(self):
        records = [
            TrialRecord("basic", 5, 0, 1, queries=10, samples=1,
                        clusters_recovered=5, clusters_discovered=5, rounds=1),
            TrialRecord("basic", 5, 1, 2, queries=999, samples=1,
                        clusters_recovered=2, clusters_discovered=5, rounds=1,
                        censored=True),
        ]
        rows = aggregate(records, lambda r: r.queries)
        assert rows[0]["mean"] == 10.0
        assert rows[0]["censored"] == 1
        assert rows[0]["trials"] == 1


def classify_study_reference(X, result, seed=0):
    """harness.classify_study one point at a time, on same_cluster queries
    in order of squared distance to the centers, ties to the lower id."""
    session = OracleSession(X.labels, rng_seed=seed)
    reps = Representatives()
    centers = {}
    for cid in result.I:
        centers[reps.add_cluster(result.reps[cid])] = np.asarray(result.centers[cid])
    known_labels = {int(X.labels[reps.rep_point(i)]) for i in centers}
    hist, correct = {}, 0
    for x in range(len(X)):
        ids = np.arange(1, reps.discovered_count + 1)
        d2 = np.sum((np.vstack([centers[i] for i in ids]) - X.points[x]) ** 2, axis=1)
        for used, i in enumerate(ids[np.argsort(d2, kind="stable")].tolist(), start=1):
            if session.same_cluster(x, reps.rep_point(i)):
                ok = int(X.labels[reps.rep_point(i)]) == int(X.labels[x])
                break
        else:
            used = len(ids)
            centers[reps.add_cluster(x)] = X.points[x].copy()
            ok = int(X.labels[x]) not in known_labels
            known_labels.add(int(X.labels[x]))
        hist[used] = hist.get(used, 0) + 1
        correct += ok
    return hist, correct / len(X)


def _study_fixtures():
    """A grid-rounded fixture, so that distances tie, with 60 duplicated
    points, and a 120-dimensional one that the study takes in two chunks."""
    rng = np.random.default_rng(12)
    grid, _ = generate(SynthConfig(n=900, K=9, sigma=1.0, d=2, b=6.0, seed=13))
    dup = rng.integers(0, len(grid), size=60)
    grid = PointSet(np.vstack([np.round(grid.points * 2) / 2, np.round(grid.points[dup] * 2) / 2]),
                    labels=np.concatenate([grid.labels, grid.labels[dup]]))
    wide, _ = generate(SynthConfig(n=2500, K=8, d=120, p_collision=0.3, seed=14))
    return [grid, wide]


class TestClassifyStudy:
    def test_single_cluster_all_one_query(self):
        cfg = SynthConfig(n=500, K=1, sigma=0.1, d=3, seed=3)
        ps, _ = generate(cfg)
        res = run_improved_simplified(ps, OracleSession(ps.labels),
                                      RecoveryConfig(eps=0.5, seed=4))
        hist, correct = classify_study(ps, res)
        assert hist == {1: 500}
        assert correct == 1.0

    def test_well_separated_mostly_one_query(self):
        cfg = SynthConfig(n=2000, K=5, sigma=0.1, d=6, seed=5)
        ps, _ = generate(cfg)
        res = run_improved_simplified(ps, OracleSession(ps.labels),
                                      RecoveryConfig(eps=0.5, seed=6))
        hist, correct = classify_study(ps, res)
        assert correct == 1.0
        assert hist.get(1, 0) / len(ps) >= 0.9

    def test_matches_point_at_a_time(self):
        # Every exact runner, full runs and targets below K.
        runners = {run_uniform: (3, 6), run_basic_simplified: (3, None),
                   run_improved_simplified: (2, None), run_basic: (2, None),
                   run_improved: (4, None)}
        for ps in _study_fixtures():
            for runner, targets in runners.items():
                for target in targets:
                    res = runner(ps, OracleSession(ps.labels),
                                 RecoveryConfig(eps=1.0, seed=5), target=target)
                    assert res.I
                    hist, correct = classify_study(ps, res)
                    want_hist, want_correct = classify_study_reference(ps, res)
                    assert list(hist.items()) == list(want_hist.items())
                    assert type(correct) is float and correct == want_correct

    def test_plan_driver(self):
        plan = small_plan("classify_study", algorithms=["improved_simple"],
                          trials=1)
        recs, table = run_classify_study(plan)
        assert recs[0].classify_hist
        assert recs[0].correct_fraction == 1.0
        hist = recs[0].classify_hist
        assert table == [{"algorithm": "improved_simple", "x": 0,
                          "mean": sum(q * c for q, c in hist.items()) / SMALL.n,
                          "sd": 0.0, "trials": 1, "censored": 0}]

    def test_noisy_rejected(self):
        plan = small_plan("classify_study", algorithms=["improved_simple", "noisy"],
                          trials=1, noise_p=0.1)
        with pytest.raises(ValueError, match="exact-oracle") as ei:
            run_classify_study(plan)
        assert "'noisy'" in str(ei.value)
        for tag in ("uniform", "basic", "improved", "improved_simple", "basic_theory"):
            assert f"'{tag}'" in str(ei.value)


class TestCheckReducibility:
    def test_all_recovered_vacuous(self):
        ps, _ = generate(SMALL)
        ok, ratio, offender = check_reducibility(ps, [1, 2, 3, 4], 0.5)
        assert ok and offender is None

    def test_far_singleton_fails(self):
        pts = np.vstack([np.random.default_rng(0).normal(size=(50, 2)),
                         [[500.0, 500.0]]])
        labels = np.array([1] * 50 + [2])
        ps = PointSet(pts, labels=labels)
        ok, ratio, offender = check_reducibility(ps, [1], 0.01)
        assert not ok
        assert offender == 2
        assert ratio > 1.0

    def test_duplicate_cluster_at_center_passes(self):
        pts = np.vstack([np.zeros((40, 2)), np.zeros((10, 2))])
        labels = np.array([1] * 40 + [2] * 10)
        ps = PointSet(pts, labels=labels)
        ok, ratio, offender = check_reducibility(ps, [1], 1e-9)
        assert ok

    def test_needs_labels(self):
        with pytest.raises(ValueError):
            check_reducibility(PointSet(np.zeros((3, 2))), [1], 0.5)

    @pytest.mark.parametrize("label", [0, 3, 7])
    def test_label_outside_ids_is_rejected(self, label):
        ps = PointSet(np.arange(8.0).reshape(4, 2), labels=np.array([1, 1, 2, 2]))
        with pytest.raises(ValueError, match="outside 1..2"):
            check_reducibility(ps, [1, label], 0.5)

    def test_label_without_points_is_rejected(self):
        # Label 2 has no points: its center would be the NaN mean of an
        # empty slice, and every covering ratio NaN.
        ps = PointSet([(0, 0), (1, 1), (5, 5), (6, 6)], labels=[1, 1, 3, 3])
        with pytest.raises(ValueError, match="outside 1..3"):
            check_reducibility(ps, [1, 2], 0.5)
        assert check_reducibility(ps, [1], 0.5) == (False, 202.0, 3)

    @pytest.mark.parametrize("eps", [-1.0, 0.0, math.nan, math.inf])
    def test_eps_must_be_finite_and_positive(self, eps):
        ps = PointSet(np.arange(8.0).reshape(4, 2), labels=np.array([1, 1, 2, 2]))
        with pytest.raises(ValueError, match="eps"):
            check_reducibility(ps, [1], eps)

    def test_empty_recovered_is_rejected(self):
        ps = PointSet(np.arange(8.0).reshape(4, 2), labels=np.array([1, 1, 2, 2]))
        with pytest.raises(ValueError, match="at least one"):
            check_reducibility(ps, [], 0.5)


class TestRoundTrips:
    def test_table_csv(self, tmp_path):
        plan = small_plan("fixed_recovery", targets=[2], trials=3)
        records, table = run_fixed_recovery(plan)
        path = tmp_path / "table.csv"
        write_table_csv(path, table)
        assert read_table_csv(path) == table

    def test_records_json(self, tmp_path):
        plan = small_plan("fixed_recovery", targets=[2], trials=3)
        records, _ = run_fixed_recovery(plan)
        path = tmp_path / "records.json"
        write_records_json(path, plan, records)
        plan_payload, back = read_records_json(path)
        assert plan_payload == plan.to_payload()
        assert [r.to_payload() for r in back] == [r.to_payload() for r in records]

    def test_file_dataset_source(self, tmp_path):
        ps, _ = generate(SMALL)
        path = tmp_path / "fixture.csv"
        write_csv(path, ps.points, ps.labels)
        plan = ExperimentPlan(mode="fixed_recovery", algorithms=["uniform"],
                              targets=[2], trials=2, seed=3,
                              dataset=DatasetSpec(path))
        records, table = run_fixed_recovery(plan)
        assert all(r.clusters_recovered >= 2 for r in records)
