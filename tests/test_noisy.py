from pathlib import Path

import numpy as np
import pytest

from samecluster.datasets import DatasetSpec, load
from samecluster.geometry import PointSet
from samecluster.noisy import NoisyConfig, find_clusters, group_size_cutoff, run_noisy
from samecluster.oracle import OracleSession
from samecluster.recovery import RecoveryConfig, run_improved


DATA = Path(__file__).parent / "data"


def three_blobs(seed=3, sigma=0.3, size=400):
    rng = np.random.default_rng(seed)
    centers = [(0, 0, 0, 0), (8, 0, 0, 0), (0, 8, 0, 0)]
    pts = np.vstack([rng.normal(loc=c, scale=sigma, size=(size, 4)) for c in centers])
    labels = np.repeat([1, 2, 3], size)
    return PointSet(pts, labels=labels)


class TestNoisyConfig:
    def test_rejects_half(self):
        with pytest.raises(ValueError):
            NoisyConfig(p=0.5)

    def test_accepts_near_half(self):
        NoisyConfig(p=0.49)


class TestGroupSizeCutoff:
    def test_spec_value_t100(self):
        assert group_size_cutoff(100, 1.0) == pytest.approx(66.438, abs=0.01)

    def test_survival_boundary(self):
        # Groups of 67 survive at T=100, groups of 66 do not.
        assert 66 < group_size_cutoff(100, 1.0) < 67


class TestFindClusters:
    def test_exact_oracle_matches_truth(self):
        rng = np.random.default_rng(0)
        labels = rng.integers(1, 5, size=300)
        session = OracleSession(labels)
        samples = list(range(300))
        cfg = NoisyConfig(p=0.0, min_cluster_frac=0.0)
        ids, Z = find_clusters(samples, session, cfg)
        # Every group is label-pure and groups partition the samples.
        seen = []
        for gid in ids:
            labs = {int(labels[x]) for x in Z[gid]}
            assert len(labs) == 1
            seen.extend(Z[gid])
        assert sorted(seen) == samples

    def test_exact_grouping_order(self):
        labels = [7, 7, 2, 7, 2]
        session = OracleSession(labels)
        ids, Z = find_clusters(range(5), session, NoisyConfig(p=0.0, min_cluster_frac=0.0))
        assert Z[1] == [0, 1, 3]
        assert Z[2] == [2, 4]

    def test_small_groups_dropped(self):
        labels = [1] * 95 + [2] * 5
        session = OracleSession(labels)
        ids, Z = find_clusters(range(100), session, NoisyConfig(p=0.0))
        assert len(ids) == 1
        assert len(Z[1]) == 95

    def test_noisy_purity(self):
        # Early placements rest on one or two noisy votes, so individual
        # seeds can dip slightly below 0.99; the aggregate misassignment
        # rate over 20 seeds stays under 1% comfortably.
        pure = 0
        total = 0
        for seed in range(20):
            labels = np.repeat([1, 2], 200)
            session = OracleSession(labels, error_prob=0.1, rng_seed=seed)
            ids, Z = find_clusters(range(400), session,
                                   NoisyConfig(p=0.1, min_cluster_frac=0.0))
            big = sorted(Z.values(), key=len, reverse=True)[:2]
            assert len(big) == 2
            for g in big:
                labs = labels[np.asarray(g)]
                pure += int(np.bincount(labs).max())
                total += len(g)
        assert pure / total >= 0.99

    def test_duplicates_join_same_group(self):
        labels = [1, 1, 1]
        session = OracleSession(labels, error_prob=0.2, rng_seed=0)
        ids, Z = find_clusters([0, 1, 0, 0, 1], session,
                               NoisyConfig(p=0.2, min_cluster_frac=0.0))
        assert sum(len(g) for g in Z.values()) == 5


class TestRunNoisy:
    def test_exact_mode_matches_improved_recovery_set(self):
        ps = three_blobs()
        noisy = run_noisy(ps, OracleSession(ps.labels, error_prob=0.0, rng_seed=1),
                          NoisyConfig(p=0.0), eps=0.5, seed=2)
        improved = run_improved(ps, OracleSession(ps.labels, rng_seed=1),
                                RecoveryConfig(eps=0.5, seed=2, draw_cap=10**9))
        assert noisy.K_recovered == improved.K_recovered == 3
        assert sorted(noisy.truth_labels.values()) == sorted(improved.truth_labels.values())

    def test_noisy_recovers_with_small_errors(self):
        ps = three_blobs()
        sess = OracleSession(ps.labels, error_prob=0.1, rng_seed=5)
        res = run_noisy(ps, sess, NoisyConfig(p=0.1), eps=0.5, seed=6)
        assert res.K_recovered == 3
        assert all(e <= 0.5 for e in res.per_cluster_errors.values())
        assert res.queries_total == sess.ledger

    def test_retention_cap(self):
        ps = three_blobs()
        cfg = NoisyConfig(p=0.1, retain_cap=8)
        sess = OracleSession(ps.labels, error_prob=0.1, rng_seed=7)
        res = run_noisy(ps, sess, cfg, eps=0.5, seed=8)
        # After the run every retained representative set respects the cap
        # for the final K guess (which never exceeded 4 here).
        assert res.K_recovered == 3

    def test_session_config_mismatch_rejected(self):
        ps = three_blobs(size=50)
        sess = OracleSession(ps.labels, error_prob=0.2, rng_seed=0)
        with pytest.raises(ValueError):
            run_noisy(ps, sess, NoisyConfig(p=0.1), eps=0.5)

    def test_deterministic(self):
        ps = three_blobs(size=200)
        a = run_noisy(ps, OracleSession(ps.labels, error_prob=0.1, rng_seed=3),
                      NoisyConfig(p=0.1), eps=0.5, seed=4)
        b = run_noisy(ps, OracleSession(ps.labels, error_prob=0.1, rng_seed=3),
                      NoisyConfig(p=0.1), eps=0.5, seed=4)
        assert a.to_payload() == b.to_payload()

    def test_draw_cap_bail_reports_draw_cap(self):
        # Phase 2 of the first round needs more draws than the cap allows:
        # the run gives up before recovering and must say so.
        ps, _ = load(DatasetSpec(DATA / "three_blobs.csv", normalize=False))
        sess = OracleSession(ps.labels, error_prob=0.1, rng_seed=1)
        res = run_noisy(ps, sess, NoisyConfig(p=0.1), eps=0.5, seed=2, draw_cap=50)
        assert res.K_recovered == 0
        assert res.stop_reason == "draw_cap"
        assert res.incomplete is True
