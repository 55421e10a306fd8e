import itertools

import numpy as np
import pytest

from samecluster.synthgen import (
    SynthConfig,
    collision_groups,
    generate,
    scale_sizes,
    zipf_sizes,
)


class TestScaleSizes:
    def test_rank_weight_example(self):
        # Weights 1 : 2^-2.5 : 3^-2.5 scaled to 100 give (80.585, 14.246,
        # 5.170); largest-remainder rounding adds the leftover unit to the
        # first cluster.
        w = np.array([1.0, 2.0 ** -2.5, 3.0 ** -2.5])
        np.testing.assert_array_equal(scale_sizes(w, 100), [81, 14, 5])

    def test_exact_sum_and_min_one(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            k = int(rng.integers(1, 30))
            w = rng.random(k) ** 4 + 1e-9
            n = int(rng.integers(k, 5000))
            sizes = scale_sizes(w, n)
            assert sizes.sum() == n
            assert sizes.min() >= 1


class TestZipfSizes:
    def test_single_cluster_takes_all(self):
        sizes = zipf_sizes(1, 2.5, 500, np.random.default_rng(0))
        np.testing.assert_array_equal(sizes, [500])

    def test_sum_and_minimum(self):
        for seed in range(20):
            sizes = zipf_sizes(15, 2.5, 2000, np.random.default_rng(seed))
            assert sizes.sum() == 2000
            assert sizes.min() >= 1

    def test_skewness_decreases_with_alpha(self):
        # Smaller alpha has a heavier tail, concentrating more mass in the
        # largest cluster after rescaling.
        tops_25, tops_15 = [], []
        for seed in range(40):
            tops_25.append(zipf_sizes(20, 2.5, 10_000, np.random.default_rng(seed)).max())
            tops_15.append(zipf_sizes(20, 1.5, 10_000, np.random.default_rng(seed)).max())
        assert np.mean(tops_15) > np.mean(tops_25)


class TestCollisionGroups:
    def test_p_zero_all_singletons(self):
        groups = collision_groups(10, 0.0, np.random.default_rng(0))
        assert groups == [[i] for i in range(1, 11)]

    def test_p_one_no_singletons(self):
        # Every cluster links to a partner.
        for seed in range(30):
            groups = collision_groups(10, 1.0, np.random.default_rng(seed))
            assert all(len(g) > 1 for g in groups)

    def test_partition_property(self):
        for seed in range(30):
            groups = collision_groups(25, 0.15, np.random.default_rng(seed))
            flat = sorted(c for g in groups for c in g)
            assert flat == list(range(1, 26))

    def test_group_count_decreases_with_p(self):
        def mean_groups(p):
            return np.mean([len(collision_groups(100, p, np.random.default_rng(s)))
                            for s in range(50)])
        m0 = mean_groups(0.0)
        m_lo, m_mid = mean_groups(0.005), mean_groups(0.02)
        m1, m3 = mean_groups(0.1), mean_groups(0.3)
        assert m0 == 100
        assert 1 < m_mid < m_lo < 100
        assert m3 <= m1 <= m_mid


class TestGenerate:
    def test_reproducible(self):
        cfg = SynthConfig(n=500, K=5, seed=42)
        a, ca = generate(cfg)
        b, cb = generate(cfg)
        np.testing.assert_array_equal(a.points, b.points)
        np.testing.assert_array_equal(a.labels, b.labels)
        for cid in ca:
            np.testing.assert_array_equal(ca[cid], cb[cid])

    def test_label_counts_match_sizes(self):
        cfg = SynthConfig(n=2000, K=8, seed=7)
        ps, _ = generate(cfg)
        rng = np.random.default_rng(cfg.seed)
        sizes = zipf_sizes(cfg.K, cfg.alpha, cfg.n, rng)
        np.testing.assert_array_equal(np.bincount(ps.labels)[1:], sizes)

    def test_degenerate_sigma(self):
        cfg = SynthConfig(n=300, K=3, sigma=1e-9, d=4, seed=1)
        ps, centroids = generate(cfg)
        for cid, mu in centroids.items():
            pts = ps.cluster_points(cid)
            assert np.abs(pts - mu).max() < 1e-6

    def test_cluster_means_near_centers(self):
        # CLT bound: empirical mean within 3 sigma / sqrt(size) per coordinate
        # (checked at 4 sigma to keep the seed-independent failure rate tiny).
        cfg = SynthConfig(n=10_000, K=20, p_collision=0.0, seed=3)
        ps, centroids = generate(cfg)
        rng = np.random.default_rng(cfg.seed)
        sizes = zipf_sizes(cfg.K, cfg.alpha, cfg.n, rng)
        for cid in range(1, 21):
            pts = ps.cluster_points(cid)
            gap = np.abs(pts.mean(axis=0) - centroids[cid])
            assert (gap <= 4 * cfg.sigma / np.sqrt(sizes[cid - 1]) + 1e-12).all()

    def test_collisions_put_centers_close(self):
        # Replay generate's groups. The centers of one group lie within rho
        # of its leader, so within 2 rho of each other; each empirical
        # centroid adds 4 sigma / sqrt(size) per coordinate of slack.
        cfg = SynthConfig(n=2000, K=15, p_collision=0.3, seed=5)
        ps, centroids = generate(cfg)
        rng = np.random.default_rng(cfg.seed)
        sizes = zipf_sizes(cfg.K, cfg.alpha, cfg.n, rng)
        groups = [g for g in collision_groups(cfg.K, cfg.p_collision, rng)
                  if len(g) > 1]
        assert groups
        slack = 4 * cfg.sigma * np.sqrt(cfg.d / sizes)
        for g in groups:
            for a, b in itertools.combinations(g, 2):
                gap = np.linalg.norm(centroids[a] - centroids[b])
                assert gap <= 2 * cfg.rho + slack[a - 1] + slack[b - 1], (a, b)


class TestSynthConfigValidation:
    def test_bad_alpha(self):
        with pytest.raises(ValueError):
            SynthConfig(n=10, K=2, alpha=1.0)

    @pytest.mark.parametrize("d", [0, -1])
    def test_bad_dimension(self, d):
        for p in (0.0, 0.5):
            with pytest.raises(ValueError, match=f"d must be >= 1, got {d}"):
                SynthConfig(n=50, K=3, d=d, p_collision=p)

    def test_bad_sizes(self):
        with pytest.raises(ValueError):
            SynthConfig(n=5, K=10)
