import math

import numpy as np
import pytest

from samecluster.geometry import (
    CenterSet,
    GeometryError,
    PointSet,
    centroid,
    centroid_error,
    cost,
)


def centers(*pts):
    return CenterSet({i + 1: np.array(p, dtype=float) for i, p in enumerate(pts)})


class TestCost:
    def test_hand_value(self):
        assert cost([(0, 0), (2, 0)], centers((1, 0))) == pytest.approx(2.0)

    def test_every_point_is_a_center(self):
        assert cost([(0, 0), (2, 0)], centers((0, 0), (2, 0))) == 0.0

    def test_empty_center_set_uses_diameter(self):
        assert cost([(0, 0), (1, 0)], CenterSet()) == pytest.approx(2.0)

    def test_empty_center_singleton(self):
        assert cost([(3, 4)], CenterSet()) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(GeometryError):
            cost([(0, 0, 0)], centers((1, 0)))

    def test_empty_center_large_set_unsupported(self):
        pts = np.zeros((2001, 2))
        with pytest.raises(GeometryError):
            cost(pts, CenterSet())

    def test_monotone_in_centers(self):
        rng = np.random.default_rng(7)
        pts = rng.normal(size=(40, 3))
        cs = rng.normal(size=(5, 3))
        for k in range(1, 5):
            small = centers(*cs[:k])
            big = centers(*cs[: k + 1])
            assert cost(pts, big) <= cost(pts, small) + 1e-12

    def test_additive_over_partition(self):
        rng = np.random.default_rng(11)
        pts = rng.normal(size=(30, 2))
        cs = centers((0.0, 0.0), (1.0, 1.0))
        parts = np.array_split(pts, 3)
        assert cost(pts, cs) == pytest.approx(sum(cost(p, cs) for p in parts))


class TestCentroid:
    def test_coordinate_mean(self):
        np.testing.assert_allclose(centroid([(0, 0), (2, 0), (1, 3)]), [1, 1])

    def test_singleton(self):
        np.testing.assert_allclose(centroid([(5, 5)]), [5, 5])

    def test_symmetry(self):
        np.testing.assert_allclose(centroid([(0, 0), (0, 2), (2, 0), (2, 2)]), [1, 1])

    def test_empty_raises(self):
        with pytest.raises(GeometryError):
            centroid(np.empty((0, 2)))

    def test_minimizes_cost(self):
        rng = np.random.default_rng(3)
        pts = rng.normal(size=(25, 4))
        mu = centroid(pts)
        base = cost(pts, centers(mu))
        for _ in range(1000):
            c = mu + rng.normal(scale=0.3, size=4)
            assert cost(pts, centers(c)) >= base - 1e-12


class TestCentroidError:
    def test_hand_value(self):
        assert centroid_error([(0, 0), (2, 0)], (1.5, 0)) == pytest.approx(0.25)

    def test_exact_center(self):
        assert centroid_error([(0, 0), (2, 0)], (1, 0)) == 0.0

    def test_degenerate_exact(self):
        assert centroid_error([(0, 0), (0, 0)], (0, 0)) == 0.0

    def test_degenerate_off(self):
        assert math.isinf(centroid_error([(1, 1), (1, 1)], (0, 0)))

    def test_nonnegative(self):
        rng = np.random.default_rng(5)
        pts = rng.normal(size=(20, 3))
        for _ in range(50):
            assert centroid_error(pts, rng.normal(size=3)) >= 0.0

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5, 6, 7])
    def test_closed_form_equals_two_pass(self, seed):
        # (cost(X, mu_hat) - cost(X, mu)) / cost(X, mu), each cost summed
        # over the points, on clusters of 2-500 points in 1-12 dimensions
        # at coordinate scales 1e-3 to 1e6. The difference of the two sums
        # loses relative accuracy as the excess shrinks against the cost,
        # so mu_hat lies 0.1 to 10 root-mean-square radii from mu (an
        # excess of 1% to 100x the cost).
        rng = np.random.default_rng(seed)
        for _ in range(20):
            n, d = int(rng.integers(2, 501)), int(rng.integers(1, 13))
            scale = 10.0 ** rng.uniform(-3, 6)
            pts = (rng.normal(size=(n, d)) + 5.0 * rng.normal(size=d)) * scale
            mu = centroid(pts)
            base = cost(pts, [mu])
            for step in 10.0 ** rng.uniform(-1, 1, size=3):
                u = rng.normal(size=d)
                mu_hat = mu + u / np.linalg.norm(u) * step * np.sqrt(base / n)
                want = (cost(pts, [mu_hat]) - base) / base
                assert centroid_error(pts, mu_hat) == pytest.approx(want, rel=1e-12, abs=0)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_degenerate_clusters(self, seed):
        # All points equal, at a point whose float mean is exact (one point,
        # or dyadic coordinates), so the cost about the mean is 0.
        rng = np.random.default_rng(seed)
        for _ in range(20):
            n, d = int(rng.integers(1, 501)), int(rng.integers(1, 13))
            scale = 10.0 ** rng.uniform(-3, 6)
            if n == 1:
                x = rng.normal(size=d) * scale
            else:
                x = rng.integers(-64, 65, size=d) * 2.0 ** np.round(np.log2(scale))
            pts = np.tile(x, (n, 1))
            assert cost(pts, [centroid(pts)]) == 0.0
            assert centroid_error(pts, x) == 0.0
            off = x + rng.normal(size=d) * scale
            assert math.isinf(centroid_error(pts, off))

    @pytest.mark.parametrize("labelled", [False, True])
    def test_equal_points_whose_mean_is_inexact(self, labelled):
        # The float mean of three points at 0.1 is not 0.1, yet the cluster
        # has cost 0 about its mean: 0.0 at the point, +inf elsewhere.
        X = [[0.1], [0.1], [0.1]]
        assert np.mean(X) != 0.1
        label = 1 if labelled else None
        if labelled:
            X = PointSet(X, labels=[1, 1, 1])
            sizes, means, costs = X.truth_table()
            assert (sizes[1], means[1].tolist(), costs[1]) == (3, [0.1], 0.0)
        assert centroid_error(X, [0.1], label) == 0.0
        assert centroid_error(X, [5.0], label) == float("inf")

    @pytest.mark.parametrize("seed", range(2))
    def test_equal_points_in_both_paths(self, seed):
        # Any point, repeated 1-500 times in 1-12 dimensions.
        rng = np.random.default_rng(seed)
        for _ in range(20):
            n, d = int(rng.integers(1, 501)), int(rng.integers(1, 13))
            scale = 10.0 ** rng.uniform(-3, 6)
            x = rng.normal(size=d) * scale
            ps = PointSet(np.vstack([np.tile(x, (n, 1)), rng.normal(size=(7, d))]),
                          labels=[1] * n + [2] * 7)
            assert ps.truth_table()[1][1].tobytes() == x.tobytes()
            off = x + rng.normal(size=d) * scale
            for X, label in ((ps.cluster_points(1), None), (ps, 1)):
                assert centroid_error(X, x, label) == 0.0
                assert math.isinf(centroid_error(X, off, label))

    def test_label_row_equals_the_points_form(self):
        rng = np.random.default_rng(8)
        for _ in range(4):
            K = int(rng.integers(1, 9))
            labels = rng.integers(1, K + 1, size=int(rng.integers(1, 600)))
            d = int(rng.integers(1, 13))
            ps = PointSet(rng.normal(size=(len(labels), d)) * 10.0 ** rng.uniform(-3, 6),
                          labels=labels)
            for lab in np.unique(labels):
                for mu_hat in rng.normal(size=(3, d)) * 10.0 ** rng.uniform(-3, 6):
                    got = centroid_error(ps, mu_hat, lab)
                    want = centroid_error(ps.cluster_points(lab), mu_hat)
                    assert got == want

    @pytest.mark.parametrize("label", [-1, 0, 2, 4, 2.5])
    def test_label_without_points_is_an_error(self, label):
        ps = PointSet([(0, 0), (1, 1), (5, 5), (6, 6)], labels=[1, 1, 3, 3])
        with pytest.raises(GeometryError, match="no points"):
            centroid_error(ps, (9, 9), label)


class TestPointSet:
    def test_labels_validated(self):
        with pytest.raises(GeometryError):
            PointSet(np.zeros((3, 2)), labels=[0, 1, 2])
        with pytest.raises(GeometryError):
            PointSet(np.zeros((3, 2)), labels=[1, 2])

    def test_true_centroids(self):
        ps = PointSet([(0, 0), (2, 0), (5, 5)], labels=[1, 1, 2])
        cs = ps.true_centroids()
        np.testing.assert_allclose(cs[1], [1, 0])
        np.testing.assert_allclose(cs[2], [5, 5])

    def test_nonfinite_rejected(self):
        with pytest.raises(GeometryError):
            PointSet([(0.0, np.nan)])

    def test_cluster_points_equal_the_mask_form(self):
        rng = np.random.default_rng(5)
        labels = rng.integers(1, 9, size=500)
        labels[labels == 4] = 5                    # label 4 absent
        ps = PointSet(rng.normal(size=(500, 3)), labels=labels)
        for lab in [*range(0, 11), 2.5]:
            want = ps.points[ps.labels == lab]
            got = ps.cluster_points(lab)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
            if len(want):
                assert centroid_error(got, np.ones(3)) == centroid_error(want, np.ones(3))
        ps.labels = np.where(ps.labels == 5, 1, ps.labels)   # new labels array
        assert ps.cluster_points(5).shape == (0, 3)
        assert ps.cluster_points(1).tobytes() == ps.points[ps.labels == 1].tobytes()

    def test_truth_table_is_kept_and_exact(self):
        rng = np.random.default_rng(6)
        labels = rng.integers(1, 7, size=400)
        labels[labels == 4] = 5                              # label 4 absent
        ps = PointSet(rng.normal(size=(400, 3)) * 7.0, labels=labels)

        def check(table):
            sizes, means, costs = table
            assert len(sizes) == len(means) == len(costs) == ps.n_clusters + 1
            for lab in range(ps.n_clusters + 1):
                pts = ps.points[ps.labels == lab]
                assert sizes[lab] == len(pts)
                if len(pts):
                    mu = pts.mean(axis=0)
                    assert means[lab].tobytes() == mu.tobytes()
                    assert costs[lab] == np.sum((pts - mu) ** 2)

        table = ps.truth_table()
        check(table)
        centroid_error(ps, np.ones(3), 1)
        assert ps.truth_table() is table

        old = table[2][1]
        ps.labels = np.where(ps.labels == 2, 1, ps.labels)   # new labels array
        relabelled = ps.truth_table()
        assert relabelled is not table and relabelled[2][1] != old
        check(relabelled)
        ps.points = ps.points * 2.0                          # new points array
        assert ps.truth_table() is not relabelled
        check(ps.truth_table())

    def test_truth_table_needs_labels(self):
        with pytest.raises(GeometryError):
            PointSet(np.zeros((2, 2))).truth_table()

    def test_cluster_points_need_labels(self):
        with pytest.raises(GeometryError):
            PointSet(np.zeros((2, 2))).cluster_points(1)
