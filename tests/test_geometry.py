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

    def test_cluster_truth_is_kept_and_exact(self):
        rng = np.random.default_rng(6)
        ps = PointSet(rng.normal(size=(400, 3)) * 7.0, labels=rng.integers(1, 6, size=400))
        for lab in range(1, 6):
            truth = ps.cluster_truth(lab)
            assert ps.cluster_truth(np.int64(lab)) is truth
            for mu_hat in rng.normal(size=(4, 3)):
                got = centroid_error(ps.cluster_points(lab), mu_hat, truth=truth)
                assert got == centroid_error(ps.cluster_points(lab), mu_hat)

        def base(lab):
            pts = ps.points[ps.labels == lab]
            return float(np.sum((pts - pts.mean(axis=0)) ** 2))

        old = ps.cluster_truth(1)[1]
        ps.labels = np.where(ps.labels == 2, 1, ps.labels)   # new labels array
        assert ps.cluster_truth(1)[1] == base(1) != old
        ps.points = ps.points * 2.0                          # new points array
        assert ps.cluster_truth(1)[1] == base(1)

    def test_cluster_points_need_labels(self):
        with pytest.raises(GeometryError):
            PointSet(np.zeros((2, 2))).cluster_points(1)
