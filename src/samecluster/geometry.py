"""Points, point sets, the squared-distance cost function and centroid error."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# Empty-center cost needs all pairwise distances; cap the quadratic scan.
_EMPTY_COST_MAX_POINTS = 2000


class GeometryError(ValueError):
    pass


def as_points(points) -> np.ndarray:
    """Coerce to a C-contiguous float64 (n, d) array, validating finiteness.

    Row sums then add in one order, over all rows or over gathered ones.
    """
    arr = np.asarray(points, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    if arr.ndim != 2:
        raise GeometryError(f"points must be 2-d, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise GeometryError("points contain non-finite coordinates")
    return np.ascontiguousarray(arr)


@dataclass
class PointSet:
    """Input points with optional ground-truth cluster labels (1-based, dense)."""

    points: np.ndarray
    labels: np.ndarray | None = None
    # (labels, stable argsort of labels, label start offsets), built on first use.
    _by_label: tuple | None = field(default=None, init=False, repr=False, compare=False)
    # (points, labels, (sizes, means, costs) indexed by label), built on first use.
    _truth: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.points = as_points(self.points)
        if self.labels is not None:
            self.labels = np.asarray(self.labels, dtype=np.int64)
            if self.labels.shape != (len(self.points),):
                raise GeometryError("labels length must match number of points")
            if self.labels.min(initial=1) < 1:
                raise GeometryError("labels must be positive integers")

    def __len__(self):
        return len(self.points)

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @property
    def n_clusters(self) -> int:
        if self.labels is None:
            raise GeometryError("point set has no ground-truth labels")
        return int(self.labels.max())

    def cluster_points(self, label: int) -> np.ndarray:
        """The points labelled `label`, in index order (points[labels == label]).

        Served from one stable sort of the labels, kept while the labels
        array is the same object.
        """
        if self.labels is None:
            raise GeometryError("point set has no ground-truth labels")
        if self._by_label is None or self._by_label[0] is not self.labels:
            order = np.argsort(self.labels, kind="stable").astype(np.int32)
            starts = np.concatenate([[0], np.cumsum(np.bincount(self.labels))])
            self._by_label = (self.labels, order, starts)
        _, order, starts = self._by_label
        if label not in range(len(starts) - 1):
            return self.points[:0]
        return self.points[order[starts[int(label)]:starts[int(label) + 1]]]

    def truth_table(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(sizes, means, costs about the means) of the true clusters, indexed
        by label (size 0 where a label has no points; a cluster of equal
        points has that point as its mean and cost 0); built one cluster
        at a time and kept while the points and labels arrays are the same
        objects."""
        if self._truth is None or self._truth[0] is not self.points \
                or self._truth[1] is not self.labels:
            means = np.zeros((self.n_clusters + 1, self.dim))
            sizes, costs = np.bincount(self.labels), np.zeros(len(means))
            for lab in np.flatnonzero(sizes):
                means[lab], costs[lab] = _truth_row(self.cluster_points(lab))
            self._truth = (self.points, self.labels, (sizes, means, costs))
        return self._truth[2]

    def true_centroids(self) -> "CenterSet":
        """Centroid of each ground-truth cluster, keyed by label."""
        return CenterSet(
            {lab: centroid(self.cluster_points(lab)) for lab in range(1, self.n_clusters + 1)}
        )


@dataclass
class CenterSet:
    """Approximate or true centroids keyed by cluster index."""

    centers: dict[int, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        self.centers = {int(i): np.asarray(c, dtype=np.float64).ravel() for i, c in self.centers.items()}

    def __len__(self):
        return len(self.centers)

    def __contains__(self, i):
        return i in self.centers

    def __getitem__(self, i) -> np.ndarray:
        return self.centers[i]

    def add(self, i: int, center) -> None:
        self.centers[int(i)] = np.asarray(center, dtype=np.float64).ravel()


def sq_dists_to_set(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Squared Euclidean distance from each point to its nearest center."""
    points = np.atleast_2d(points)
    centers = np.atleast_2d(centers)
    if points.shape[1] != centers.shape[1]:
        raise GeometryError(
            f"dimension mismatch: points are {points.shape[1]}-d, centers {centers.shape[1]}-d"
        )
    # (n, k) via broadcasting; fine at desk scale.
    diff = points[:, None, :] - centers[None, :, :]
    return np.min(np.einsum("nkd,nkd->nk", diff, diff), axis=1)


def _point_array(X) -> np.ndarray:
    if isinstance(X, PointSet):
        return X.points
    return as_points(X)


def cost(X, C) -> float:
    """Cost of covering X with centers C: sum over x of min_c ||x - c||^2.

    With no centers the cost is |X| times the squared diameter of X (0 for
    fewer than two points); that scan is quadratic and only supported for
    small X.
    """
    pts = _point_array(X)
    centers = C.centers if isinstance(C, CenterSet) else dict(enumerate(C)) if C is not None else {}
    if not centers:
        if len(pts) <= 1:
            return 0.0
        if len(pts) > _EMPTY_COST_MAX_POINTS:
            raise GeometryError(
                "empty-center cost needs an O(n^2) diameter scan; "
                f"unsupported above {_EMPTY_COST_MAX_POINTS} points"
            )
        sq = np.sum(pts * pts, axis=1)
        d2 = sq[:, None] + sq[None, :] - 2.0 * (pts @ pts.T)
        return float(len(pts) * max(d2.max(), 0.0))
    carr = np.vstack(list(centers.values()))
    return float(np.sum(sq_dists_to_set(pts, carr)))


def centroid(X) -> np.ndarray:
    """Coordinate-wise mean; the minimizer of c -> cost(X, {c})."""
    pts = _point_array(X)
    if len(pts) == 0:
        raise GeometryError("centroid of an empty point collection")
    return pts.mean(axis=0)


def _truth_row(pts: np.ndarray) -> tuple[np.ndarray, float]:
    """(mean, cost about the mean) of a non-empty cluster's points. Points
    that are all equal give that point and cost 0, since their float mean
    need not round back to it."""
    mu = centroid(pts)
    if (pts == pts[0]).all():
        return pts[0], 0.0
    return mu, np.sum((pts - mu) ** 2)


def centroid_error(X, mu_hat, label=None) -> float:
    """Relative excess cost (cost(X, mu_hat) - cost(X, mu)) / cost(X, mu) of an
    approximate centroid, in closed form: |X| ||mu_hat - mu||^2 / cost(X, mu)
    by the parallel-axis identity. X holds the cluster's points; with
    `label`, X is a PointSet and the cluster's row comes from its
    truth_table(). A degenerate cluster (cost 0 about its mean, as when its
    points are all equal) reports 0.0 for an exact center and +inf
    otherwise."""
    if label is None:
        pts = _point_array(X)
        size, (mu, base) = len(pts), _truth_row(pts)
    else:
        sizes, means, costs = X.truth_table()
        if label not in range(len(sizes)) or sizes[label] == 0:
            raise GeometryError(f"no points labelled {label}")
        size, mu, base = sizes[label], means[label], costs[label]
    diff = np.asarray(mu_hat, dtype=np.float64).ravel() - mu
    excess = float(size * (diff @ diff))
    if base == 0.0:
        return 0.0 if excess == 0.0 else float("inf")
    return excess / float(base)
