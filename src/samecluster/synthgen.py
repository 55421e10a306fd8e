"""Synthetic datasets: Zipf cluster sizes, collision groups, Gaussian clouds."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import PointSet, centroid


@dataclass
class SynthConfig:
    n: int = 10_000
    K: int = 20
    alpha: float = 2.5
    sigma: float = 0.3
    b: float = 5.0
    d: int = 10
    rho: float = 0.1
    p_collision: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if not (self.n >= self.K >= 1):
            raise ValueError("need n >= K >= 1")
        if self.d < 1:
            raise ValueError(f"d must be >= 1, got {self.d}")
        if self.alpha <= 1.0:
            raise ValueError("Zipf exponent must exceed 1")
        if min(self.sigma, self.b, self.rho) <= 0:
            raise ValueError("sigma, b and rho must be positive")
        if not (0.0 <= self.p_collision <= 1.0):
            raise ValueError("p_collision must be in [0, 1]")


def _largest_remainder(raw: np.ndarray, total: int) -> np.ndarray:
    """Round nonnegative reals to integers summing to `total`, largest
    fractional parts first (ties to the lower index)."""
    floors = np.floor(raw).astype(np.int64)
    short = total - int(floors.sum())
    order = np.lexsort((np.arange(len(raw)), -(raw - floors)))
    floors[order[:short]] += 1
    return floors


def scale_sizes(weights, n: int) -> np.ndarray:
    """Scale positive weights to integer sizes summing exactly to n, min 1."""
    w = np.asarray(weights, dtype=np.float64)
    sizes = _largest_remainder(w * (n / w.sum()), n)
    # A zero-rounded cluster borrows a point from the currently largest one.
    while (sizes == 0).any():
        sizes[int(np.argmin(sizes))] += 1
        sizes[int(np.argmax(sizes))] -= 1
    return sizes


def zipf_sizes(K: int, alpha: float, n: int, rng: np.random.Generator) -> np.ndarray:
    """K cluster sizes: iid Zipf(alpha) variates on {1..n}, rescaled to sum n.

    Inverse-CDF draws on the truncated support keep everything reproducible;
    largest-remainder rounding makes the rescaling deterministic.
    """
    support = np.arange(1, n + 1, dtype=np.float64)
    pmf = support ** (-alpha)
    cdf = np.cumsum(pmf)
    cdf /= cdf[-1]
    variates = np.searchsorted(cdf, rng.random(K), side="left") + 1
    return scale_sizes(variates.astype(np.float64), n)


class _UnionFind:
    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, a):
        while self.parent[a] != a:
            self.parent[a] = self.parent[self.parent[a]]
            a = self.parent[a]
        return a

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[max(ra, rb)] = min(ra, rb)


def collision_groups(K: int, p_collision: float, rng: np.random.Generator) -> list[list[int]]:
    """Collision groups over clusters 1..K as sorted, leader-first lists.

    Each cluster in turn links, with probability p, to one uniformly chosen
    other cluster; the groups are the connected components. This keeps the
    groups small in the experiment regime p in {0.1, 0.3}, where one coin
    per cluster pair (the Erdos-Renyi graph G(K, p)) would leave a single
    giant component. With p = 1 and K > 1 every cluster links, so no group
    is a singleton.
    """
    uf = _UnionFind(K)
    if p_collision > 0.0 and K > 1:
        for i in range(K):
            if rng.random() < p_collision:
                j = int(rng.integers(0, K - 1))
                if j >= i:
                    j += 1
                uf.union(i, j)
    groups: dict[int, list[int]] = {}
    for i in range(K):
        groups.setdefault(uf.find(i), []).append(i + 1)
    return [sorted(g) for _, g in sorted(groups.items())]


def _uniform_in_ball(rng: np.random.Generator, d: int, radius: float) -> np.ndarray:
    direction = rng.normal(size=d)
    direction /= np.linalg.norm(direction)
    return direction * radius * rng.random() ** (1.0 / d)


def generate(config: SynthConfig):
    """Build the labeled dataset and its true (empirical) per-cluster centroids.

    Group leaders get centers uniform in [0, b]^d; the other clusters of a
    group sit within distance rho of their leader. Cluster i emits sizes[i]
    points from N(mu_i, sigma^2 I).
    """
    rng = np.random.default_rng(config.seed)
    sizes = zipf_sizes(config.K, config.alpha, config.n, rng)
    groups = collision_groups(config.K, config.p_collision, rng)
    centers = np.zeros((config.K, config.d))
    for group in groups:
        leader = group[int(rng.integers(0, len(group)))]
        centers[leader - 1] = rng.uniform(0.0, config.b, size=config.d)
        for cid in group:
            if cid != leader:
                centers[cid - 1] = centers[leader - 1] + _uniform_in_ball(
                    rng, config.d, config.rho)
    points = np.empty((config.n, config.d))
    labels = np.empty(config.n, dtype=np.int64)
    at = 0
    for cid in range(1, config.K + 1):
        m = int(sizes[cid - 1])
        points[at:at + m] = centers[cid - 1] + rng.normal(
            scale=config.sigma, size=(m, config.d))
        labels[at:at + m] = cid
        at += m
    ps = PointSet(points, labels=labels)
    true_centroids = {cid: centroid(ps.cluster_points(cid))
                      for cid in range(1, config.K + 1)}
    return ps, true_centroids
