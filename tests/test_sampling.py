import copy
import hashlib
import json
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from samecluster import sampling
from samecluster.datasets import DatasetSpec, load
from samecluster.geometry import GeometryError
from samecluster.oracle import BudgetExhausted, OracleSession, Representatives, classify
from samecluster.sampling import (
    FullyCovered,
    SamplerState,
    add_center,
    d2_sample_batch,
    reference_point,
    rej_samp,
)


class TestAddCenter:
    def test_pointwise_min(self):
        st = SamplerState([[0.0], [3.0]])
        add_center(st, [2.0])       # dists^2 = (4, 1)
        np.testing.assert_allclose(st.weights, [4.0, 1.0])
        add_center(st, [-1.0])      # dists^2 = (1, 16)
        np.testing.assert_allclose(st.weights, [1.0, 1.0])

    def test_center_on_data_point(self):
        st = SamplerState([[0.0, 0.0], [1.0, 1.0]])
        add_center(st, [1.0, 1.0])
        assert st.weights[1] == 0.0

    def test_idempotent(self):
        st = SamplerState(np.random.default_rng(0).normal(size=(10, 3)))
        add_center(st, np.zeros(3))
        w1 = st.weights.copy()
        add_center(st, np.zeros(3))
        np.testing.assert_array_equal(st.weights, w1)

    def test_dimension_mismatch(self):
        with pytest.raises(GeometryError):
            add_center(SamplerState([[0.0, 0.0]]), [1.0])

    def test_incremental_equals_batch(self):
        rng = np.random.default_rng(42)
        pts = rng.normal(size=(200, 5))
        cs = rng.normal(size=(6, 5))
        st = SamplerState(pts)
        for c in cs:
            add_center(st, c)
        fresh = np.min(
            ((pts[:, None, :] - cs[None, :, :]) ** 2).sum(axis=2), axis=1
        )
        np.testing.assert_allclose(st.weights, fresh, rtol=1e-9)
        assert st.total == pytest.approx(fresh.sum(), rel=1e-9)


def add_center_reference(weights, points, c):
    """The full-pass update: every weight against its exact d^2."""
    diff = points - np.asarray(c, dtype=np.float64)
    d2 = np.einsum("nd,nd->n", diff, diff)
    return d2 if weights is None else np.minimum(weights, d2)


class TestAddCenterExact:
    """The screened update is bit-equal to the full pass after every center."""

    @staticmethod
    def check(points, centers, weights=None):
        """Add `centers` in turn. `weights(st, c)`, if given, returns the
        weights to assign between centers, before c is added."""
        st = SamplerState(points)
        w = None
        for c in centers:
            if weights is not None and w is not None:
                w = np.asarray(weights(st, c), dtype=np.float64)
                st.weights = w.copy()
            add_center(st, c)
            w = add_center_reference(w, st.points, c)
            assert st.weights.tobytes() == w.tobytes()
            assert st.total == float(w.sum())

    @staticmethod
    def just_above(st, c):
        """Each weight one ulp above the d^2 that c gives it: every point's
        weight drops, so the screen may skip none."""
        return np.nextafter(add_center_reference(None, st.points, c), np.inf)

    def test_integer_grids_with_ties(self):
        rng = np.random.default_rng(0)
        for d in (1, 2, 3, 4):
            grid = np.stack(np.meshgrid(*[np.arange(-3.0, 4.0)] * d), -1).reshape(-1, d)
            pts = np.vstack([grid, grid[::5], grid[:7]])        # duplicate points
            on_points = list(grid[rng.integers(0, len(grid), size=6)])
            halves = list(rng.integers(-6, 7, size=(6, d)) / 2.0)  # equidistant ties
            centers = on_points + halves + on_points[:3]         # repeated centers
            rng.shuffle(centers)
            self.check(pts, centers)

    @pytest.mark.parametrize("scale, offset", [(1e-8, 0.0), (1.0, 0.0), (1e8, 0.0), (1.0, 1e8),
                                               (1e-30, 0.0), (1e30, 0.0)])
    def test_scales_and_dimensions(self, scale, offset):
        rng = np.random.default_rng(1)
        for d in (1, 2, 3, 5, 10, 20, 35, 50):
            means = rng.normal(scale=8.0, size=(6, d))
            pts = means[rng.integers(0, 6, size=600)] + rng.normal(size=(600, d))
            pts = pts * scale + offset
            centers = [pts[i] for i in rng.integers(0, 600, size=5)]   # on points
            centers += [m * scale + offset for m in means]
            centers.append(centers[0])
            self.check(pts, centers)
            self.check(pts, centers, self.just_above)

    @pytest.mark.parametrize("d", [100, 300, 1000])
    def test_high_dimensions(self, d):
        rng = np.random.default_rng(d)
        means = rng.normal(scale=3.0, size=(4, d))
        pts = means[rng.integers(0, 4, size=200)] + rng.normal(size=(200, d))
        centers = [pts[0], means[1], pts[7], means[2], means[1]]
        self.check(pts, centers)
        self.check(pts, centers, self.just_above)

    @pytest.mark.parametrize("tiny", [1e-30, 1e-36, 1e-40, 1e-45, 1e-50])
    def test_tiny_coordinates_beside_large_ones(self, tiny):
        # Scaled by about 2^-10, the small coordinates and their products
        # fall into (or below) float32's subnormal range.
        rng = np.random.default_rng(2)
        for d in (1, 2, 3):
            small = rng.uniform(1.0, 4.0, size=(300, d)) * tiny
            pts = np.vstack([small, np.full((1, d), 1e3), -small[:20]])
            centers = [pts[i] for i in rng.integers(0, len(pts), size=4)]
            centers += [small.mean(axis=0), small[:3].mean(axis=0), np.zeros(d)]
            self.check(pts, centers)
            self.check(pts, centers, self.just_above)
            self.check(pts, centers, lambda st, c: rng.permutation(self.just_above(st, c)))

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_rounding_at_its_worst(self, d):
        # Every coordinate sits just below a float32 rounding midpoint above
        # 1/2, so the float32 product misses each term x_i c_i by about
        # 2^-25: the screen's relative margin must cover it.
        rng = np.random.default_rng(3)
        k = rng.integers(1, 2 ** 20, size=(400, d))
        pts = 0.5 + 2.0 ** -25 - k * 2.0 ** -50
        centers = [pts[i] for i in rng.integers(0, 400, size=6)]
        centers.append(pts[:50].mean(axis=0))
        self.check(pts, centers, self.just_above)

    def test_signed_zeros_and_points_on_centers(self):
        pts = np.array([[0.0, -0.0], [-0.0, -0.0], [0.0, 1.0], [-0.0, 1.0],
                        [1.0, -0.0], [3.0, 4.0], [3.0, 4.0]])
        centers = [[-0.0, 0.0], [3.0, 4.0], [0.0, -0.0], [-0.0, 1.0], [1.0, 0.0], [3.0, 4.0]]
        self.check(pts, [np.array(c) for c in centers])
        self.check(pts, [np.array(c) for c in centers], self.just_above)

    @pytest.mark.parametrize("scale", [1e-30, 10.0])
    def test_weights_assigned_between_centers(self, scale):
        # At scale 1e-30, w s^2 overflows for the 1e300 weights.
        rng = np.random.default_rng(4)
        pts = rng.normal(size=(500, 4)) * scale
        centers = [pts[i] for i in range(0, 500, 50)]
        draws = iter([lambda n: rng.integers(0, 5, size=n) * scale ** 2,
                      lambda n: rng.exponential(4.0, size=n) * scale ** 2,
                      lambda n: np.zeros(n),
                      lambda n: np.full(n, 1e300)] * 3)
        self.check(pts, centers, lambda st, c: next(draws)(len(pts)))

    def test_far_centers_take_the_exact_path(self):
        # A center 1e20 times outside the points is past the screen's 2^64
        # limit on a scaled coordinate; one 1e40 times outside would also
        # overflow float32. Weights assigned near 1e300 still drop to the
        # center's d^2.
        rng = np.random.default_rng(5)
        pts = rng.uniform(1.0, 2.0, size=(200, 3))
        for far in (1e40, 1e20):
            centers = [pts[0], np.full(3, -far), pts[1], np.array([far, -far, 0.0])]
            self.check(pts, centers, lambda st, c: np.full(len(pts), 1e300))
            self.check(pts, centers)
        st = SamplerState(pts)
        add_center(st, pts[0])
        assert sampling._candidates(st, np.full(3, -1e20)).tolist() == list(range(200))

    def test_screen_copy(self):
        rng = np.random.default_rng(6)
        for top in (1e-140, 3e-30, 0.5, 1.0, 3.0, 1e30, 1e140):
            pts = rng.uniform(-1.0, 1.0, size=(50, 3)) * top
            pts[7, 1] = top
            st = SamplerState(pts)
            s = st._scale
            assert np.frexp(s)[0] == 0.5                      # a power of two
            assert 0.5 <= np.abs(pts * s).max() < 1.0
            add_center(st, pts[0])
            st.weights                                        # applies the queued center
            assert st._xt is None                             # built at the second center
            add_center(st, pts[1])
            st.weights
            assert st._xt.flags.c_contiguous
            assert st._xt.tobytes() == (pts * s).T.astype(np.float32).tobytes()
        assert SamplerState(np.full((3, 2), 1e200))._scale == 0.0     # squares overflow
        assert SamplerState(np.full((3, 2), 1e-200))._scale == 0.0    # squares underflow
        assert SamplerState(np.zeros((4, 2)))._scale == 1.0

    def test_screen_skips_far_points(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(300, 5))
        b = rng.normal(size=(200, 5)) + 100.0
        st = SamplerState(np.vstack([a, b]))
        add_center(st, a.mean(axis=0))
        st.weights                                  # applies the queued center
        cand = sampling._candidates(st, b.mean(axis=0))
        assert set(cand.tolist()) == set(range(300, 500))


class TestAddCenterLayout:
    def test_f_ordered_points_match_a_c_ordered_full_pass(self):
        # datasets.load's column mask leaves an F-ordered feature array;
        # the weights must still be those of a full pass over C-ordered rows.
        ps, _ = load(DatasetSpec(Path(__file__).parent / "data" / "three_blobs.csv"))
        ref = np.ascontiguousarray(ps.points)
        rng = np.random.default_rng(8)
        centers = [ps.cluster_points(lab).mean(axis=0) for lab in (1, 2, 3)]
        centers += [ref[i] for i in rng.integers(0, len(ref), size=3)]
        for points in (ps.points, np.asfortranarray(ref)):
            st = SamplerState(points)
            w = None
            for c in centers:
                add_center(st, c)
                w = add_center_reference(w, ref, c)
                assert st.weights.tobytes() == w.tobytes()
                assert st.total == float(w.sum())


class TestNonFinite:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_points_rejected(self, bad):
        with pytest.raises(GeometryError):
            SamplerState([[0.0, 1.0], [bad, 2.0], [3.0, 4.0]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("first", [True, False])
    def test_center_rejected(self, bad, first):
        # A NaN center used to turn every weight and the total into NaN,
        # after which every D2 draw returned the last index.
        st = SamplerState([[0.0], [1.0], [5.0]])
        if not first:
            add_center(st, [1.0])
        w, total, version = st.weights.copy(), st.total, st.centers_version
        with pytest.raises(GeometryError):
            add_center(st, [bad])
        assert st.weights.tobytes() == w.tobytes()
        assert (st.total, st.centers_version) == (total, version)


class TestD2Sample:
    def test_ratio_distribution(self):
        st = SamplerState([[0.0], [2.0]])
        add_center(st, [-1.0])      # weights 1, 9 -> Pr(b) = 0.75... use spec's 1:3
        st.weights = np.array([1.0, 3.0])   # drops the queued center and the prefix sums
        rng = np.random.default_rng(0)
        draws = d2_sample_batch(st, rng, 20000)
        assert np.mean(draws == 1) == pytest.approx(0.75, abs=0.02)

    def test_uniform_fallback_no_centers(self):
        st = SamplerState(np.zeros((4, 1)))
        rng = np.random.default_rng(1)
        draws = d2_sample_batch(st, rng, 40000)
        counts = np.bincount(draws, minlength=4) / 40000
        np.testing.assert_allclose(counts, 0.25, atol=0.02)

    def test_single_support_point(self):
        st = SamplerState([[0.0], [5.0]])
        add_center(st, [5.0])       # weights 25, 0
        rng = np.random.default_rng(2)
        assert set(d2_sample_batch(st, rng, 200).tolist()) == {0}

    def test_fully_covered_raises(self):
        st = SamplerState([[1.0], [2.0]])
        add_center(st, [1.0])
        add_center(st, [2.0])
        with pytest.raises(FullyCovered):
            d2_sample_batch(st, np.random.default_rng(0), 1)

    def test_zero_weight_points_never_drawn(self):
        st = SamplerState([[0.0], [1.0], [2.0]])
        add_center(st, [1.0])
        draws = d2_sample_batch(st, np.random.default_rng(3), 5000)
        assert 1 not in set(draws.tolist())


def d2_sample_reference(cs, rng, size):
    """Draw-at-a-time form of d2_sample_batch: one binary search per uniform."""
    return np.minimum(np.searchsorted(cs, rng.random(size) * cs[-1], side="right"),
                      len(cs) - 1)


class _Uniforms:
    """Stands in for a Generator: random(size) hands out the given uniforms."""

    def __init__(self, u):
        self.u = np.asarray(u, dtype=np.float64)
        self.pos = 0

    def random(self, size):
        out = self.u[self.pos:self.pos + size]
        self.pos += size
        return out


def _weighted_state(weights) -> SamplerState:
    w = np.asarray(weights, dtype=np.float64)
    st = SamplerState(np.zeros((len(w), 1)))
    st.weights = w.copy()           # sums the total
    st.centers_version = 1
    return st


def _weight_cases():
    rng = np.random.default_rng(7)
    yield "n=1", np.array([3.0])
    yield "single nonzero", np.eye(1, 37, 23).ravel()
    yield "leading zeros", np.concatenate([np.zeros(5), rng.random(40)])
    yield "trailing zeros", np.concatenate([rng.random(40), np.zeros(5)])
    z = rng.random(300)
    z[rng.random(300) < 0.3] = 0.0
    yield "scattered zeros", z
    yield "equal weights, n=64", np.full(64, 0.7)
    yield "equal weights, n=100", np.full(100, 1.0)
    yield "runs of equal weights", np.repeat(rng.integers(0, 4, size=40) / 4.0, 9)
    yield "integer grid", rng.integers(0, 6, size=257).astype(np.float64)
    for scale in (1e-8, 1e8):
        yield f"scale {scale:g}", rng.random(500) * scale
        yield f"runs at scale {scale:g}", np.repeat(rng.integers(0, 3, size=30), 7) * scale
    yield "heavy tail", rng.pareto(0.5, size=400)
    # A subnormal total: u top rounds up to top for u near 1.
    yield "subnormal total", np.ldexp(rng.random(300), -1070)
    yield "subnormal, a trailing zero", np.ldexp(np.append(rng.random(40), 0.0), -1066)


class TestGuideTable:
    """d2_sample_batch returns the reference's indices and leaves the
    generator where the reference leaves it."""

    @staticmethod
    def check(st, seed, size):
        r1, r2 = np.random.default_rng(seed), np.random.default_rng(seed)
        got = d2_sample_batch(st, r1, size)
        want = d2_sample_reference(st.cumsum(), r2, size)
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)
        assert r1.bit_generator.state == r2.bit_generator.state

    @pytest.mark.parametrize("case, weights", list(_weight_cases()),
                             ids=[c for c, _ in _weight_cases()])
    def test_random_draws_match_reference(self, case, weights):
        n = len(weights)
        for size in (max(n - 1, 1), n, n + 1, 40 * n + 3):
            st = _weighted_state(weights)
            self.check(st, n + size, size)
            self.check(st, size, 7)             # reuses the table built above

    @staticmethod
    def check_boundaries(st):
        """Uniforms on and a few ulps either side of every cell edge k/m of
        the table and every prefix-sum fraction cs[i]/top."""
        m = len(st._guide[1])
        cs = st.cumsum()
        base = np.concatenate([np.arange(m + 1) * (1.0 / m), cs / cs[-1]])
        u = [base]
        for steps in (1, 2, 3, 8):
            u.append(base + steps * np.spacing(base))
            u.append(base - steps * np.spacing(base))
        u = np.unique(np.concatenate(u))
        u = u[(u >= 0.0) & (u < 1.0)]
        got = d2_sample_batch(st, _Uniforms(u), len(u))
        np.testing.assert_array_equal(got, d2_sample_reference(cs, _Uniforms(u), len(u)))

    @pytest.mark.parametrize("case, weights", list(_weight_cases()),
                             ids=[c for c, _ in _weight_cases()])
    def test_uniforms_at_every_boundary(self, case, weights):
        st = _weighted_state(weights)
        d2_sample_batch(st, np.random.default_rng(0), len(weights))
        self.check_boundaries(st)

    @pytest.mark.parametrize("n", [3, 100, 1000, 3001])
    def test_prefix_sums_on_cell_edges(self, n):
        # top = 1 and every prefix sum equal to a cell edge k/m, where a
        # draw one ulp from the edge is on the wrong side of it unless the
        # cell of u is exact.
        rng = np.random.default_rng(n)
        probe = _weighted_state(np.ones(n))
        d2_sample_batch(probe, rng, n)
        m = len(probe._guide[1])
        ks = np.sort(rng.choice(np.arange(1, m), size=n - 1, replace=False))
        edges = np.append(ks * (1.0 / m), 1.0)
        st = _weighted_state(np.diff(edges, prepend=0.0))
        assert np.count_nonzero(st.cumsum() == edges) >= n // 2
        d2_sample_batch(st, rng, n)
        self.check_boundaries(st)

    @pytest.mark.parametrize("weights", [
        np.concatenate([[0.3], np.zeros(1000), [0.7]]),
        np.append(np.full(10 ** 4, 1e-9), 1e6),
        np.insert(np.full(10 ** 4, 1e-9), 0, 1e6),
    ], ids=["1000 zeros between two weights", "tiny weights then a huge one",
            "a huge weight then tiny ones"])
    def test_crowded_cells_fall_back_to_the_search(self, monkeypatch, weights):
        # One cell holds far more prefix sums than the refinement steps
        # through, so the draws past its first sums take the full search.
        st = _weighted_state(weights)
        d2_sample_batch(st, np.random.default_rng(0), len(weights))
        search, searched = sampling._search, []

        def search_spy(cs, key):
            searched.append(len(key))
            return search(cs, key)

        monkeypatch.setattr(sampling, "_search", search_spy)
        self.check_boundaries(st)
        assert max(searched) > 0
        self.check(st, 4, 40 * len(weights))

    def test_small_calls_build_no_table(self):
        st = _weighted_state(np.arange(1.0, 101.0))
        self.check(st, 1, 99)
        assert st._guide is None
        self.check(st, 2, 100)
        assert st._guide is not None

    def test_overflowing_total_builds_no_table(self):
        with np.errstate(over="ignore"):
            st = _weighted_state([1e308, 1e308, 0.0])
            self.check(st, 4, 30)
        assert st._guide is None

    def test_table_follows_the_weights(self):
        rng = np.random.default_rng(3)
        pts = rng.normal(size=(300, 2))
        st = SamplerState(pts)
        add_center(st, pts[0])
        self.check(st, 10, 3000)
        table = st._guide
        self.check(st, 11, 5)
        assert st._guide is table               # reused across calls
        add_center(st, pts[1])                  # new weights drop the table
        self.check(st, 12, 50)
        self.check(st, 13, 3000)
        assert st._guide is not table
        st.weights = np.where(np.arange(300) < 150, st.weights, 0.0)   # so does a reset by hand
        self.check(st, 14, 1)
        self.check(st, 15, 3000)
        assert set(d2_sample_batch(st, rng, 3000).tolist()) <= set(range(150))


class TestDeferredCenters:
    """add_center queues its center. Every read equals the weights of
    applying each center as it comes, byte for byte, whether the read
    applies the queue (weights, total, d2_sample_batch) or reads through it
    (weights_at)."""

    @staticmethod
    def replay(points, steps, seed=0):
        """Run the steps ("add", c), ("bad", c), ("at", idx), ("weights",),
        ("total",) and ("draw", size) on one state, checking each against
        the eager reference."""
        st = SamplerState(points)
        n = st.n_points
        w = np.ones(n)                  # the eager weights
        first = True
        r1, r2 = np.random.default_rng(seed), np.random.default_rng(seed)
        for op, *arg in steps:
            pending, version = len(st._pending), st.centers_version
            if op == "add":
                add_center(st, arg[0])
                w = add_center_reference(None if first else w, st.points, arg[0])
                first = False
                assert len(st._pending) == pending + 1
            elif op == "bad":
                with pytest.raises(GeometryError):
                    add_center(st, arg[0])
                assert (len(st._pending), st.centers_version) == (pending, version)
            elif op == "at":
                idx = np.asarray(arg[0], dtype=np.int64)
                assert st.weights_at(idx).tobytes() == w[idx].tobytes()
                # The queue is applied only where the gather would be larger
                # than a full pass.
                assert len(st._pending) == (0 if len(idx) * pending > n else pending)
            elif op == "weights":
                assert st.weights.tobytes() == w.tobytes()
                assert not st._pending
            elif op == "total":
                assert st.total == float(w.sum())
            elif not first and w.sum() == 0.0:
                with pytest.raises(FullyCovered):
                    d2_sample_batch(st, r1, arg[0])
            else:
                got = d2_sample_batch(st, r1, arg[0])
                want = (r2.integers(0, n, size=arg[0]) if first
                        else d2_sample_reference(np.cumsum(w), r2, arg[0]))
                np.testing.assert_array_equal(got, want)

    @staticmethod
    def script(rng, centers, n):
        """Each center followed by 0 to 3 reads of random kinds."""
        steps = []
        for c in centers:
            steps.append(("add", c))
            for _ in range(int(rng.integers(0, 4))):
                kind = int(rng.integers(0, 7))
                if kind == 0:
                    steps.append(("at", rng.integers(0, n, size=int(rng.integers(1, n)))))
                elif kind == 1:
                    steps.append(("at", rng.integers(0, n, size=int(rng.integers(1, 8)))))
                elif kind == 2:
                    steps.append(("at", []))
                elif kind == 3:
                    steps.append(("weights",))
                elif kind == 4:
                    steps.append(("total",))
                else:
                    steps.append(("draw", int(rng.choice([1, 7, n, 3 * n]))))
        return steps + [("at", np.arange(n)), ("weights",)]

    @pytest.mark.parametrize("seed", range(12))
    def test_random_interleavings(self, seed):
        rng = np.random.default_rng(seed)
        n, d = int(rng.integers(2, 400)), int(rng.integers(1, 12))
        pts = rng.normal(size=(n, d)) * 10.0 ** rng.integers(-3, 4)
        if seed % 3 == 0:
            pts = np.round(pts)                 # ties and duplicate points
        picks = [pts[i] for i in rng.integers(0, n, size=int(rng.integers(1, 12)))]
        centers = picks + list(rng.normal(size=(int(rng.integers(0, 6)), d)) * pts.std())
        order = rng.permutation(len(centers))
        self.replay(pts, self.script(rng, [centers[i] for i in order], n), seed)

    def test_pending_first_center(self):
        pts = np.random.default_rng(1).normal(size=(50, 3))
        steps = [("at", [4, 4, 0]), ("add", pts[4]), ("at", [4, 4, 0]), ("at", []),
                 ("add", np.zeros(3)), ("at", [7, 7, 7, 49]), ("total",),
                 ("add", pts[9]), ("at", [9]), ("draw", 60), ("at", [9, 10])]
        self.replay(pts, steps)

    def test_far_centers(self):
        # The centers of test_far_centers_take_the_exact_path: past the
        # screen's 2^64 limit, and past float32's range.
        pts = np.random.default_rng(5).uniform(1.0, 2.0, size=(200, 3))
        for far in (1e40, 1e20):
            centers = [pts[0], np.full(3, -far), pts[1], np.array([far, -far, 0.0])]
            steps = []
            for c in centers:
                steps += [("add", c), ("at", [0, 1, 1, 199]), ("at", [])]
            self.replay(pts, steps + [("weights",)])
            self.replay(pts, [s for c in centers for s in (("add", c), ("draw", 5))])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejected_center_leaves_nothing_pending(self, bad):
        pts = np.random.default_rng(2).normal(size=(30, 2))
        self.replay(pts, [("bad", [bad, 0.0]), ("at", [3]), ("add", pts[3]),
                          ("bad", [0.0, bad]), ("at", [3, 5]), ("add", pts[5]),
                          ("bad", [bad, bad]), ("weights",), ("bad", [1.0, bad]),
                          ("at", [3, 5, 6]), ("total",)])


class TestReferencePoint:
    def test_argmin(self):
        st = SamplerState([[0.0], [1.0], [2.0], [3.0]])
        st.weights = np.array([5.0, 2.0, 7.0, 1.0])
        assert reference_point([0, 1, 2], st) == 1

    def test_single_sample(self):
        st = SamplerState([[0.0], [1.0]])
        st.weights = np.array([5.0, 2.0])
        assert reference_point([0], st) == 0

    def test_tie_breaks_low_index(self):
        st = SamplerState(np.zeros((10, 1)))
        st.weights = np.full(10, 3.0)
        assert reference_point([9, 4], st) == 4


def _planted_two_clusters(rng, n_far=20, n_near=100):
    """A far 'planted' cluster and a near one, with one center recovered."""
    far = rng.normal(loc=(10.0, 0.0), scale=0.5, size=(n_far, 2))
    near = rng.normal(loc=(0.0, 0.0), scale=0.5, size=(n_near, 2))
    pts = np.vstack([far, near])
    labels = np.array([1] * n_far + [2] * n_near)
    return pts, labels


class TestRejSamp:
    def test_quota_met_and_uniformish(self):
        rng = np.random.default_rng(0)
        pts, labels = _planted_two_clusters(rng)
        session = OracleSession(labels)
        reps = Representatives()
        reps.add_cluster(0)    # discovered id 1 = planted far cluster
        reps.add_cluster(20)   # discovered id 2 = near cluster
        st = SamplerState(pts)
        add_center(st, [0.0, 0.0])
        ref = reference_point(range(20), st)
        accepted, draws, queries = rej_samp(
            st, session, W=[1], refs={1: ref}, T=50, eps=1.0,
            rng=rng, reps=reps)
        assert len(accepted[1]) >= 50
        assert set(labels[accepted[1]]) == {1}
        assert queries == session.ledger
        assert draws > 0

    def test_constant_ratio_is_plain_thinning(self):
        # All points equidistant from the center: acceptance = eps/128 exactly.
        pts = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        session = OracleSession([1, 1, 1, 1])
        st = SamplerState(pts)
        add_center(st, [0.0, 0.0])
        rng = np.random.default_rng(1)
        accepted, draws, _ = rej_samp(
            st, session, W=[1], refs={1: 0}, T=200, eps=0.64,
            rng=rng, reps=Representatives())
        # acceptance 0.005 -> roughly 40k draws
        assert draws == pytest.approx(200 / 0.005, rel=0.35)

    def test_draw_cap(self):
        pts, labels = _planted_two_clusters(np.random.default_rng(2))
        session = OracleSession(labels)
        st = SamplerState(pts)
        add_center(st, [0.0, 0.0])
        # The pass stops at the cap and returns the short pool.
        accepted, draws, queries = rej_samp(
            st, session, W=[1], refs={1: 0}, T=10**6, eps=0.01,
            rng=np.random.default_rng(3), reps=Representatives(), draw_cap=2000)
        assert draws == 2000
        assert len(accepted[1]) < 10**6
        assert queries == session.ledger > 0

    def test_tiny_weights_accept_as_scaled_ones(self):
        # Scaling the points by 2^-505 scales every weight by 2^-1010, to
        # below 1e-300, and leaves each draw's probability and acceptance
        # ratio as they were, so the pass must be the same pass.
        rng = np.random.default_rng(11)
        pts = np.vstack([rng.normal((0.0, 0.0), 1.0, size=(400, 2)),
                         rng.normal((5.0, 0.0), 1.0, size=(300, 2))])
        labels = np.repeat([1, 2], [400, 300])
        outs = []
        for scale in (1.0, 2.0 ** -505):
            st = SamplerState(pts * scale)
            add_center(st, pts[:400].mean(axis=0) * scale)
            if scale < 1.0:
                assert st.weights.max() < 1e-300
            session = OracleSession(labels)
            reps = Representatives()
            reps.add_cluster(0)
            reps.add_cluster(400)
            ref = reference_point(range(400, 700), st)
            accepted, draws, queries = rej_samp(
                st, session, W=[2], refs={2: ref}, T=20, eps=0.5,
                rng=np.random.default_rng(7), reps=reps, draw_cap=10 ** 6)
            outs.append((accepted, draws, queries))
        assert len(outs[0][0][2]) == 20
        assert outs[1] == outs[0]

    @pytest.mark.parametrize("shift", [0, -1060], ids=["normal weights", "subnormal weights"])
    def test_draw_ordered_matches_draw_at_a_time(self, shift):
        # A budgeted session takes the draw-ordered batches. Reference
        # weights of 0, of a subnormal and of 1e3 with eps = 1e308 give
        # acceptance ratios that are zero, subnormal or past float64, and
        # the first pass starts with no cluster discovered. Times 2^-1060,
        # every weight is subnormal.
        rng = np.random.default_rng(13)
        labels = np.repeat([1, 2, 3, 4], 250)
        weights = rng.uniform(0.5, 1.5, size=1000)
        weights[[0, 250, 500, 750]] = 0.0, 1e-310, 1e3, 5e-324
        weights = np.ldexp(weights, shift)
        passes = [  # W, refs, quota, eps, draw cap
            ([1, 2, 3, 4], {1: 0, 2: 250, 3: 500, 4: 750}, 40, 1.0, 6000),
            ([1, 3], {1: 500, 3: 501}, 300, 1e308, 10 ** 6),
            ([2, 4], {2: 250, 4: 900}, 60, 1.0, 5000),
            ([3], {3: 600}, 25, 0.5, 10 ** 6),
        ]
        outs = []
        for rej in (rej_samp, rej_samp_ordered_reference):
            st = _weighted_state(weights)
            session = OracleSession(labels, budget=10 ** 15)
            reps, gen = Representatives(), np.random.default_rng(14)
            out = []
            for W, refs, T, eps, cap in passes:
                got = rej(st, session, W, refs, T, eps, rng=gen, reps=reps, draw_cap=cap)
                out.append((got, session.ledger, dict(reps.reps), gen.bit_generator.state))
            outs.append(out)
        assert outs[0] == outs[1]
        sizes = [{j: len(v) for j, v in got[0].items()} for got, *_ in outs[0]]
        assert [got[1] for got, *_ in outs[0]][::2] == [6000, 5000]
        assert min(sizes[1].values()) >= 300 and sizes[3] == {3: 25}

    def test_batched_matches_scalar_checker_quota_stop(self):
        # The checker path stops exactly at the filling draw. It checks each
        # distinct point once and charges every draw its check's cost.
        rng = np.random.default_rng(4)
        pts, labels = _planted_two_clusters(rng)
        session = OracleSession(labels)
        st = SamplerState(pts)
        add_center(st, [0.0, 0.0])
        calls = []

        def checker(x):
            calls.append(x)
            session.charge(1)
            return int(labels[x])

        accepted, draws, _ = rej_samp(
            st, session, W=[1], refs={1: 0}, T=5, eps=128.0,
            rng=rng, checker=checker)
        assert len(accepted[1]) == 5
        assert session.ledger == draws
        assert len(calls) == len(set(calls))


def rej_samp_ordered_reference(state, session, W, refs, T, eps, *, rng, reps, draw_cap):
    """The draw-ordered exact rejection pass, one draw at a time.

    Batches of the sizes rej_samp picks, each B indices by plain search;
    then, draw by draw, classify() and, for a draw of W, one rng.random()
    coin against min(1, (eps/128) w(ref)/w(x)) worked out for that draw
    alone. Past the quota fill or the cap the batch's later draws are
    classified on a copy of the session and representatives, and their
    coins drawn and dropped, as the batched pass draws a whole batch.
    """
    scale = eps / 128.0
    accepted = {j: [] for j in W}
    draws, guess, start = 0, 0.05, session.ledger

    def need():
        return {j: T - len(accepted[j]) for j in W}

    while draws < draw_cap and any(v > 0 for v in need().values()):
        B = int(min(max(4096, max(need().values()) / max(guess, 1e-6) * 1.5), 2 ** 16))
        live_session, live_reps, hits = session, reps, 0
        for x in d2_sample_reference(state.cumsum(), rng, B).tolist():
            live = live_session is session
            if live and (draws == draw_cap or all(v <= 0 for v in need().values())):
                live_session, live_reps = copy.deepcopy((session, reps))
                live = False
            j = classify(live_session, x, live_reps)
            draws += live
            if j not in W:
                continue
            wx = state.weights[x]
            with np.errstate(over="ignore"):
                p = 1.0 if wx <= 0.0 else min(1.0, scale * state.weights[refs[j]] / wx)
            if rng.random() < p:
                hits += 1
                if live:
                    accepted[j].append(x)
        guess = max(hits / B, 1e-4)
    return accepted, draws, session.ledger - start


def _four_blobs():
    """3000 points in 2-d, four clusters of sizes 1500/800/500/200."""
    rng = np.random.default_rng(21)
    centers, sizes = [(0, 0), (4, 0), (0, 5), (6, 6)], [1500, 800, 500, 200]
    pts = np.vstack([rng.normal(loc=c, scale=0.6, size=(m, 2))
                     for c, m in zip(centers, sizes)])
    return pts, np.repeat([1, 2, 3, 4], sizes)


def _digest(accepted) -> str:
    return hashlib.sha256(json.dumps(accepted, sort_keys=True).encode()).hexdigest()[:16]


class TestRejSampPin:
    """The exact-oracle rejection pass, pinned over four passes that share one
    sampler, generator and representative set (cluster 4 starts undiscovered):

    * "counts": counts chunks, one dropped for a discovery, and chunks that
      would fill every quota retried a quarter the size, down to the
      draw-ordered tail;
    * "cap": a chunk dropped because it would pass the draw cap, then
      draw-ordered batches up to the cap;
    * "budgeted" and "budget_binds": a budgeted session, draw-ordered only,
      one pass filling its quotas and one running out of budget.

    The accepted lists, draws, ledger and generator state are those of the
    chunk-by-chunk implementation this pass had before counts_chunk
    existed; the branch counts show which paths each pass took.
    """

    # name, W, T, draw_cap, budget, carried pool (its quota is T less the
    # pool, and the pool heads the accepted list)
    PASSES = [
        ("counts", [2, 3], 4000, 10**8, None, None),
        ("cap", [2, 3, 4], 10**5, 2 * 10**6, None, None),
        ("budgeted", [2, 3, 4], 300, 10**8, 10**8, {2: [1600]}),
        ("budget_binds", [3, 4], 10**4, 10**8, 10**5, None),
    ]

    PINS = {
        "counts": (("done", {2: 4000, 3: 4441}, 4736710, "91f326b89d861a26"), 14109835,
                   85483089633304572213769397001234638967),
        "cap": (("cap", {2: 1768, 3: 1938, 4: 3624}, (2, 3, 4), 2000000, "18125927d1b96f64"),
                5958154, 245087362427651604724365535901744723551),
        "budgeted": (("done", {2: 300, 3: 300, 4: 622}, 347946, "2865b2a6063be91a"), 1036907,
                     238546297622574027125293129348121513418),
        "budget_binds": (("budget", 33563), 100000,
                         28122088881860016380155873758425941950),
    }

    BRANCHES = {
        "counts": {"discovery": 1, "committed": 9, "finishing": 5},
        "cap": {"cap": 1},
        "budgeted": {},
        "budget_binds": {},
    }

    @staticmethod
    def branches(log) -> dict:
        """Classify each counts chunk by what followed it. A chunk that was
        kept charged the ledger; a dropped one was retried a quarter the size
        or, below 8192 draws a chunk, draw-ordered (finishing), or went on
        draw-ordered at full size (cap)."""
        seen = Counter()
        for i, (kind, size, ledger, empty) in enumerate(log):
            if kind == "ordered":
                continue
            nxt = log[i + 1] if i + 1 < len(log) else None
            if empty:
                seen["discovery"] += 1
            elif nxt is None or nxt[2] != ledger:
                seen["committed"] += 1
            elif nxt[0] == "counts" or size // 4 < 8192:
                seen["finishing"] += 1
            else:
                seen["cap"] += 1
        return dict(seen)

    def test_pinned_passes(self, monkeypatch):
        pts, labels = _four_blobs()
        st = SamplerState(pts)
        add_center(st, [0.0, 0.0])
        rng = np.random.default_rng(5)
        reps = Representatives()
        for x in (0, 1500, 2300):
            reps.add_cluster(x)
        log, current = [], []
        counts_chunk, d2 = sampling.counts_chunk, sampling.d2_sample_batch

        def counts_spy(state, session, reps_, rng_, size):
            got = counts_chunk(state, session, reps_, rng_, size)
            log.append(("counts", size, session.ledger, got is None))
            return got

        def d2_spy(state, rng_, size):
            log.append(("ordered", size, current[-1].ledger, False))
            return d2(state, rng_, size)

        monkeypatch.setattr(sampling, "counts_chunk", counts_spy)
        monkeypatch.setattr(sampling, "d2_sample_batch", d2_spy)
        for name, W, T, cap, budget, pre in self.PASSES:
            session = OracleSession(labels, budget=budget)
            current.append(session)
            log.clear()
            refs = {j: reference_point(np.flatnonzero(labels == j)[:50], st) for j in W}
            try:
                pre = pre or {}
                quota = {j: T - len(pre.get(j, [])) for j in W}
                acc, draws, queries = rej_samp(st, session, W, refs, quota, 1.0, rng=rng,
                                               reps=reps, draw_cap=cap)
                acc = {j: pre.get(j, []) + v for j, v in acc.items()}
                assert queries == session.ledger
                sizes = {j: len(v) for j, v in acc.items()}
                unmet = tuple(j for j in W if sizes[j] < T)
                if unmet:
                    assert draws == cap
                    out = ("cap", sizes, unmet, draws, _digest(acc))
                else:
                    out = ("done", sizes, draws, _digest(acc))
            except BudgetExhausted as e:
                out = ("budget", e.done)
            state = rng.bit_generator.state
            assert (state["has_uint32"], state["uinteger"]) == (0, 0)
            assert (out, session.ledger, state["state"]["state"]) == self.PINS[name]
            assert reps.discovered_count == 4
            assert self.branches(log) == self.BRANCHES[name]
            assert any(e[0] == "ordered" for e in log)
