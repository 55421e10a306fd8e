import copy
import heapq
import math
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from samecluster import recovery
from samecluster import sampling
from samecluster.datasets import DatasetSpec, load
from samecluster.geometry import PointSet
from samecluster.noisy import NoisyConfig, run_noisy
from samecluster.oracle import BudgetExhausted, OracleSession, classify
from samecluster.recovery import (
    RecoveryConfig,
    RunState,
    _l_bands,
    log2p,
    basic_t2,
    basic_t3,
    dyadic_band,
    improved_t3,
    phase1_probe,
    run_basic,
    run_basic_simplified,
    run_improved,
    run_improved_simplified,
    run_uniform,
    split_bands,
    threshold_t1,
)
from samecluster.synthgen import SynthConfig, generate

DATA = Path(__file__).parent / "data"


def blobs(centers, sizes, sigma, seed=0):
    rng = np.random.default_rng(seed)
    pts, labels = [], []
    for i, (c, m) in enumerate(zip(centers, sizes), start=1):
        pts.append(rng.normal(loc=c, scale=sigma, size=(m, len(c))))
        labels.extend([i] * m)
    return PointSet(np.vstack(pts), labels=np.array(labels))


class TestThresholds:
    def test_t1_values(self):
        assert threshold_t1(0.5, 0) == pytest.approx(36.84, abs=0.01)
        assert threshold_t1(1.0, 9) == pytest.approx(36.84, abs=0.01)

    def test_basic_t2_value(self):
        assert basic_t2(0.5, 3, 2) == pytest.approx(1.282e5, rel=1e-3)

    def test_improved_t3_value(self):
        assert improved_t3(0.5, 4) == pytest.approx(240.0)

    def test_basic_t3_grows_with_round(self):
        vals = [basic_t3(0.5, r) for r in range(1, 10)]
        assert all(b > a for a, b in zip(vals, vals[1:]))


class TestSplitBands:
    def test_spec_example_q8(self):
        p_hat = {1: 0.6, 2: 0.3, 3: 0.05, 4: 0.03, 5: 0.02}
        part = split_bands(p_hat, q=8)
        assert part.l_bands == 9
        assert part.bands[0] == [1]
        assert part.bands[1] == [2]
        assert part.bands[4] == [3]
        assert part.bands[5] == [4, 5]
        assert part.tail == []
        assert part.heavy_clusters() == [1, 2, 3, 4, 5]

    def test_lone_cluster(self):
        part = split_bands({7: 1.0}, q=1)
        assert part.l_bands == 1
        assert part.bands[0] == [7]
        assert part.heavy[0]
        assert part.heavy_clusters() == [7]

    def test_exact_cube_boundary_is_tail(self):
        q = 4
        part = split_bands({1: 1.0 / q**3, 2: 0.9}, q=q)
        assert part.tail == [1]

    def test_dyadic_band_exact_powers(self):
        assert dyadic_band(1.0) == 1
        assert dyadic_band(0.5) == 2
        assert dyadic_band(0.25) == 3
        assert dyadic_band(0.3) == 2
        assert dyadic_band(0.05) == 5

    def test_invariants_random_vectors(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            q = int(rng.integers(1, 40))
            raw = rng.random(q) ** 3
            p = raw / raw.sum()
            p_hat = {i + 1: float(p[i]) for i in range(q)}
            part = split_bands(p_hat, q)
            seen = []
            for ell, members in enumerate(part.bands, start=1):
                for cid in members:
                    v = p_hat[cid]
                    assert 2.0 ** -ell < v <= 2.0 ** (-ell + 1)
                    seen.append(cid)
            for cid in part.tail:
                assert p_hat[cid] <= 1.0 / q**3 or dyadic_band(p_hat[cid]) > part.l_bands
                seen.append(cid)
            assert sorted(seen) == sorted(p_hat)
            thresh = 1.0 / (3.0 * part.l_bands)
            for flag, members in zip(part.heavy, part.bands):
                assert flag == (sum(p_hat[c] for c in members) >= thresh)


# ---------------------------------------------------------------------------
# Draw-at-a-time reference for the chunked Improved Phase 2

class _BandTracker:
    """Integer band bookkeeping over unrecovered sample counts.

    Tracks per cluster the dyadic band index l = bitlen(total // s)
    together with per-band member counts and count sums, updated after
    every single sample. Bands beyond L(q) form the tail.
    """

    def __init__(self, counts: dict[int, int]):
        self.s: dict[int, int] = {c: int(v) for c, v in counts.items() if v > 0}
        self.total = sum(self.s.values())
        self.ell: dict[int, int] = {}
        self.band_sum: dict[int, int] = {}
        self.band_cnt: dict[int, int] = {}
        # (threshold total at which the band index grows, cid, band at push)
        self._heap: list[tuple[int, int, int]] = []
        for cid, s in self.s.items():
            ell = (self.total // s).bit_length()
            self.ell[cid] = ell
            self.band_sum[ell] = self.band_sum.get(ell, 0) + s
            self.band_cnt[ell] = self.band_cnt.get(ell, 0) + 1
            heapq.heappush(self._heap, (s << ell, cid, ell))

    def _reband(self, cid: int):
        s = self.s[cid]
        new_ell = (self.total // s).bit_length()
        old = self.ell[cid]
        if new_ell != old:
            self.band_sum[old] -= s
            self.band_cnt[old] -= 1
            if self.band_cnt[old] == 0:
                del self.band_sum[old], self.band_cnt[old]
            self.band_sum[new_ell] = self.band_sum.get(new_ell, 0) + s
            self.band_cnt[new_ell] = self.band_cnt.get(new_ell, 0) + 1
            self.ell[cid] = new_ell
        heapq.heappush(self._heap, (s << new_ell, cid, new_ell))

    def add_sample(self, cid: int):
        self.total += 1
        old_s = self.s.get(cid, 0)
        self.s[cid] = old_s + 1
        if old_s == 0:
            ell = self.total.bit_length()
            self.ell[cid] = ell
            self.band_sum[ell] = self.band_sum.get(ell, 0) + 1
            self.band_cnt[ell] = self.band_cnt.get(ell, 0) + 1
            heapq.heappush(self._heap, (1 << ell, cid, ell))
        else:
            ell = self.ell[cid]
            new_ell = (self.total // (old_s + 1)).bit_length()
            if new_ell == ell:
                self.band_sum[ell] += 1
            else:
                self.band_sum[ell] -= old_s
                self.band_cnt[ell] -= 1
                if self.band_cnt[ell] == 0:
                    del self.band_sum[ell], self.band_cnt[ell]
                self.band_sum[new_ell] = self.band_sum.get(new_ell, 0) + old_s + 1
                self.band_cnt[new_ell] = self.band_cnt.get(new_ell, 0) + 1
                self.ell[cid] = new_ell
                heapq.heappush(self._heap, ((old_s + 1) << new_ell, cid, new_ell))
        # Flush clusters whose band index grew as the total advanced.
        heap = self._heap
        while heap and heap[0][0] <= self.total:
            _, c2, ell2 = heapq.heappop(heap)
            if self.ell.get(c2) != ell2:
                continue  # stale entry; a newer one exists
            self._reband(c2)

    def w_count(self) -> int:
        """Number of clusters in heavy bands (tail counted as one band)."""
        lb = _l_bands(len(self.s))
        w = tail_sum = tail_cnt = 0
        for ell, ssum in self.band_sum.items():
            if ell > lb:
                tail_sum += ssum
                tail_cnt += self.band_cnt[ell]
            elif 3 * lb * ssum >= self.total:
                w += self.band_cnt[ell]
        if tail_cnt and 3 * lb * tail_sum >= self.total:
            w += tail_cnt
        return w

    def heavy_members(self) -> list[int]:
        lb = _l_bands(len(self.s))
        tail_sum = sum(v for e, v in self.band_sum.items() if e > lb)
        tail_heavy = tail_sum > 0 and 3 * lb * tail_sum >= self.total
        heavy = {e for e, v in self.band_sum.items()
                 if e <= lb and 3 * lb * v >= self.total}
        return sorted(c for c, e in self.ell.items()
                      if e in heavy or (tail_heavy and e > lb))


class TestBandTracker:
    def test_matches_fresh_construction(self):
        rng = np.random.default_rng(5)
        counts = {i: 0 for i in range(1, 12)}
        tr = _BandTracker({})
        for cid in rng.integers(1, 12, size=5000):
            counts[int(cid)] += 1
            tr.add_sample(int(cid))
        fresh = _BandTracker(counts)
        assert tr.s == fresh.s
        assert tr.ell == fresh.ell
        assert tr.band_sum == fresh.band_sum
        assert tr.band_cnt == fresh.band_cnt
        assert tr.heavy_members() == fresh.heavy_members()

    def test_band_indices_exact(self):
        tr = _BandTracker({1: 3, 2: 5, 3: 1})
        for cid, s in tr.s.items():
            ell = tr.ell[cid]
            # 2^-ell < s/total <= 2^-(ell-1)
            assert 2.0 ** -ell < s / tr.total <= 2.0 ** (-ell + 1)


def improved_phase2_reference(run: RunState, trace: list | None = None):
    """Improved Phase 2 one draw at a time: charge, re-band, test the rule.

    Draws the same chunks as recovery._improved_phase2. When trace is a
    list it receives (ledger after the draw, whether the draw discovered a
    cluster) for every charged draw.
    """
    eps, k = run.config.eps, run.k
    session = run.session
    truth = session.truth
    budget = session.budget
    tracker = _BandTracker({cid: int(run.counts[cid - 1]) for cid in run.Q()})
    label_to_cid = {int(truth[run.reps.rep_point(c)]): c for c in range(1, run.L + 1)}
    excluded = run.centers
    drawn_x: list[int] = []
    drawn_cid: list[int] = []
    s_now = run.s_total
    try:
        while True:
            arr = sampling.d2_sample_batch(run.sampler, run.rng, recovery._PHASE_CHUNK)
            for x, lab in zip(arr.tolist(), truth[arr].tolist()):
                cid = label_to_cid.get(lab)
                new = cid is None
                cost = run.L if new else cid
                if budget is not None and session.ledger + cost > budget:
                    session.ledger = budget
                    raise BudgetExhausted(f"query budget {budget} exhausted")
                session.ledger += cost
                if new:
                    cid = run.reps.add_cluster(x)
                    label_to_cid[lab] = cid
                if trace is not None:
                    trace.append((session.ledger, new))
                drawn_x.append(x)
                drawn_cid.append(cid)
                s_now += 1
                if cid not in excluded:
                    tracker.add_sample(cid)
                qn = len(tracker.s)
                if qn:
                    f = 1600.0 / eps * log2p(qn) * math.log(10.0 * (k + qn))
                    if s_now >= f:      # |W| >= 1, so nothing stops below f
                        w = tracker.w_count()
                        if w and s_now >= f * w:
                            return tracker.heavy_members(), qn
    finally:
        if drawn_x:
            run.ingest(np.asarray(drawn_x, dtype=np.int64),
                       np.asarray(drawn_cid, dtype=np.int64))


def _phase2_state(run: RunState, outcome) -> tuple:
    return (outcome, run.session.ledger, run.s_total, run.draws,
            run.counts.tolist(), dict(run.reps.reps),
            run.owner.tolist(), run.rng.bit_generator.state)


def _run_phase2(phase2, snapshot: RunState, budget: int | None = None) -> tuple:
    """Run one Phase-2 implementation on a copy of a snapshot, with a budget."""
    run = copy.deepcopy(snapshot)
    run.session.budget = budget
    try:
        outcome = phase2(run)
    except BudgetExhausted:
        outcome = "budget"
    return _phase2_state(run, outcome)


def _improved_fixtures():
    """Random small blob fixtures with skewed sizes, in both reuse modes.

    Skewed sizes leave light bands in the first round, so later rounds
    enter Phase 2 with recovered clusters excluded.
    """
    rng = np.random.default_rng(1)
    for i in range(3):
        K = int(rng.integers(3, 9))
        sizes = np.maximum(3, 1200 * rng.dirichlet(np.full(K, 0.4))).astype(int)
        ps = blobs(rng.uniform(-10, 10, size=(K, 2)), sizes, float(rng.uniform(0.3, 1.0)), seed=i)
        for reuse in (True, False):
            yield ps, RecoveryConfig(eps=1.0, seed=i, reuse_samples=reuse, draw_cap=10 ** 9)


def _spy_segments(monkeypatch) -> list[dict]:
    """Record each Phase-2 segment's bounds and whether it took the exact path.

    Every `_w_bounds` call opens a segment; a `_heavy_rows` call before the
    next one marks it exact. An open segment (floor < ceiling) that is not
    exact was skipped.
    """
    segments: list[dict] = []
    w_bounds, heavy_rows = recovery._w_bounds, recovery._heavy_rows

    def spy_bounds(*args):
        out = w_bounds(*args)
        segments.append({"bounds": out, "exact": False})
        return out

    def spy_heavy(*args):
        if segments:
            segments[-1]["exact"] = True
        return heavy_rows(*args)

    monkeypatch.setattr(recovery, "_w_bounds", spy_bounds)
    monkeypatch.setattr(recovery, "_heavy_rows", spy_heavy)
    return segments


def _segment_path(seg: dict) -> str:
    _, floor, ceiling = seg["bounds"]
    if floor == ceiling:
        return "pinned"
    return "exact" if seg["exact"] else "skipped"


def _phase2_rule(eps: float, k: int, q: int, w: int) -> float:
    """The Phase-2 threshold f(q) |W|, rounded as the chunked rule rounds it."""
    return 1600.0 / eps * log2p(q) * math.log(10.0 * (k + q)) * w


class TestPhase2Reference:
    def test_chunked_matches_draw_at_a_time(self, monkeypatch):
        snapshots = []
        chunked = recovery._improved_phase2

        def snapshot_then_run(run):
            snapshots.append(copy.deepcopy(run))
            return chunked(run)

        segments = _spy_segments(monkeypatch)
        max_discoveries_per_chunk = 0
        budget_cases = {"mid-segment": 0, "discovery draw": 0, "stop draw": 0}
        for ps, cfg in _improved_fixtures():
            snapshots.clear()
            monkeypatch.setattr(recovery, "_improved_phase2", snapshot_then_run)
            run_improved(ps, OracleSession(ps.labels), cfg)
            monkeypatch.setattr(recovery, "_improved_phase2", chunked)
            assert snapshots
            for snap in snapshots:
                trace = []
                ref = _run_phase2(lambda r: improved_phase2_reference(r, trace), snap)
                assert _run_phase2(chunked, snap) == ref
                disc = [i for i, (_, new) in enumerate(trace) if new]
                per_chunk = np.bincount(np.asarray(disc, dtype=np.int64) // recovery._PHASE_CHUNK)
                max_discoveries_per_chunk = max(max_discoveries_per_chunk, int(per_chunk.max(initial=0)))
                # Budgets that run out on a chosen draw, plus one that fits exactly.
                ledgers = [led for led, _ in trace]
                mid = len(ledgers) // 2
                assert len(ledgers) < 3 or not trace[mid][1]
                budgets = {"mid-segment": ledgers[mid] - 1,
                           "stop draw": ledgers[-1] - 1,
                           "exact fit": ledgers[-1]}
                if disc and disc[-1] > 0:
                    budgets["discovery draw"] = ledgers[disc[-1]] - 1
                for case, budget in budgets.items():
                    want = _run_phase2(improved_phase2_reference, snap, budget)
                    got = _run_phase2(chunked, snap, budget)
                    assert got == want, case
                    assert (want[0] == "budget") == (case != "exact fit")
                    budget_cases[case] = budget_cases.get(case, 0) + 1
        assert max_discoveries_per_chunk >= 2
        assert min(budget_cases.values()) > 0
        paths = {"pinned": 0, "skipped": 0, "exact": 0}
        for seg in segments:
            paths[_segment_path(seg)] += 1
        assert min(paths.values()) > 0, paths

    def test_stop_scan_matches_tracker(self, monkeypatch):
        # Short chunks against a draw-by-draw tracker scan, at every |S|
        # offset from before the first possible stop to past the chunk. A
        # large eps puts the thresholds f(q) |W| within a few dozen draws.
        # Each chunk is also cut to end one draw before, at and one draw
        # after its stop draw, so segments end next to the stop.
        rng = np.random.default_rng(17)
        segments = _spy_segments(monkeypatch)
        paths = {"pinned": 0, "skipped": 0, "exact": 0}
        near_stop = tight = 0
        for _ in range(80):
            eps = float(rng.choice([400.0, 1600.0, 4000.0]))
            L = int(rng.integers(1, 7))
            recovered = {c for c in range(1, L + 1) if rng.random() < 0.2}
            counts = rng.integers(0, 6, size=L) * (rng.random(L) < 0.7)
            fresh = int(rng.integers(0, 3))
            n = int(rng.integers(10, 60))
            cl = rng.choice(L + fresh, size=n, p=rng.dirichlet(np.full(L + fresh, 0.6))) + 1
            # Undiscovered ids are numbered L+1, L+2, ... by first appearance.
            new = [c for c in dict.fromkeys(cl.tolist()) if c > L]
            cl = np.array([L + 1 + new.index(c) if c > L else c for c in cl.tolist()])
            firsts = [int(np.argmax(cl == L + 1 + i)) for i in range(len(new))]
            # Per position: the threshold f(q) |W|, infinite when |W| = 0.
            tracker = _BandTracker({c: int(counts[c - 1]) for c in range(1, L + 1)
                                    if c not in recovered})
            need = []
            for c in cl.tolist():
                if c not in recovered:
                    tracker.add_sample(c)
                w = tracker.w_count()
                need.append(_phase2_rule(eps, len(recovered), len(tracker.s), w) if w else math.inf)
            for s_before in range(0, 80):
                stop = next((j for j in range(n) if s_before + j + 1 >= need[j]), None)
                ends = {n} if stop is None else {n} | {e for e in (stop, stop + 1, stop + 2) if 0 < e <= n}
                for end in sorted(ends):
                    want = stop if stop is not None and stop < end else None
                    cuts = [p for p in firsts if 0 < p < end]
                    run = SimpleNamespace(config=SimpleNamespace(eps=eps), k=len(recovered), L=L,
                                          centers=dict.fromkeys(recovered), counts=counts.copy(),
                                          s_total=s_before)
                    segments.clear()
                    got = recovery._phase2_stop(run, cl[:end], [(p, 0) for p in firsts if p < end])
                    assert got == want
                    for a, b, seg in zip([0] + cuts, cuts + [end], segments):
                        path = _segment_path(seg)
                        paths[path] += 1
                        q, floor, _ = seg["bounds"]
                        least = _phase2_rule(eps, len(recovered), max(q, 1), max(1, floor))
                        if path != "pinned":
                            assert (path == "skipped") == (s_before + b < least)
                        if path != "skipped":
                            continue
                        assert stop is None or stop >= b
                        near_stop += stop is not None and stop - b < 3
                        # Skips reach the edge: the segment's last draw is
                        # one short of the least threshold among its draws.
                        tight += s_before + b + 1 >= min(need[a:b])
        assert min(paths.values()) > 0, paths
        assert near_stop > 0 and tight > 0, (paths, near_stop, tight)

    def test_band_rules_match_tracker(self):
        # Small counts cross band edges and heavy thresholds often.
        rng = np.random.default_rng(11)
        cases = {"pinned": 0, "open": 0, "unpinned band, floor >= 2": 0}
        for _ in range(300):
            q0 = int(rng.integers(1, 12))
            base = rng.integers(0, 4, size=q0)
            base[0] = max(base[0], 1)
            draws = rng.choice(q0, size=60, p=rng.dirichlet(np.full(q0, 0.5)))
            C = base[:, None] + np.cumsum(draws == np.arange(q0)[:, None], axis=1)
            T = C.sum(axis=0)
            q, heavy = recovery._heavy_rows(C, T)
            assert heavy.any(axis=0)[q > 0].all()     # W is never empty for a non-empty Q
            ell = recovery._bitlen(T // np.maximum(C, 1))
            frac = C / T
            assert np.all((C == 0) | ((2.0 ** -ell < frac) & (frac <= 2.0 ** (1 - ell))))
            tracker = _BandTracker({c + 1: int(v) for c, v in enumerate(base)})
            w = []
            for j, c in enumerate(draws):
                tracker.add_sample(int(c) + 1)
                assert q[j] == len(tracker.s)
                assert (np.flatnonzero(heavy[:, j]) + 1).tolist() == tracker.heavy_members()
                w.append(tracker.w_count())
            lb = np.array([_l_bands(v) for v in q])
            band = np.where(C > 0, np.minimum(ell, lb + 1), 0)
            for _ in range(10):
                a, b = sorted(int(v) for v in rng.integers(0, len(draws), size=2))
                q_lo, floor, ceiling = recovery._w_bounds(C[:, a], C[:, b], int(T[a]), int(T[b]))
                assert q_lo == q[a]
                for j in range(a, b + 1):
                    assert q_lo <= q[j] and floor <= w[j] <= ceiling
                if floor == ceiling:
                    cases["pinned"] += 1
                    assert all((q[j], w[j]) == (q_lo, floor) for j in range(a, b + 1))
                else:
                    cases["open"] += 1
                if q[a] == q[b] and floor >= 2 and not np.array_equal(band[:, a], band[:, b]):
                    cases["unpinned band, floor >= 2"] += 1
        assert min(cases.values()) > 0, cases

    def test_bounds_count_own_and_pinned_counts(self):
        # q = 3, L = 5: cluster 1 sits in band 1, cluster 3 in band 3, and
        # cluster 2 moves between bands 2 and 3. Band 2 is heavy only by
        # cluster 2's own count, so all three are in W at every position.
        lo, hi = np.array([0, 60, 25, 15]), np.array([0, 62, 27, 15])
        assert recovery._w_bounds(lo, hi, 100, 104) == (3, 3, 3)
        # Band 4 holds cluster 3's 7 samples: 3 L * 7 = 105 is heavy
        # against the first total, 100, but not against the last, 106.
        lo, hi = np.array([0, 60, 33, 7]), np.array([0, 64, 35, 7])
        q, floor, ceiling = recovery._w_bounds(lo, hi, 100, 106)
        assert (q, floor, ceiling) == (3, 2, 3)
        # q grows from 1 to 2: only the floor of one heavy band holds.
        assert recovery._w_bounds(np.array([0, 5, 0]), np.array([0, 9, 2]), 5, 11) == (1, 1, 2)
        assert recovery._w_bounds(np.zeros(3, dtype=np.int64), np.zeros(3, dtype=np.int64), 0, 0) == (0, 0, 0)

    @pytest.mark.parametrize("fixture", [0, 1])
    def test_whole_run_matches_reference(self, monkeypatch, fixture):
        ps, cfg = list(_improved_fixtures())[fixture]
        full = run_improved(ps, OracleSession(ps.labels), cfg)
        for budget in (None, full.queries_total // 3):
            chunked = run_improved(ps, OracleSession(ps.labels, budget=budget), cfg)
            monkeypatch.setattr(recovery, "_improved_phase2", improved_phase2_reference)
            ref = run_improved(ps, OracleSession(ps.labels, budget=budget), cfg)
            monkeypatch.undo()
            assert chunked.to_payload() == ref.to_payload()


def well_separated(sigma=0.05, sizes=(700, 500, 300), seed=0):
    centers = [(0.0, 0.0), (8.0, 0.0), (0.0, 8.0)]
    return blobs(centers, sizes, sigma, seed=seed)


class TestRunBasic:
    def test_three_well_separated_clusters(self):
        ps = well_separated()
        sess = OracleSession(ps.labels)
        res = run_basic(ps, sess, RecoveryConfig(eps=0.5, seed=1, draw_cap=10**9))
        assert res.K_recovered == 3
        assert res.stop_reason == "terminated"
        assert all(e <= 0.5 for e in res.per_cluster_errors.values())
        recovered_per_round = [len(log["recovered"]) for log in res.per_round]
        assert all(r <= 1 for r in recovered_per_round)
        assert res.queries_total == sess.ledger

    def test_single_cluster_two_rounds(self):
        ps = blobs([(0.0, 0.0)], [400], 0.1)
        sess = OracleSession(ps.labels)
        res = run_basic(ps, sess, RecoveryConfig(eps=0.5, seed=2))
        assert res.K_recovered == 1
        assert res.rounds_total == 2
        assert res.per_round[0]["recovered"] == [1]
        assert res.per_round[1]["recovered"] == []

    def test_monotone_recovery(self):
        ps = well_separated()
        res = run_basic(ps, OracleSession(ps.labels),
                        RecoveryConfig(eps=0.5, seed=3, draw_cap=10**9))
        assert len(res.I) == len(set(res.I))

    def test_budget_stops_exactly(self):
        ps = well_separated()
        sess = OracleSession(ps.labels, budget=5000)
        res = run_basic(ps, sess, RecoveryConfig(eps=0.5, seed=4, draw_cap=10**9))
        assert res.stop_reason == "budget"
        assert sess.ledger == 5000
        assert res.queries_total == 5000

    def test_target_stops_at_k(self):
        ps = well_separated()
        res = run_basic(ps, OracleSession(ps.labels),
                        RecoveryConfig(eps=0.5, seed=5, draw_cap=10**9), target=2)
        assert res.K_recovered == 2
        assert res.stop_reason == "target"

    @pytest.mark.parametrize("target", [0, -1])
    def test_target_below_one_is_rejected(self, target):
        ps = well_separated()
        with pytest.raises(ValueError, match="target"):
            RunState(ps, OracleSession(ps.labels), RecoveryConfig(), target)
        with pytest.raises(ValueError, match="target"):
            run_basic(ps, OracleSession(ps.labels), RecoveryConfig(), target=target)


class TestRunImproved:
    def test_five_equal_clusters(self):
        centers = [(0, 0), (10, 0), (0, 10), (10, 10), (5, 18)]
        ps = blobs(centers, [300] * 5, 0.1)
        sess = OracleSession(ps.labels)
        res = run_improved(ps, sess, RecoveryConfig(eps=0.5, seed=1, draw_cap=10**9))
        assert res.K_recovered == 5
        k_guesses = [log["K_guess"] for log in res.per_round]
        assert max(k_guesses) <= 8
        basic = run_basic(ps, OracleSession(ps.labels),
                          RecoveryConfig(eps=0.5, seed=1, draw_cap=10**9))
        assert res.rounds_total <= basic.rounds_total
        assert res.queries_total == sess.ledger

    def test_terminates_when_all_recovered(self):
        ps = blobs([(0.0, 0.0), (9.0, 0.0)], [400, 300], 0.05)
        res = run_improved(ps, OracleSession(ps.labels),
                           RecoveryConfig(eps=0.5, seed=2, draw_cap=10**9))
        assert res.K_recovered == 2
        assert res.stop_reason == "terminated"


class TestRunImprovedSimplified:
    def test_dominant_cluster_first(self):
        ps = blobs([(0.0, 0.0), (9.0, 0.0)], [950, 50], 0.1)
        res = run_improved_simplified(ps, OracleSession(ps.labels),
                                      RecoveryConfig(eps=0.5, seed=1))
        assert res.K_recovered == 2
        first_round_recovered = res.per_round[0]["recovered"]
        assert len(first_round_recovered) >= 1

    def test_two_equal_clusters_same_round(self):
        # The round's probe draws fill both pools, so the batch trigger
        # typically recovers the two clusters together.
        ps = blobs([(0.0, 0.0), (9.0, 0.0)], [500, 500], 0.1)
        res = run_improved_simplified(ps, OracleSession(ps.labels),
                                      RecoveryConfig(eps=0.5, seed=2))
        assert res.K_recovered == 2
        rounds_with_recovery = [log for log in res.per_round if log["recovered"]]
        assert rounds_with_recovery[0]["recovered"] == [1, 2]

    def test_pool_sizes_meet_quota(self):
        ps = well_separated()
        cfg = RecoveryConfig(eps=0.5, seed=3, heavy_threshold=10)
        res = run_improved_simplified(ps, OracleSession(ps.labels), cfg)
        assert res.K_recovered == 3


class TestRunBasicSimplified:
    def test_recovers_all_one_at_a_time(self):
        ps = well_separated()
        res = run_basic_simplified(ps, OracleSession(ps.labels),
                                   RecoveryConfig(eps=0.5, seed=1))
        assert res.K_recovered == 3
        for log in res.per_round:
            assert len(log["recovered"]) <= 1

    def test_cheaper_than_theory_basic(self):
        ps = well_separated()
        exp = run_basic_simplified(ps, OracleSession(ps.labels),
                                   RecoveryConfig(eps=0.5, seed=2))
        theory = run_basic(ps, OracleSession(ps.labels),
                           RecoveryConfig(eps=0.5, seed=2, draw_cap=10**9))
        assert exp.queries_total < theory.queries_total / 100


class TestRunUniform:
    def test_budget_below_threshold_recovers_nothing(self):
        ps = blobs([(0.0, 0.0)], [300], 0.1)
        sess = OracleSession(ps.labels, budget=8)
        res = run_uniform(ps, sess, RecoveryConfig(seed=1, heavy_threshold=10))
        assert res.K_recovered == 0
        assert res.stop_reason == "budget"

    def test_single_cluster_exact_samples(self):
        # "Heavy" is strictly more than the threshold: the 11th sample
        # triggers the recovery, costing one query per sample after the
        # first, i.e. exactly 10.
        ps = blobs([(0.0, 0.0)], [300], 0.1)
        sess = OracleSession(ps.labels)
        res = run_uniform(ps, sess, RecoveryConfig(seed=2, heavy_threshold=10),
                          target=1)
        assert res.K_recovered == 1
        assert res.samples_total == 11
        assert res.queries_total <= 10

    def test_rare_cluster_negative_binomial(self):
        ps = blobs([(0.0, 0.0), (9.0, 0.0)], [2970, 30], 0.1)  # masses .99/.01
        draws = []
        for seed in range(50):
            res = run_uniform(ps, OracleSession(ps.labels),
                              RecoveryConfig(seed=seed, heavy_threshold=10),
                              target=2)
            assert res.K_recovered == 2
            draws.append(res.samples_total)
        mean = float(np.mean(draws))
        assert 500 <= mean <= 1500

    def test_requires_budget_or_target(self):
        ps = blobs([(0.0, 0.0)], [50], 0.1)
        with pytest.raises(ValueError):
            run_uniform(ps, OracleSession(ps.labels), RecoveryConfig(seed=0))


def uniform_reference(X: PointSet, session: OracleSession, config: RecoveryConfig,
                      target: int | None = None):
    """run_uniform one draw at a time.

    Draws the same 4096-draw rng.integers blocks, classifies each draw with
    scalar classify, and recovers a cluster at its (h+1)-th sample from
    the mean of those h+1 samples.
    """
    run = RunState(X, session, config, target)
    h = config.heavy_threshold
    pending: dict[int, list[int]] = {}
    stop = "target"
    try:
        while target is None or run.k < target:
            for x in run.rng.integers(0, len(X), size=4096).tolist():
                cid = classify(session, x, run.reps)
                run.draws += 1
                pending.setdefault(cid, []).append(x)
                if cid not in run.centers and len(pending[cid]) > h:
                    run.commit_recovery(cid, X.points[pending[cid][:h + 1]].mean(axis=0))
                    if target is not None and run.k >= target:
                        break
    except BudgetExhausted:
        stop = "budget"
    run.round = run.k
    return run.finalize("uniform", stop)


class TestUniformReference:
    def test_matches_draw_at_a_time(self):
        # The rare cluster (0.2% of the points) needs about 5500 draws, so
        # the run spans more than one 4096-draw block.
        ps = blobs([(0.0, 0.0), (9.0, 0.0), (0.0, 9.0), (9.0, 9.0)],
                   [3000, 1500, 490, 10], 0.1, seed=3)
        cfg = RecoveryConfig(seed=5, heavy_threshold=10)
        full = run_uniform(ps, OracleSession(ps.labels), cfg, target=4)
        assert full.stop_reason == "target" and full.samples_total > 4096
        L = full.queries_total
        cases = [(b, 4) for b in (None, 0, 5, L // 2, L - 1, L, L + 1)]
        cases += [(b, None) for b in (5, L // 3, L // 2, L + 1)]
        recovered_under_budget = 0
        for budget, target in cases:
            got = run_uniform(ps, OracleSession(ps.labels, budget=budget), cfg, target)
            want = uniform_reference(ps, OracleSession(ps.labels, budget=budget), cfg, target)
            assert got.to_payload() == want.to_payload(), (budget, target)
            if got.stop_reason == "budget" and got.K_recovered:
                recovered_under_budget += 1
            if (budget, target) == (L + 1, None):
                # Without the target, budget L+1 cuts the block in which
                # the target run stopped.
                assert (got.samples_total - 1) // 4096 == (full.samples_total - 1) // 4096
        assert recovered_under_budget >= 3

    @pytest.mark.parametrize("h", [1, 25])
    def test_other_thresholds(self, h):
        # h = 1: all four clusters reach h+1 inside the first block.
        # h = 25: the rare cluster's (h+1)-th draw lands blocks after
        # the first.
        ps = blobs([(0.0, 0.0), (9.0, 0.0), (0.0, 9.0), (9.0, 9.0)],
                   [3000, 1500, 490, 10], 0.1, seed=3)
        cfg = RecoveryConfig(seed=5, heavy_threshold=h)
        full = run_uniform(ps, OracleSession(ps.labels), cfg, target=4)
        assert full.stop_reason == "target"
        assert (full.samples_total <= 4096) if h == 1 else (full.samples_total > 2 * 4096)
        L = full.queries_total
        cases = [(b, 4) for b in (None, 0, 5, L // 2, L - 1, L, L + 1)]
        cases += [(b, None) for b in (5, L // 3, L // 2, L + 1)]
        for budget, target in cases:
            got = run_uniform(ps, OracleSession(ps.labels, budget=budget), cfg, target)
            want = uniform_reference(ps, OracleSession(ps.labels, budget=budget), cfg, target)
            assert got.to_payload() == want.to_payload(), (budget, target)


# ---------------------------------------------------------------------------
# Draw-at-a-time reference for the block experiment engine

class StepEngine:
    """The experiment-style engine one draw at a time.

    Same 2048-draw buffer and refill points as recovery._ExpEngine, and
    its own running sample sums, added to by sequential +=. When trace is
    a list it receives (ledger after the draw, phase, whether the draw
    discovered a cluster, the run's draws before it) for every charged
    draw; phase is set by the caller.
    """

    def __init__(self, run: RunState, trace: list | None = None):
        self.run = run
        self.refs: dict[int, int] = {}
        self.accepted: dict[int, list[int]] = {}
        self.sums = np.zeros((0, run.X.dim))
        self._buf = np.empty(0, dtype=np.int64)
        self._pos = 0
        self.trace = trace
        self.phase = ""
        self.zero_weight_draws = 0

    def _centers_matrix(self) -> np.ndarray:
        run = self.run
        L = run.L
        counts = np.maximum(run.counts[:L], 1)
        centers = self.sums / counts[:, None]
        for cid, c in run.centers.items():
            centers[cid - 1] = c
        return centers

    def step(self) -> int:
        """One draw: classify, record, maybe accept. Returns the cluster id."""
        run = self.run
        session = run.session
        if self._pos >= len(self._buf):
            self._buf = sampling.d2_sample_batch(run.sampler, run.rng, 2048)
            self._pos = 0
        x = int(self._buf[self._pos])
        self._pos += 1
        lab = int(session.truth[x])
        L = run.L
        rank_arr = run.reps.rank_of_label(session)
        true_cid = int(rank_arr[lab]) if lab < len(rank_arr) else 0
        if L == 0:
            cid = run.reps.add_cluster(x)
        elif true_cid == 0:
            session.charge(L)
            cid = run.reps.add_cluster(x)
        else:
            # Query order: increasing distance to running centers, ties by id.
            centers = self._centers_matrix()
            diff = centers - run.X.points[x]
            d2 = np.einsum("ld,ld->l", diff, diff)
            order = np.argsort(d2, kind="stable")
            session.charge(int(np.nonzero(order == true_cid - 1)[0][0]) + 1)
            cid = true_cid
        if self.trace is not None and L:
            self.trace.append((session.ledger, self.phase, true_cid == 0, run.draws))
        run.ingest(np.array([x]), np.array([cid]))
        if cid > len(self.sums):
            self.sums = np.vstack([self.sums, np.zeros((1, run.X.dim))])
        self.sums[cid - 1] += run.X.points[x]
        if cid not in run.centers:
            ref = self.refs.get(cid)
            w = run.sampler.weights
            self.zero_weight_draws += bool(w[x] <= 0.0)
            if ref is None or w[x] < w[ref] or (w[x] == w[ref] and x < ref):
                self.refs[cid] = ref = x
            wx = float(w[x])
            p = 1.0 if wx <= 0.0 else min(1.0, float(w[ref]) / wx)
            if run.rng.random() < p:
                self.accepted.setdefault(cid, []).append(x)
        return cid


def probe_reference(run: RunState, engine: StepEngine) -> bool:
    t1 = threshold_t1(run.config.eps, run.k)
    seen_new = False
    for _ in range(math.floor(t1) + 1):
        run.room(1)
        try:
            cid = engine.step()
        except sampling.FullyCovered:
            return seen_new
        if cid not in run.centers:
            seen_new = True
    return seen_new


def _heavy_reference(engine: StepEngine, Q: list[int]) -> list[int]:
    h = engine.run.config.heavy_threshold
    return [cid for cid in Q if len(engine.accepted.get(cid, ())) > h]


def pick_first_reference(engine: StepEngine) -> list[int]:
    return _heavy_reference(engine, engine.run.Q())[:1]


def pick_heavy_mass_reference(engine: StepEngine) -> list[int]:
    Q = engine.run.Q()
    heavy = _heavy_reference(engine, Q)
    if heavy:
        cnt = engine.run.counts
        if 2 * int(sum(cnt[c - 1] for c in heavy)) > int(sum(cnt[c - 1] for c in Q)):
            return heavy
    return []


def exp_engine_reference(run: RunState, pick, box: dict | None = None):
    """recovery._experiment_rounds one draw at a time: the probe, then a
    draw at a time until the pick rule names clusters to recover. The
    recovery pick rules map to their per-state reference forms."""
    pick_ref = {recovery._pick_first: pick_first_reference,
                recovery._pick_heavy_mass: pick_heavy_mass_reference}[pick]
    box = {} if box is None else box
    engine = StepEngine(run, box.get("trace"))
    box.update(run=run, engine=engine)
    h = run.config.heavy_threshold
    while True:
        log = run.new_round()
        if not run.config.reuse_samples:
            engine.refs.clear()
            engine.sums[:] = 0.0
            engine.accepted = {cid: pool for cid, pool in engine.accepted.items()
                               if cid in run.centers}
        engine.phase = "probe"
        if not probe_reference(run, engine):
            return
        engine.phase = "pick"
        while not (ready := pick_ref(engine)):
            run.room(1)
            engine.step()
        for j in ready:
            pool = engine.accepted[j][:h + 1]
            run.commit_recovery(j, run.X.points[np.asarray(pool)].mean(axis=0))
            log["recovered"].append(j)
        run.end_round(log)
        run.check_target()


def _exp_fixtures():
    """Small fixtures with distance ties, duplicate points and zero weights.

    Coordinates are rounded to a grid of 0.5, so distances to running
    centers tie, and the random fixtures repeat some of their points.
    Clusters 1 and 2 of the last fixture are copies of the origin: the
    first of them recovered has its center exactly there, and every point
    of the other then has weight 0.
    """
    rng = np.random.default_rng(21)
    out = []
    for i in range(2):
        K = int(rng.integers(7, 11))
        sizes = np.maximum(4, 900 * rng.dirichlet(np.full(K, 0.6))).astype(int)
        ps = blobs(rng.uniform(-12, 12, size=(K, 2)), sizes, 1.0, seed=30 + i)
        pts = np.round(ps.points * 2) / 2
        dup = rng.integers(0, len(pts), size=100)
        out.append(PointSet(np.vstack([pts, pts[dup]]),
                            labels=np.concatenate([ps.labels, ps.labels[dup]])))
    ps = blobs([(0.0, 0.0), (0.0, 0.0), (6.0, 0.0), (0.0, 8.0), (-7.0, -7.0)],
               [200, 100, 150, 120, 40], 1.0, seed=40)
    pts = np.round(ps.points * 2) / 2
    pts[:300] = 0.0
    out.append(PointSet(pts, labels=ps.labels))
    return out


def _exp_run(rounds, ps, runner, cfg, budget=None, box=None):
    """Run a simplified variant with `rounds` as its round loop; returns
    the payload, the ledger and the final engine state."""
    box = {} if box is None else box

    def patched(run, pick):
        return rounds(run, pick, box)

    session = OracleSession(ps.labels, budget=budget)
    mp = pytest.MonkeyPatch()
    mp.setattr(recovery, "_experiment_rounds", patched)
    try:
        res = runner(ps, session, copy.copy(cfg))
    finally:
        mp.undo()
    run, engine = box["run"], box["engine"]
    L = run.L
    return (res.to_payload(), session.ledger, run.rng.bit_generator.state,
            engine.refs, engine.accepted, run.counts[:L].tolist(), engine.sums[:L].tobytes(),
            run.owner.tolist())


_experiment_rounds_block = recovery._experiment_rounds


def _block_rounds(run, pick, box):
    """recovery._experiment_rounds, recording its run, engine and blocks.

    box["takes"] gets one (start, end, why, discoveries) per take: the run's
    draw count before and after it, why it ended ("pick", "limit",
    "buffer", "budget" or "covered"; "cut" for a block that ended for none
    of these) and, for a committed take, the block positions of the draws
    that discovered a cluster.
    """
    takes = box.setdefault("takes", [])

    class Recording(recovery._ExpEngine):
        def __init__(self, r):
            super().__init__(r)
            box.update(run=r, engine=self)

        def take(self, limit, pick=None):
            start, L = self.run.draws, self.run.L
            try:
                cl, ready = super().take(limit, pick)
            except (BudgetExhausted, sampling.FullyCovered) as e:
                why = "budget" if isinstance(e, BudgetExhausted) else "covered"
                takes.append((start, self.run.draws, why, []))
                raise
            why = ("pick" if ready else "limit" if len(cl) == limit
                   else "buffer" if self._pos == len(self._buf) else "cut")
            new = np.flatnonzero(cl > L)
            found = new[np.unique(cl[new], return_index=True)[1]].tolist()
            takes.append((start, self.run.draws, why, found))
            return cl, ready

    mp = pytest.MonkeyPatch()
    mp.setattr(recovery, "_ExpEngine", Recording)
    try:
        return _experiment_rounds_block(run, pick)
    finally:
        mp.undo()


def _exp_blocks(ps, runner, cfg, budget=None):
    """_exp_run of the block engine, checking that every take ended at the
    buffer's end, the caller's limit, the pick rule, the budget or a full
    cover, never just before a discovery. Returns _exp_run's tuple and
    the takes."""
    box = {}
    got = _exp_run(_block_rounds, ps, runner, cfg, budget, box=box)
    cut = [t for t in box["takes"] if t[2] == "cut"]
    assert not cut, cut
    return got, box["takes"]


class TestExpEngineReference:
    def test_matches_draw_at_a_time(self):
        cases = {"probe": 0, "pick": 0, "discovery": 0, "exact fit": 0,
                 "cap 0": 0, "cap 1": 0, "cap mid-block": 0, "zero weight": 0,
                 "refill": 0, "discovery inside a block": 0,
                 "two discoveries in one block": 0,
                 "budget at an in-block discovery": 0,
                 "cap at an in-block discovery": 0}
        for ps in _exp_fixtures():
            for runner in (run_basic_simplified, run_improved_simplified):
                for reuse in (True, False):
                    cfg = RecoveryConfig(eps=0.5, seed=7, reuse_samples=reuse,
                                         heavy_threshold=3, draw_cap=6000)
                    ref_box = {"trace": []}
                    want = _exp_run(exp_engine_reference, ps, runner, cfg, box=ref_box)
                    got, takes = _exp_blocks(ps, runner, cfg)
                    assert got == want
                    trace = ref_box["trace"]
                    cases["zero weight"] += ref_box["engine"].zero_weight_draws
                    cases["refill"] += want[0]["samples_total"] > 2048
                    # Draws that discovered a cluster after the first draw
                    # of their block, and blocks that go on past one.
                    inside = [a + p for a, _, _, found in takes for p in found if p > 0]
                    cases["discovery inside a block"] += sum(
                        any(0 < p < b - a - 1 for p in found) for a, b, _, found in takes)
                    cases["two discoveries in one block"] += sum(
                        len(found) >= 2 for _, _, _, found in takes)
                    budgets = {"exact fit": want[1]}
                    for case in ("probe", "pick"):
                        # A non-discovery draw past the middle of the run.
                        at = [i for i, (_, ph, new, _) in enumerate(trace)
                              if ph == case and not new and i >= len(trace) // 2]
                        if at:
                            budgets[case] = trace[at[0]][0] - 1
                    disc = [i for i, (_, _, new, _) in enumerate(trace) if new]
                    if disc:
                        budgets["discovery"] = trace[disc[-1]][0] - 1
                    # One query short of an in-block discovery.
                    at = [ledger for ledger, _, new, d in trace if new and d in inside]
                    if at:
                        budgets["budget at an in-block discovery"] = at[len(at) // 2] - 1
                    for case, budget in budgets.items():
                        want = _exp_run(exp_engine_reference, ps, runner, cfg, budget)
                        assert _exp_blocks(ps, runner, cfg, budget)[0] == want, case
                        assert (want[0]["stop_reason"] == "budget") == (case != "exact fit")
                        cases[case] += 1
                    # A cap strictly inside one of the block engine's
                    # blocks, and one that ends a block with its in-block
                    # discovery.
                    mid = [(a + b) // 2 for a, b, _, _ in takes if b - a >= 8]
                    caps = {"cap 0": 0, "cap 1": 1}
                    if mid:
                        caps["cap mid-block"] = mid[len(mid) // 2]
                    if inside:
                        caps["cap at an in-block discovery"] = inside[len(inside) // 2] + 1
                    for case, cap in caps.items():
                        capped = copy.copy(cfg)
                        capped.draw_cap = cap
                        want = _exp_run(exp_engine_reference, ps, runner, capped)
                        assert _exp_blocks(ps, runner, capped)[0] == want, case
                        assert want[0]["stop_reason"] == "draw_cap"
                        cases[case] += 1
        assert min(cases.values()) > 0, cases


class TestExpEngineWeightReads:
    @pytest.mark.parametrize("runner", [run_basic_simplified, run_improved_simplified])
    def test_one_weights_read_per_take(self, runner, monkeypatch):
        # No center is added inside a take, so the weights its coins read
        # also rank its references: one pointwise read per block.
        reads, per_take = [0], []
        weights_at, take = sampling.SamplerState.weights_at, recovery._ExpEngine.take

        def counting_weights_at(self, idx):
            reads[0] += 1
            return weights_at(self, idx)

        def counting_take(self, limit, pick=None):
            before = reads[0]
            try:
                return take(self, limit, pick)
            finally:
                per_take.append(reads[0] - before)

        monkeypatch.setattr(sampling.SamplerState, "weights_at", counting_weights_at)
        monkeypatch.setattr(recovery._ExpEngine, "take", counting_take)
        ps = _exp_fixtures()[0]
        res = runner(ps, OracleSession(ps.labels), RecoveryConfig(eps=0.5, seed=7,
                                                                 heavy_threshold=3))
        assert res.K_recovered >= 3 and len(per_take) > res.K_recovered
        assert per_take == [1] * len(per_take)


class TestExpEnginePools:
    @pytest.mark.parametrize("reuse", [True, False])
    @pytest.mark.parametrize("runner", [run_basic_simplified, run_improved_simplified])
    def test_live_pools_within_counts(self, runner, reuse, monkeypatch):
        # The pick rules take a heavy cluster to be sampled, and a live
        # cluster without samples to add nothing to the mass: both hold
        # only while no live cluster's pool outgrows its sample count.
        takes = []
        take = recovery._ExpEngine.take

        def checking_take(self, limit, pick=None):
            try:
                return take(self, limit, pick)
            finally:
                run = self.run
                live = [c for c in range(1, run.L + 1) if c not in run.centers]
                pools = {c: len(self.accepted.get(c, ())) for c in live}
                over = [c for c in live if pools[c] > run.counts[c - 1]]
                assert not over, (run.draws, over)
                takes.append(sum(pools.values()))

        monkeypatch.setattr(recovery._ExpEngine, "take", checking_take)
        for ps in _exp_fixtures():
            cfg = RecoveryConfig(eps=0.5, seed=7, reuse_samples=reuse, heavy_threshold=3)
            res = runner(ps, OracleSession(ps.labels), cfg)
            assert res.K_recovered >= 3
        # Most takes end with live pools to check.
        assert 2 * sum(map(bool, takes)) > len(takes) > 20


class TestPhase1Probe:
    def test_all_recovered_probe_fails_after_t1(self):
        ps = blobs([(0.0, 0.0)], [200], 0.1)
        sess = OracleSession(ps.labels)
        run = RunState(ps, sess, RecoveryConfig(eps=0.5, seed=0))
        assert phase1_probe(run) is True      # first round discovers
        cl1 = run.Q()[0]
        run.commit_recovery(cl1, ps.points[run.owner == cl1].mean(axis=0))
        draws_before = run.draws
        assert phase1_probe(run) is False
        assert run.draws - draws_before == math.floor(threshold_t1(0.5, 1)) + 1

    def test_carried_samples_satisfy_probe(self):
        ps = blobs([(0.0, 0.0), (9.0, 0.0)], [300, 300], 0.1)
        run = RunState(ps, OracleSession(ps.labels), RecoveryConfig(eps=0.5, seed=0))
        assert phase1_probe(run) is True
        draws = run.draws
        assert phase1_probe(run) is True
        assert run.draws == draws  # no new draws needed


class TestDeterminism:
    @pytest.mark.parametrize("runner", [
        run_basic, run_improved, run_basic_simplified,
        run_improved_simplified,
    ])
    def test_byte_identical_results(self, runner):
        ps, _ = generate(SynthConfig(n=1500, K=6, sigma=0.2, d=4, seed=9))
        cfg = RecoveryConfig(eps=1.0, seed=17, draw_cap=10**9)
        a = runner(ps, OracleSession(ps.labels, rng_seed=5), cfg)
        b = runner(ps, OracleSession(ps.labels, rng_seed=5), cfg)
        assert a.to_payload() == b.to_payload()

    @pytest.mark.parametrize("runner", [
        run_basic, run_improved, run_basic_simplified,
        run_improved_simplified,
    ])
    def test_deferred_centers_match_eager(self, runner, monkeypatch):
        # add_center queues a recovered center until a full read of the
        # weights; reading them after every recovery applies it at once.
        # (run_uniform never reads the weights.)
        blobs3 = blobs([(0, 0, 0, 0), (8, 0, 0, 0), (0, 8, 0, 0)], [400] * 3, 0.3, seed=3)
        synth, _ = generate(SynthConfig(n=20_000, K=30, seed=1))
        cfg = RecoveryConfig(eps=1.0, seed=4, draw_cap=10**10)
        commit = RunState.commit_recovery

        def eager(run, cid, center):
            commit(run, cid, center)
            run.sampler.weights

        for ps, target in ((blobs3, None), (synth, 15)):
            runs = []
            for patch in (False, True):
                if patch:
                    monkeypatch.setattr(RunState, "commit_recovery", eager)
                session = OracleSession(ps.labels)
                res = runner(ps, session, cfg, target=target)
                runs.append((res.to_payload(), session.ledger))
            monkeypatch.undo()
            assert runs[0] == runs[1]
            assert res.K_recovered >= 3

    def test_uniform_byte_identical(self):
        ps, _ = generate(SynthConfig(n=1500, K=6, sigma=0.2, d=4, seed=9))
        cfg = RecoveryConfig(seed=17)
        a = run_uniform(ps, OracleSession(ps.labels), cfg, target=4)
        b = run_uniform(ps, OracleSession(ps.labels), cfg, target=4)
        assert a.to_payload() == b.to_payload()


def _noisy_runner(p: float):
    def run(X, session, config, target):
        return run_noisy(X, session, NoisyConfig(p=p), config.eps, seed=config.seed,
                         draw_cap=config.draw_cap, target=target)
    return run, p


CAP_FIXTURES = {
    # While rejection sampling sized its batches by the draws left under
    # the cap, the caps D, D + 1, D + 4096 and 2D (D the draws of the
    # run) each moved run_basic here, and the first two run_improved.
    "three": (lambda: well_separated(sizes=(500, 350, 250)), dict(eps=1.0, seed=3), 3),
    "skewed": (lambda: blobs([(0.0, 0.0), (7.0, 0.0), (0.0, 7.0), (-7.0, -2.0), (5.0, 8.0)],
                             [200, 100, 50, 25, 12], 0.4, seed=5),
               dict(eps=0.5, seed=8, reuse_samples=False), 4),
    "wide": (lambda: well_separated(sigma=0.3, sizes=(100, 70, 50)), dict(eps=1.0, seed=3), 3),
    "small": (lambda: well_separated(sizes=(100, 70, 50), seed=2), dict(eps=1.0, seed=3), 3),
}
CAP_RUNNERS = {
    "basic": (run_basic, 0.0), "improved": (run_improved, 0.0),
    "basic_simplified": (run_basic_simplified, 0.0),
    "improved_simplified": (run_improved_simplified, 0.0),
    "uniform": (run_uniform, 0.0),
    "noisy_p0": _noisy_runner(0.0), "noisy_p0.1": _noisy_runner(0.1),
}
# Noisy at p=0.1 has no uncapped run on "three": its first Phase 2
# doubles q into any cap.
CAP_CASES = ([(f, r) for f in ("three", "skewed") for r in list(CAP_RUNNERS)[:5]]
             + [("three", "noisy_p0"), ("wide", "noisy_p0"),
                ("wide", "noisy_p0.1"), ("small", "noisy_p0.1")])


class TestDrawCap:
    """No run draws more than draw_cap samples, a cap that stops a run
    reports "draw_cap" with incomplete=True, and a cap only truncates."""

    @pytest.mark.parametrize("runner", [run_basic, run_improved])
    def test_theory_phases_stop_at_cap(self, runner):
        # Uncapped, Improved's first Phase 2 alone takes about 11M draws
        # here, and Basic's fills and top-ups pass 1M.
        X, _ = load(DatasetSpec(DATA / "shuttle_like.csv"))
        cfg = RecoveryConfig(eps=1.0, seed=7, draw_cap=10 ** 6)
        res = runner(X, OracleSession(X.labels), cfg)
        assert res.samples_total <= 10 ** 6
        assert res.stop_reason == "draw_cap"
        assert res.incomplete is True

    @pytest.mark.parametrize("runner", [
        run_basic, run_improved, run_basic_simplified, run_improved_simplified,
        run_uniform,
    ])
    def test_caps_below_the_run(self, runner):
        ps = well_separated(sizes=(500, 350, 250))
        cfg = RecoveryConfig(eps=1.0, seed=3, draw_cap=10 ** 9)
        full = runner(ps, OracleSession(ps.labels), cfg, target=3)
        assert full.stop_reason == "target"
        for cap in (0, 1, 5, full.samples_total // 2, full.samples_total - 1):
            cfg.draw_cap = cap
            res = runner(ps, OracleSession(ps.labels), cfg, target=3)
            assert res.samples_total <= cap, cap
            assert (res.stop_reason, res.incomplete) == ("draw_cap", True), cap
            # The cap only truncates: every round the full run completed
            # within the cap is logged as the full run logged it.
            for i, entry in enumerate(full.per_round):
                if entry.get("samples", cap + 1) <= cap:
                    assert res.per_round[i] == entry, (cap, i)

    @pytest.mark.parametrize("fixture,runner", CAP_CASES,
                             ids=[f"{f}-{r}" for f, r in CAP_CASES])
    def test_caps_at_or_above_the_run(self, fixture, runner):
        """A cap that the run never reaches changes neither its payload
        nor its ledger."""
        make, kwargs, target = CAP_FIXTURES[fixture]
        X = make()
        run_fn, p = CAP_RUNNERS[runner]

        def run(cap):
            session = OracleSession(X.labels, error_prob=p, rng_seed=1)
            res = run_fn(X, session, RecoveryConfig(draw_cap=cap, **kwargs), target)
            return res.to_payload(), session.ledger

        full = run(10 ** 9)
        assert full[0]["stop_reason"] == "target"
        draws = full[0]["samples_total"]
        for cap in (draws, draws + 1, draws + 4096, 2 * draws):
            assert run(cap) == full, cap

    def test_negative_cap_is_an_error(self):
        # A run makes no draw at a negative cap, so it could only end on
        # "draw_cap" with samples_total 0 > draw_cap.
        with pytest.raises(ValueError, match="draw_cap must be >= 0, got -5"):
            RecoveryConfig(draw_cap=-5)
        assert RecoveryConfig(draw_cap=0).draw_cap == 0


class TestReuseModes:
    @pytest.mark.parametrize("reuse", [True, False])
    def test_basic_both_modes_recover(self, reuse):
        ps = well_separated(sizes=(500, 350, 250))
        cfg = RecoveryConfig(eps=0.5, seed=6, reuse_samples=reuse, draw_cap=10**9)
        res = run_basic(ps, OracleSession(ps.labels), cfg)
        assert res.K_recovered == 3
        assert all(e <= 0.5 for e in res.per_cluster_errors.values())

    @pytest.mark.parametrize("reuse", [True, False])
    def test_improved_both_modes_recover(self, reuse):
        ps = well_separated(sizes=(500, 350, 250))
        cfg = RecoveryConfig(eps=0.5, seed=6, reuse_samples=reuse, draw_cap=10**9)
        res = run_improved(ps, OracleSession(ps.labels), cfg)
        assert res.K_recovered == 3


class IngestReference:
    """RunState's sample ingestion as a loop over clusters: one set of
    sampled points per cluster, created on first use."""

    def __init__(self):
        self.points: dict[int, set[int]] = {}
        self.counts: dict[int, int] = {}
        self.s_total = 0

    def ingest(self, idx, cl, mult=None):
        if mult is None:
            mult = np.ones(len(idx), dtype=np.int64)
        for cid in np.unique(cl).tolist():
            self.points.setdefault(cid, set()).update(idx[cl == cid].tolist())
            self.counts[cid] = self.counts.get(cid, 0) + int(mult[cl == cid].sum())
        self.s_total += int(mult.sum())

    def reset(self):
        self.points.clear()
        self.counts.clear()
        self.s_total = 0


def least_weight(points, weights: np.ndarray) -> int:
    """The least-weight point of a set, ties to the lowest index."""
    return min(points, key=lambda x: (weights[x], x))


def owner_table(points: dict[int, set[int]], n: int) -> list[int]:
    """Per point, the cluster whose set holds it, 0 if none."""
    owner = np.zeros(n, dtype=np.int64)
    for cid, xs in points.items():
        owner[list(xs)] = cid
    return owner.tolist()


class TestIngestReference:
    """ingest, with and without multiplicities, leaves the owners, counts
    and sample total of the per-cluster loop, across capacity growth and
    round resets. Each point's cluster comes from one fixed point->cluster
    table, as in a run, where a point classifies to one cluster."""

    @staticmethod
    def same(run: RunState, ref: IngestReference):
        assert run.owner.tolist() == owner_table(ref.points, len(run.owner))
        counts = np.zeros(len(run.counts), dtype=np.int64)
        for cid, c in ref.counts.items():
            counts[cid - 1] = c
        assert run.counts.tolist() == counts.tolist()
        assert run.s_total == ref.s_total
        for cid, xs in ref.points.items():
            assert run.reference_for(cid) == least_weight(xs, run.sampler.weights)

    @pytest.mark.parametrize("reuse", [True, False])
    def test_matches_per_cluster_loop(self, reuse):
        rng = np.random.default_rng(11)
        n = 400
        ps = PointSet(rng.normal(size=(n, 2)), labels=rng.integers(1, 31, size=n))
        table = ps.labels
        run = RunState(ps, OracleSession(ps.labels),
                       RecoveryConfig(eps=0.5, seed=0, reuse_samples=reuse))
        run.sampler.weights = rng.integers(0, 5, size=n).astype(np.float64)
        ref = IngestReference()
        capacities = {len(run.counts)}
        for step, top in enumerate([3, 5, 8, 9, 12, 16, 17, 24, 30, 30]):
            if step % 3 == 2:
                run.new_round()
                if not reuse:
                    ref.reset()
            pool = np.flatnonzero(table <= top)
            idx = rng.choice(pool, size=int(rng.integers(1, 60)))
            run.ingest(idx, table[idx])
            ref.ingest(idx, table[idx])
            self.same(run, ref)
            x = rng.choice(pool, size=1)
            run.ingest(x, table[x])
            ref.ingest(x, table[x])
            self.same(run, ref)
            sampled = np.unique(rng.choice(pool, size=25))
            mult = rng.integers(1, 4, size=len(sampled))
            run.ingest(sampled, table[sampled], mult)
            ref.ingest(sampled, table[sampled], mult)
            self.same(run, ref)
            capacities.add(len(run.counts))
        assert capacities == {8, 16, 32}


class TestSampleRecord:
    """The sample record over whole runs of the five exact runners: no point
    is ingested under two clusters, and every reference point is the
    least-weight, lowest-index point ingested for its cluster since the
    last reset."""

    @pytest.mark.parametrize("runner", [
        run_basic, run_improved, run_basic_simplified, run_improved_simplified,
        run_uniform,
    ])
    def test_one_cluster_per_point(self, runner, monkeypatch):
        ps = well_separated(sizes=(500, 350, 250))
        spy = {}
        ingest, reset, reference_for = (RunState.ingest, RunState.reset_round_state,
                                        RunState.reference_for)

        def spy_ingest(self, idx, cl, mult=None):
            spy["run"] = self
            for x, c in zip(idx.tolist(), cl.tolist()):
                assert spy["owner"].setdefault(x, c) == c, (x, c)
                spy["since_reset"].setdefault(c, set()).add(x)
            ingest(self, idx, cl, mult)

        def spy_reset(self):
            spy["since_reset"].clear()
            reset(self)

        def spy_reference_for(self, cid):
            got = reference_for(self, cid)
            assert got == least_weight(spy["since_reset"][cid], self.sampler.weights)
            spy["checked"] += 1
            return got

        monkeypatch.setattr(RunState, "ingest", spy_ingest)
        monkeypatch.setattr(RunState, "reset_round_state", spy_reset)
        monkeypatch.setattr(RunState, "reference_for", spy_reference_for)

        def spied_run(cfg, budget):
            spy.update(owner={}, since_reset={}, checked=0)
            res = runner(ps, OracleSession(ps.labels, budget=budget), cfg, target=3)
            run = spy["run"]
            # Every cluster sampled since the last reset, at the end.
            for cid in spy["since_reset"]:
                run.reference_for(cid)
            assert spy["checked"] >= len(spy["since_reset"]) > 0
            assert run.owner.tolist() == owner_table(spy["since_reset"], len(ps))
            return res

        for reuse in (True, False):
            cfg = RecoveryConfig(eps=1.0, seed=3, reuse_samples=reuse)
            full = spied_run(cfg, None)
            assert full.stop_reason == "target"
            assert spied_run(cfg, full.queries_total // 2).stop_reason == "budget"


def fill_reference(run: RunState, n: int, trace: list | None = None):
    """RunState.draw_classified_fill of n <= _FILL_BATCH draws, one draw at
    a time: each D2 draw is classified by the Classify rule (the rank of
    its label's discovery, or L queries for a new label), charged through
    session.charge, registered if new and ingested. Without a budget the
    fill first draws the chunk's counts; this reference covers only a chunk
    that they drop for an undiscovered label. trace, if given, gets the
    ledger after each draw."""
    session, reps = run.session, run.reps
    if session.budget is None:
        assert sampling.counts_chunk(run.sampler, session, reps, run.rng, n) is None
    for _ in range(n):
        x = int(sampling.d2_sample_batch(run.sampler, run.rng, 1)[0])
        L = reps.discovered_count
        cid = next((i for i in range(1, L + 1)
                    if session.truth[reps.rep_point(i)] == session.truth[x]), 0)
        session.charge(cid or L)
        if not cid:
            cid = reps.add_cluster(x)
        run.ingest(np.array([x]), np.array([cid]))
        if trace is not None:
            trace.append(session.ledger)


def _fill_run(ps: PointSet, centers: bool, budget) -> RunState:
    """A run with labels 3 and 1 discovered, so every draw costs at least
    one query, and the other labels still to find; with centers, two of
    the true means are D2 centers."""
    run = RunState(ps, OracleSession(ps.labels, budget=budget),
                   RecoveryConfig(eps=0.5, seed=8))
    for lab in (3, 1):
        run.reps.add_cluster(int(np.flatnonzero(ps.labels == lab)[0]))
    if centers:
        for lab in (1, 2):
            sampling.add_center(run.sampler, ps.cluster_points(lab).mean(axis=0))
    return run


def _fill_state(run: RunState) -> tuple:
    return (run.session.ledger, run.draws, run.counts.tolist(), run.owner.tolist(),
            run.reps.reps)


def _filled(fill, run: RunState, n: int) -> str:
    try:
        fill(run, n)
    except BudgetExhausted:
        return "budget"
    return "filled"


class TestFillReference:
    """draw_classified_fill, drawn, peeked and committed in pieces, leaves
    the ledger, draws, counts, owners and registrations of fill_reference
    and stops at the same draw, with and without centers."""

    N = 3000
    PIECE = 512

    @pytest.fixture
    def pieces(self, monkeypatch):
        """The sizes of the fill's d2_sample_batch calls."""
        sizes = []
        draw = sampling.d2_sample_batch

        def spy(state, rng, size):
            sizes.append(size)
            return draw(state, rng, size)

        monkeypatch.setattr(recovery._sampling, "d2_sample_batch", spy)
        return sizes

    @staticmethod
    def small():
        return blobs([(0, 0), (6, 0), (0, 6), (6, 6), (3, 12), (12, 3)],
                     (150, 100, 80, 50, 15, 5), 0.5, seed=4)

    @pytest.mark.parametrize("centers", [False, True])
    @pytest.mark.parametrize("stop", ["first", "piece_end", "next_piece", "mid", "last",
                                      "never"])
    def test_budget_stops_at_the_reference_draw(self, centers, stop, monkeypatch, pieces):
        monkeypatch.setattr(recovery, "_FILL_PIECE", self.PIECE)
        ps = self.small()
        assert len(ps) < self.PIECE
        trace = []
        fill_reference(_fill_run(ps, centers, 10**12), self.N, trace)
        i = {"first": 1, "piece_end": self.PIECE, "next_piece": self.PIECE + 1,
             "mid": 1700, "last": self.N, "never": None}[stop]
        # The budget binds at draw i: the ledger after draw i passes it,
        # the ledger before it does not.
        budget = trace[-1] if i is None else trace[i - 1] - 1
        assert i is None or budget >= ([0] + trace)[i - 1]
        run, ref = _fill_run(ps, centers, budget), _fill_run(ps, centers, budget)
        pieces.clear()
        got = _filled(RunState.draw_classified_fill, run, self.N)
        sizes = list(pieces)
        want = _filled(fill_reference, ref, self.N)
        assert got == want == ("filled" if i is None else "budget")
        assert _fill_state(run) == _fill_state(ref)
        assert run.draws == (self.N if i is None else i - 1)
        # Pieces of PIECE draws and a shorter last one, up to the piece
        # that holds draw i.
        full = [self.PIECE] * (self.N // self.PIECE) + [self.N % self.PIECE]
        assert sizes == (full if i is None else full[:-(-i // self.PIECE)])
        if i is None:
            assert run.rng.bit_generator.state == ref.rng.bit_generator.state

    @pytest.mark.parametrize("centers", [False, True])
    def test_dropped_counts_chunk(self, centers, monkeypatch, pieces):
        # Unbudgeted, the chunk's counts meet an undiscovered label, so the
        # chunk is drawn again in order; the generator ends where the
        # reference's does.
        monkeypatch.setattr(recovery, "_FILL_PIECE", self.PIECE)
        ps = self.small()
        run, ref = _fill_run(ps, centers, None), _fill_run(ps, centers, None)
        run.draw_classified_fill(self.N)
        assert len(pieces) == -(-self.N // self.PIECE)
        fill_reference(ref, self.N)
        assert _fill_state(run) == _fill_state(ref)
        assert run.rng.bit_generator.state == ref.rng.bit_generator.state
        assert run.reps.discovered_count == 6

    @pytest.mark.parametrize("centers", [False, True])
    def test_piece_of_n_points(self, centers, pieces):
        # Above _FILL_PIECE points a piece is n draws. The budget binds at
        # the first draw of the second piece.
        n = recovery._FILL_PIECE + 1000
        ps = blobs([(0, 0), (6, 0), (0, 6), (6, 6)], (n - 1010, 900, 100, 10), 0.5, seed=5)
        probe = _fill_run(ps, centers, 10**12)
        probe.draw_classified_fill(n + 1)
        assert pieces == [n, 1]
        budget = probe.session.ledger - 1
        run, ref = _fill_run(ps, centers, budget), _fill_run(ps, centers, budget)
        pieces.clear()
        assert _filled(RunState.draw_classified_fill, run, n + 300) == "budget"
        assert pieces == [n, 300]
        assert _filled(fill_reference, ref, n + 300) == "budget"
        assert _fill_state(run) == _fill_state(ref)
        assert run.draws == n
