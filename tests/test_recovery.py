import copy
import heapq
import math

import numpy as np
import pytest

from samecluster import recovery
from samecluster import sampling
from samecluster.geometry import PointSet
from samecluster.oracle import BudgetExhausted, OracleSession
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
    excluded = run.recovered | run.starved
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
            {c: np.flatnonzero(m).tolist() for c, m in run.masks.items()},
            run.rng.bit_generator.state)


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


class TestPhase2Reference:
    def test_chunked_matches_draw_at_a_time(self, monkeypatch):
        paths = {"constant": 0, "exact": 0}
        constant_w = recovery._constant_w

        def counting_constant_w(*args):
            out = constant_w(*args)
            paths["exact" if out is None else "constant"] += 1
            return out

        snapshots = []
        chunked = recovery._improved_phase2

        def snapshot_then_run(run):
            snapshots.append(copy.deepcopy(run))
            return chunked(run)

        monkeypatch.setattr(recovery, "_constant_w", counting_constant_w)
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
        assert paths["constant"] > 0 and paths["exact"] > 0

    def test_band_rules_match_tracker(self):
        # Small counts cross band edges and heavy thresholds often.
        rng = np.random.default_rng(11)
        pinned = open_ranges = 0
        for _ in range(300):
            q0 = int(rng.integers(1, 12))
            base = rng.integers(0, 4, size=q0)
            base[0] = max(base[0], 1)
            draws = rng.choice(q0, size=60, p=rng.dirichlet(np.full(q0, 0.5)))
            C = base[:, None] + np.cumsum(draws == np.arange(q0)[:, None], axis=1)
            T = C.sum(axis=0)
            q, heavy = recovery._heavy_rows(C, T)
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
            for _ in range(10):
                a, b = sorted(int(v) for v in rng.integers(0, len(draws), size=2))
                got = recovery._constant_w(C[:, a], C[:, b], int(T[a]), int(T[b]))
                if got is None:
                    open_ranges += 1
                    continue
                pinned += 1
                assert all(got == (q[j], w[j]) for j in range(a, b + 1))
        assert pinned > 0 and open_ranges > 0

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


class TestPhase1Probe:
    def test_all_recovered_probe_fails_after_t1(self):
        ps = blobs([(0.0, 0.0)], [200], 0.1)
        sess = OracleSession(ps.labels)
        run = RunState(ps, sess, RecoveryConfig(eps=0.5, seed=0))
        assert phase1_probe(run) is True      # first round discovers
        cl1 = run.Q()[0]
        run.commit_recovery(cl1, ps.points[run.mask_of(cl1)].mean(axis=0))
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

    def test_uniform_byte_identical(self):
        ps, _ = generate(SynthConfig(n=1500, K=6, sigma=0.2, d=4, seed=9))
        cfg = RecoveryConfig(seed=17)
        a = run_uniform(ps, OracleSession(ps.labels), cfg, target=4)
        b = run_uniform(ps, OracleSession(ps.labels), cfg, target=4)
        assert a.to_payload() == b.to_payload()


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
