import copy

import numpy as np
import pytest

from samecluster.geometry import PointSet
from samecluster.harness import classify_study
from samecluster.oracle import (
    BudgetExhausted,
    OracleError,
    OracleSession,
    Representatives,
    check_cluster,
    classify,
    classify_batch,
    commit_classify,
    distance_ranks,
    peek_classify,
)
from samecluster.recovery import RecoveryResult

TRUTH = [1, 1, 2, 2, 2, 3, 3, 2, 5, 5]


def make_session(p=0.0, seed=0, budget=None):
    return OracleSession(TRUTH, error_prob=p, rng_seed=seed, budget=budget)


class TestSameCluster:
    def test_exact_true(self):
        s = make_session()
        assert s.same_cluster(3, 7) is True  # truth 2 == 2

    def test_exact_false(self):
        s = make_session()
        assert s.same_cluster(3, 8) is False  # truth 2 vs 5

    def test_ledger_counts_every_call(self):
        s = make_session()
        for _ in range(5):
            s.same_cluster(0, 1)
        assert s.ledger == 5

    def test_noisy_repetition_consistent(self):
        s = make_session(p=0.2, seed=42)
        first = [s.same_cluster(3, 7) for _ in range(10)]
        assert len(set(first)) == 1

    def test_noisy_replay_identical(self):
        pairs = [(0, 5), (2, 3), (8, 9), (0, 5), (1, 7)]
        a = make_session(p=0.3, seed=9)
        b = make_session(p=0.3, seed=9)
        assert [a.same_cluster(*pr) for pr in pairs] == [b.same_cluster(*pr) for pr in pairs]
        assert a.ledger == b.ledger == len(pairs)

    def test_self_pair_true(self):
        s = make_session(p=0.4, seed=1)
        assert all(s.same_cluster(4, 4) for _ in range(20))

    def test_out_of_range(self):
        with pytest.raises(OracleError):
            make_session().same_cluster(0, 99)

    def test_error_prob_validated(self):
        with pytest.raises(OracleError):
            OracleSession(TRUTH, error_prob=0.5)


def charge_loop(start: int, costs, budget):
    """Reference: charge items one at a time; (ledger, items done, raised)."""
    ledger = start
    for done, c in enumerate(costs):
        if budget is not None and ledger + c > budget:
            return budget, done, True
        ledger += c
    return ledger, len(costs), False


class TestCharge:
    def test_negative_budget_rejected(self):
        with pytest.raises(OracleError, match="budget must be >= 0, got -1"):
            make_session(budget=-1)
        assert make_session(budget=0).budget == 0

    def test_matches_item_loop(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            costs = rng.integers(0, 5, size=int(rng.integers(0, 12)))
            if len(costs) and rng.random() < 0.5:
                costs[0] = 0            # a run's first draw costs nothing
            start = int(rng.integers(0, 6))
            total = int(costs.sum())
            # No room left (budget 0 when start is 0), exact fit, one short
            # and a random budget.
            budgets = {None, start, start + total, start + total - 1,
                       int(rng.integers(start, start + total + 3))}
            for budget in budgets - {start - 1}:
                want = charge_loop(start, costs.tolist(), budget)
                assert want[0] == (start + total if budget is None
                                   else min(budget, start + total))
                s = make_session(budget=budget)
                s.ledger = start
                try:
                    s.charge_items(costs)
                    got = (s.ledger, len(costs), False)
                except BudgetExhausted as e:
                    got = (s.ledger, e.done, True)
                assert got == want
                # Charging one item at a time agrees.
                s = make_session(budget=budget)
                s.ledger = start
                done = 0
                try:
                    for c in costs.tolist():
                        s.charge(c)
                        done += 1
                    got = (s.ledger, done, False)
                except BudgetExhausted as e:
                    assert e.done == 0
                    got = (s.ledger, done, True)
                assert got == want


class TestClassify:
    def test_matches_second_rep(self):
        s = make_session()
        reps = Representatives()
        for z in (0, 2, 5):  # clusters 1, 2, 3 discovered in this order
            reps.add_cluster(z)
        before = s.ledger
        assert classify(s, 4, reps) == 2  # truth 2 is rep index 2
        assert s.ledger - before == 2

    def test_new_cluster_branch(self):
        s = make_session()
        reps = Representatives()
        for z in (0, 2, 5):
            reps.add_cluster(z)
        before = s.ledger
        got = classify(s, 8, reps)  # truth 5, undiscovered
        assert got == 4
        assert s.ledger - before == 3
        assert reps.discovered_count == 4

    def test_first_point_free(self):
        s = make_session()
        reps = Representatives()
        assert classify(s, 0, reps) == 1
        assert s.ledger == 0

    def test_never_misassigns(self):
        s = make_session()
        reps = Representatives()
        rng = np.random.default_rng(0)
        assigned = {}
        for x in rng.integers(0, len(TRUTH), size=200):
            i = classify(s, int(x), reps)
            lab = TRUTH[x]
            assert assigned.setdefault(i, lab) == lab

    def test_query_bound(self):
        s = make_session()
        reps = Representatives()
        for x in range(len(TRUTH)):
            L = reps.discovered_count
            before = s.ledger
            classify(s, x, reps)
            assert s.ledger - before <= L


class TestClassifyBatch:
    def test_equivalent_to_sequential(self):
        rng = np.random.default_rng(4)
        xs = rng.integers(0, len(TRUTH), size=300)
        s1, r1 = make_session(), Representatives()
        seq = np.array([classify(s1, int(x), r1) for x in xs])
        s2, r2 = make_session(), Representatives()
        got = classify_batch(s2, xs, r2)
        np.testing.assert_array_equal(seq, got)
        assert s1.ledger == s2.ledger
        assert r1.reps == r2.reps

    def test_budget_truncates_exactly(self):
        # Every budget from 0 to the full ledger, against scalar classify:
        # the same samples commit, with the same reps and ledger.
        rng = np.random.default_rng(4)
        xs = rng.integers(0, len(TRUTH), size=100)
        s_full, r_full = make_session(), Representatives()
        classify_batch(s_full, xs, r_full)
        crossed_on_discovery = 0
        for budget in range(s_full.ledger + 1):
            s1, r1 = make_session(budget=budget), Representatives()
            done1 = 0
            try:
                for x in xs:
                    classify(s1, int(x), r1)
                    done1 += 1
            except BudgetExhausted:
                pass
            s2, r2 = make_session(budget=budget), Representatives()
            try:
                classify_batch(s2, xs, r2)
                done2 = len(xs)
            except BudgetExhausted as e:
                done2 = e.done
            assert done2 == done1
            assert s2.ledger == s1.ledger == min(budget, s_full.ledger)
            assert r2.reps == r1.reps
            if done1 < len(xs) and r1.rank_of_label(s1)[TRUTH[xs[done1]]] == 0:
                crossed_on_discovery += 1
        assert crossed_on_discovery > 0

    def test_peek_commit_matches_batch(self):
        rng = np.random.default_rng(8)
        xs = rng.integers(0, len(TRUTH), size=120)
        s1, r1 = make_session(), Representatives()
        cl1 = classify_batch(s1, xs, r1)
        s2, r2 = make_session(), Representatives()
        cl2, costs, new_firsts = peek_classify(s2, xs, r2)
        assert s2.ledger == 0 and r2.discovered_count == 0
        commit_classify(s2, r2, costs, new_firsts, len(xs))
        np.testing.assert_array_equal(cl1, cl2)
        assert s1.ledger == s2.ledger
        assert r1.reps == r2.reps

    def test_peek_follows_growth_and_keeps_its_table(self):
        # Peeks between commits of random prefixes, provisional ids left
        # uncommitted included, match classify() run on a copy of the state,
        # with the point -> rank table built or not, and no peek writes
        # that table.
        rng = np.random.default_rng(12)
        s, r = make_session(), Representatives()
        grown = 0
        for step in range(12):
            xs = rng.integers(0, len(TRUTH), size=int(rng.integers(1, 2 * len(TRUTH))))
            if step % 3 == 0:
                r.rank_of_point(s)
            table = r._rank_of_point
            kept = None if table is None else table.copy()
            cl, costs, new_firsts = peek_classify(s, xs, r)
            if table is None:               # a peek of n points or more builds it
                assert (r._rank_of_point is None) == (len(xs) < len(TRUTH))
            else:
                assert r._rank_of_point is table
                np.testing.assert_array_equal(table, kept)
            s2, r2 = copy.deepcopy((s, r))
            want = []
            for x in xs:
                before = s2.ledger
                want.append((classify(s2, int(x), r2), s2.ledger - before))
            assert list(zip(cl.tolist(), costs.tolist())) == want
            charged = costs.copy()
            cl[:] = costs[:] = -1           # the peek's arrays share no memory with the table
            if r._rank_of_point is not None:
                np.testing.assert_array_equal(r._rank_of_point, r.rank_of_label(s)[s.truth])
            before = r.discovered_count
            commit_classify(s, r, charged, new_firsts, int(rng.integers(0, min(len(xs), 3) + 1)))
            grown += r.discovered_count > before
        assert r.discovered_count == 4 and grown >= 2

    def test_commit_prefix_only(self):
        xs = np.array([0, 2, 5, 8, 1, 3])
        s, r = make_session(), Representatives()
        cl, costs, new_firsts = peek_classify(s, xs, r)
        commit_classify(s, r, costs, new_firsts, 3)
        assert r.discovered_count == 3  # clusters of points 0, 2, 5 only


class TestHeuristicClassify:
    """Distance-ordered Classify: oracle.distance_ranks and, for points of
    undiscovered labels, harness.classify_study."""

    PTS = np.array([[0.0, 0.0], [0.1, 0.0], [5.0, 0.0], [5.1, 0.0],
                    [0.0, 9.0], [0.1, 9.0]])
    CENTERS = PTS[[0, 2, 4]]

    def ranks(self, x, own, centers=CENTERS):
        D = np.sum((centers - np.asarray(x)) ** 2, axis=1)[None]
        return int(distance_ranks(D, np.array([own]))[0])

    def test_nearest_first(self):
        assert self.ranks(self.PTS[1], 1) == 1

    def test_rank_of_true_cluster(self):
        # A point of cluster 2 nearer to cluster 1's center than its own.
        assert self.ranks([2.0, 0.0], 2) == 2

    def test_new_cluster_uses_L_queries(self):
        # Point 6 opens a fourth cluster after asking the three open ones;
        # point 7 then finds it first, by its center at point 6.
        X = PointSet(np.vstack([self.PTS, [[50.0, 50.0], [50.0, 50.1]]]),
                     labels=np.array([1, 1, 2, 2, 3, 3, 9, 9]))
        result = RecoveryResult("basic", 0, I=[1, 2, 3],
                                centers={1: [0.0, 0.0], 2: [5.0, 0.0], 3: [0.0, 9.0]},
                                reps={1: 0, 2: 2, 3: 4})
        hist, correct = classify_study(X, result)
        assert hist == {1: 7, 3: 1}
        assert correct == 1.0

    def test_tie_breaks_by_index(self):
        # Equidistant to centers 1 and 2; cluster order decides.
        assert self.ranks([2.5, 0.0], 2) == 2
        assert self.ranks([2.5, 0.0], 1) == 1

    def test_absent_centers_and_ties_match_stable_argsort(self):
        # Distances from a few small integers, so they tie, and +inf for
        # about a third of the centers, which do not exist yet: the query
        # order is a stable argsort over the existing centers only.
        rng = np.random.default_rng(3)
        D = rng.integers(0, 4, size=(500, 9)).astype(float)
        D[rng.random(D.shape) < 0.35] = np.inf
        D = D[np.isfinite(D).any(axis=1)]
        own = np.array([rng.choice(np.flatnonzero(np.isfinite(row))) + 1 for row in D])
        want = []
        for row, c in zip(D, own):
            exists = np.flatnonzero(np.isfinite(row))
            order = exists[np.argsort(row[exists], kind="stable")]
            want.append(int(np.flatnonzero(order == c - 1)[0]) + 1)
        got = distance_ranks(D, own)
        np.testing.assert_array_equal(got, want)
        ties = (D == D[np.arange(len(D)), own - 1][:, None]).sum(axis=1) > 1
        assert ties.sum() > 100 and np.isinf(D).any(axis=1).sum() > 100


class TestSameClusterMany:
    """same_cluster_many against same_cluster called pair by pair."""

    LABELS = np.random.default_rng(1).integers(0, 3, size=12)

    @staticmethod
    def _calls(seed, count=40):
        # Short lists over 12 points, so pairs repeat within and across
        # calls; about half the lists ask x itself.
        rng = np.random.default_rng(seed)
        calls = []
        for _ in range(count):
            x = int(rng.integers(0, 12))
            zs = rng.integers(0, 12, size=int(rng.integers(0, 9))).tolist()
            if zs and rng.random() < 0.5:
                zs[int(rng.integers(0, len(zs)))] = x
            calls.append((x, zs))
        return calls

    def _run(self, p, many, prefix, batch, budget=None):
        """Ask prefix pair by pair, then batch; returns the batch's answers
        (or the error type) and the session's ledger, cache and flip RNG."""
        s = OracleSession(self.LABELS, error_prob=p, rng_seed=5, budget=budget)
        for x, zs in prefix:
            for z in zs:
                s.same_cluster(x, z)
        x, zs = batch
        try:
            got = s.same_cluster_many(x, zs) if many else [s.same_cluster(x, z) for z in zs]
        except (BudgetExhausted, OracleError) as e:
            got = type(e)
        return got, s.ledger, dict(s.answer_cache), s._rng.bit_generator.state

    @pytest.mark.parametrize("p", [0.0, 0.1, 0.3])
    def test_matches_sequential(self, p):
        calls = self._calls(2)
        for k in range(len(calls)):
            assert self._run(p, True, calls[:k], calls[k]) == \
                self._run(p, False, calls[:k], calls[k])
        asked = sum(len(zs) for _, zs in calls)
        cached = len(self._run(p, True, calls[:-1], calls[-1])[2])
        assert cached < asked if p else cached == 0

    @pytest.mark.parametrize("p", [0.0, 0.1, 0.3])
    def test_budget_cut_at_every_position(self, p):
        prefix = self._calls(3, count=10)
        start = sum(len(zs) for _, zs in prefix)
        x, zs = 4, [4, 0, 7, 4, 0, 11, 2, 7]     # x itself, and repeated pairs
        for c in range(len(zs) + 1):
            got = self._run(p, True, prefix, (x, zs), budget=start + c)
            assert got == self._run(p, False, prefix, (x, zs), budget=start + c)
            assert got[1] == start + c
            assert (got[0] is BudgetExhausted) == (c < len(zs))

    @pytest.mark.parametrize("p", [0.0, 0.3])
    def test_out_of_range_after_prefix(self, p):
        prefix = self._calls(4, count=10)
        start = sum(len(zs) for _, zs in prefix)
        for c in range(5):
            for bad in (12, -1):
                zs = [3, 9, 3, 1, 6]
                zs[c] = bad
                # A budget one short cuts before the bad index, as it must.
                for budget in (None, start + c) + ((start + c - 1,) if c else ()):
                    got = self._run(p, True, prefix, (3, zs), budget=budget)
                    assert got == self._run(p, False, prefix, (3, zs), budget=budget)
                    cut = budget is not None and budget < start + c
                    assert got[0] is (BudgetExhausted if cut else OracleError)
                    assert got[1] == start + c - cut
        for x in (12, -1):
            got = self._run(p, True, prefix, (x, [1, 2]))
            assert got == self._run(p, False, prefix, (x, [1, 2]))
            assert (got[0], got[1]) == (OracleError, start)


class TestCheckCluster:
    def _noisy_session_with(self, answers, x, members):
        """Session whose cache is pre-seeded to force given answers."""
        s = OracleSession([1] * 20, error_prob=0.1, rng_seed=0)
        for z, ans in zip(members, answers):
            key = (x, z) if x < z else (z, x)
            s.answer_cache[key] = ans
        return s

    def test_majority_three_of_five(self):
        members = [1, 2, 3, 4, 5]
        s = self._noisy_session_with([True, True, False, True, False], 0, members)
        reps = Representatives()
        reps.reps[1] = members
        assert check_cluster(s, 0, reps) == 1
        assert s.ledger == 5

    def test_tie_rejects(self):
        members = [1, 2, 3, 4]
        s = self._noisy_session_with([True, True, False, False], 0, members)
        reps = Representatives()
        reps.reps[1] = members
        assert check_cluster(s, 0, reps) is None

    def test_store_built_through_add_cluster(self):
        # The store keeps repeated members, and rep_point is the first;
        # the vote asks each distinct member once.
        s = self._noisy_session_with([False, False, True], 0, [3, 1, 2])
        s.answer_cache[(0, 5)] = True
        reps = Representatives()
        assert reps.add_cluster(3, 1, 3, 2, 1, 3) == 1
        assert reps.add_cluster(5, 5) == 2
        assert reps.members(1) == [3, 1, 3, 2, 1, 3]
        assert (reps.rep_point(1), reps.rep_point(2)) == (3, 5)
        assert check_cluster(s, 0, reps) == 2
        assert s.ledger == 3 + 1

    def test_no_majority_anywhere(self):
        reps = Representatives()
        reps.reps[1] = [1, 2]
        reps.reps[2] = [3, 4]
        s = self._noisy_session_with([False, False], 0, [1, 2])
        for z in (3, 4):
            s.answer_cache[(0, z)] = False
        assert check_cluster(s, 0, reps) is None
