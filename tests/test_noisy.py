import math
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from samecluster import noisy, sampling
from samecluster.datasets import DatasetSpec, load
from samecluster.geometry import PointSet
from samecluster.noisy import NoisyConfig, find_clusters, group_size_cutoff, run_noisy
from samecluster.oracle import BudgetExhausted, OracleSession, Representatives, check_cluster
from samecluster.recovery import RecoveryConfig, RunState, run_improved
from samecluster.sampling import SamplerState, add_center


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

    def test_retention_cap(self, monkeypatch):
        # Each recovered cluster keeps the first ceil(C4 K_guess / eps)
        # distinct members of its group, captured when it is committed, and
        # reports the first of them as its representative. Ids run 1..K in
        # commit order.
        ps = three_blobs()
        cfg = NoisyConfig(p=0.1)
        sess = OracleSession(ps.labels, error_prob=0.1, rng_seed=7)
        groups: list[list[int]] = []        # the latest find_clusters groups
        commits = []                        # (K_guess, retained, groups) per recovery
        commit = RunState.commit_recovery

        def spy_find_clusters(*args):
            ids, Z = find_clusters(*args)
            groups[:] = Z.values()
            return ids, Z

        def spy_commit(run, cid, center):
            commits.append((cid, run.logs[-1]["K_guess"], list(run.reps.members(cid)),
                            list(groups)))
            return commit(run, cid, center)

        monkeypatch.setattr(noisy, "find_clusters", spy_find_clusters)
        monkeypatch.setattr(RunState, "commit_recovery", spy_commit)
        res = run_noisy(ps, sess, cfg, eps=0.5, seed=8)
        assert res.K_recovered == len(commits) == 3
        assert [c[0] for c in commits] == res.I == [1, 2, 3]
        bound = 0
        for cid, k_guess, retained, round_groups in commits:
            assert res.reps[cid] == retained[0]
            cap = math.ceil(noisy._C4 * k_guess / 0.5)
            distinct = [list(dict.fromkeys(g)) for g in round_groups]
            group = next(d for d in distinct if d[0] == retained[0])
            assert len(retained) <= cap
            assert retained == group[:len(retained)]
            assert len(retained) == min(cap, len(group))
            bound += len(group) > cap
        assert bound > 0

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

    def test_draw_cap_never_passed(self):
        # The Phase-1 probe alone is 37 draws: a batch that would pass the
        # cap is not drawn.
        ps, _ = load(DatasetSpec(DATA / "three_blobs.csv", normalize=False))
        sess = OracleSession(ps.labels, error_prob=0.1, rng_seed=1)
        res = run_noisy(ps, sess, NoisyConfig(p=0.1), eps=0.5, seed=2, draw_cap=5)
        assert res.samples_total <= 5
        assert res.stop_reason == "draw_cap"
        assert res.incomplete is True

    def test_fully_covered_probe_terminates(self):
        # Three point masses: once each holds a recovered center, every D2
        # weight is 0 and the Phase-1 probe finds no unrecovered mass.
        pts = np.repeat([(0.0, 0.0), (10.0, 0.0), (0.0, 10.0)], [60, 40, 30], axis=0)
        labels = np.repeat([1, 2, 3], [60, 40, 30])
        sess = OracleSession(labels, error_prob=0.1, rng_seed=0)
        res = run_noisy(PointSet(pts, labels=labels), sess,
                        NoisyConfig(p=0.1, min_cluster_frac=0.1), 1.0, seed=0,
                        draw_cap=10 ** 6)
        assert res.stop_reason == "terminated"
        assert set(res.truth_labels.values()) == {1, 2, 3}
        assert res.queries_total == sess.ledger


def rej_samp_scalar_reference(state, W, ref_w, scale, quota, accepted, *, rng, checker, draw_cap):
    """The checker rejection loop, one draw at a time.

    A single batched D2 draw, a checker call and, for a W-classified draw,
    an acceptance coin per draw; the unmet quotas are recomputed every
    draw. Same signature as sampling._rej_walk less its session (see
    reference_walk); the walk must match it.
    """
    def need():
        return {j: quota[j] - len(accepted[j]) for j in W}

    draws = 0
    while draws < draw_cap and any(v > 0 for v in need().values()):
        x = int(sampling.d2_sample_batch(state, rng, 1)[0])
        draws += 1
        j = int(checker(x))
        if j not in ref_w:
            continue
        wx = float(state.weights[x])
        p = 1.0 if wx <= 0.0 else min(1.0, scale * ref_w[j] / wx)
        if rng.random() < p:
            accepted[j].append(x)
    return draws


def reference_walk(*args, session, **kwargs):
    """rej_samp_scalar_reference in sampling._rej_walk's place. It checks
    every draw, so it needs no session to charge repeats through."""
    return rej_samp_scalar_reference(*args, **kwargs)


def plain_checker(session, w_reps):
    """check_cluster on every call: no verdict is remembered."""
    return lambda x: check_cluster(session, x, w_reps) or 0


def _rej_fixtures():
    """Random small blob sets, each with two rejection passes over different
    representative sets: the first before any center (uniform draws), the
    second after one (D2 draws), with an over-filled preaccepted pool."""
    for seed in range(3):
        rng = np.random.default_rng(seed)
        K = int(rng.integers(3, 6))
        sizes = rng.integers(15, 60, size=K)
        centers = rng.uniform(-6, 6, size=(K, 2))
        pts = np.vstack([rng.normal(c, 0.6, size=(m, 2)) for c, m in zip(centers, sizes)])
        labels = np.repeat(np.arange(1, K + 1), sizes)
        passes = []
        for centered in (False, True):
            order = rng.permutation(np.arange(1, K + 1))
            # The center sits on a cluster outside W, as a recovered one would.
            center = pts[labels == order[-1]].mean(axis=0) if centered else None
            weights = ((pts - center) ** 2).sum(axis=1) if centered else np.ones(len(pts))
            members, refs = {}, {}
            for j, lab in enumerate(order[:2], start=1):
                own = np.flatnonzero(labels == lab)
                # Duplicates and one impostor, as grouping under noise leaves them.
                m = rng.choice(own, size=int(rng.integers(2, 7))).tolist()
                m.insert(int(rng.integers(0, len(m))), int(rng.integers(0, len(labels))))
                members[j], refs[j] = m, int(own[np.argmin(weights[own])])
            W = sorted(members)
            passes.append(dict(
                W=W, refs=refs, members=members,
                T={j: int(rng.integers(2, 7)) for j in W},
                center=center,
                preaccepted={W[0]: [refs[W[0]]] * 8} if centered else None))
        yield seed, labels, pts, passes


def _run_passes(monkeypatch, fixture, p, reference, budget=None, cap=10 ** 6, trace=None):
    """Run a fixture's passes on one session and sampler, in order.

    Returns every pass outcome, then the ledger, the answer cache and both
    RNG states. trace, when a list, receives (pass, point, ledger before,
    ledger after) for every checker call.
    """
    seed, labels, pts, passes = fixture
    session = OracleSession(labels, error_prob=p, rng_seed=seed + 7, budget=budget)
    state = SamplerState(pts)
    rng = np.random.default_rng(seed + 11)
    outcomes = []
    with monkeypatch.context() as m:
        if reference:
            m.setattr(sampling, "_rej_walk", reference_walk)
        try:
            for k, spec in enumerate(passes):
                if spec["center"] is not None:
                    add_center(state, spec["center"])
                w_reps = Representatives()
                w_reps.reps = {j: list(v) for j, v in spec["members"].items()}
                checker = plain_checker(session, w_reps)
                if trace is not None:
                    checker = _traced(checker, session, trace, k)
                acc, draws, queries = sampling.rej_samp(
                    state, session, spec["W"], spec["refs"], spec["T"], 12.8,
                    rng=rng, checker=checker, draw_cap=cap,
                    preaccepted=spec["preaccepted"])
                short = any(len(acc[j]) < spec["T"][j] for j in spec["W"])
                outcomes.append(("cap" if short else "done", acc, draws, queries))
        except BudgetExhausted:
            outcomes.append("budget")
    return (outcomes, session.ledger, dict(session.answer_cache),
            session._rng.bit_generator.state, rng.bit_generator.state)


def _traced(checker, session, trace, k):
    def call(x):
        before = session.ledger
        j = checker(x)
        trace.append((k, x, before, session.ledger))
        return j
    return call


class TestNoisyRejReference:
    def test_matches_draw_at_a_time(self, monkeypatch):
        cases = {"first visit": 0, "memo hit": 0, "exact fit": 0, "cap": 0}
        for fixture in _rej_fixtures():
            for p in (0.0, 0.1, 0.3):
                trace = []
                want = _run_passes(monkeypatch, fixture, p, True, trace=trace)
                assert _run_passes(monkeypatch, fixture, p, False) == want
                assert all(o[0] == "done" for o in want[0])
                # Budgets that run out inside a first check of a point, on
                # a repeat check of one, and one that fits exactly.
                seen, first, hits = set(), [], []
                for k, x, before, after in trace:
                    (hits if (k, x) in seen else first).append((before, after))
                    seen.add((k, x))
                assert len(first) > 2 and len(hits) > 2
                budgets = {"first visit": first[len(first) // 2][0] + 1,
                           "memo hit": hits[len(hits) // 2][1] - 1,
                           "exact fit": want[1]}
                for case, budget in budgets.items():
                    got = _run_passes(monkeypatch, fixture, p, False, budget=budget)
                    assert got == _run_passes(monkeypatch, fixture, p, True, budget=budget), case
                    assert (got[0][-1] == "budget") == (case != "exact fit"), case
                    assert got[1] == budget
                    cases[case] += 1
                # Draw caps: none allowed, one, and one that ends the first
                # pass midway.
                for cap in (0, 1, want[0][0][2] // 2):
                    got = _run_passes(monkeypatch, fixture, p, False, cap=cap)
                    assert got == _run_passes(monkeypatch, fixture, p, True, cap=cap), cap
                    assert got[0][0][0] == "cap"
                    cases["cap"] += 1
        assert min(cases.values()) > 0

    def test_whole_run_matches_reference(self, monkeypatch):
        ps = three_blobs(size=60)

        def run(budget, cap, reference):
            sess = OracleSession(ps.labels, error_prob=0.1, rng_seed=3, budget=budget)
            with monkeypatch.context() as m:
                if reference:
                    m.setattr(sampling, "_rej_walk", reference_walk)
                res = run_noisy(ps, sess, NoisyConfig(p=0.1), eps=1.0, seed=4,
                                draw_cap=cap, target=3)
            return (res.to_payload(), sess.ledger, dict(sess.answer_cache),
                    sess._rng.bit_generator.state)

        full = run(None, 10 ** 6, True)
        assert full[0]["K_recovered"] == 3
        L, draws = full[0]["queries_total"], full[0]["samples_total"]
        assert run(None, 10 ** 6, False) == full
        # The cap binds one draw before the last rejection draw.
        for budget, cap, stop in ((L // 2, 10 ** 6, "budget"), (None, draws - 1, "draw_cap")):
            got = run(budget, cap, False)
            assert got == run(budget, cap, True)
            assert got[0]["stop_reason"] == stop

    def test_cap_inside_rejection_pass_starves_skipped(self):
        # As in the run above, the cap binds one draw before the last
        # rejection draw: the last round's pass leaves its quota unmet.
        ps = three_blobs(size=60)

        def run(cap):
            return run_noisy(ps, OracleSession(ps.labels, error_prob=0.1, rng_seed=3),
                             NoisyConfig(p=0.1), eps=1.0, seed=4, draw_cap=cap, target=3)

        res = run(run(10 ** 6).samples_total - 1)
        skipped = res.per_round[-1]["skipped"]
        assert skipped
        assert res.starved == skipped
        assert (res.stop_reason, res.incomplete) == ("draw_cap", True)
        # The starved groups are numbered after the recovered clusters.
        assert res.I
        assert not set(res.I) & set(res.starved)
        assert not set(res.I) & {j for log in res.per_round for j in log["skipped"]}


class _BlockPCG64(np.random.PCG64):
    """PCG64 that records the size of every random_raw block drawn from it."""

    def __init__(self, seed):
        super().__init__(seed)
        self.blocks = []

    def random_raw(self, size=None, output=True):
        self.blocks.append(size)
        return super().random_raw(size, output)


class _CoinGenerator(np.random.Generator):
    """Generator that records every scalar random() it returns."""

    def __init__(self, bit_generator):
        super().__init__(bit_generator)
        self.coins = []

    def random(self, size=None, dtype=np.float64, out=None):
        value = super().random(size, dtype, out)
        if size is None:
            self.coins.append(value)
        return value


class _Weights(dict):
    """Point weights by index; a point not listed weighs 1."""

    def __missing__(self, x):
        return 1.0


def _uniform_state(n, weights):
    """A sampler state of n points and no centers, without n coordinates."""
    return SimpleNamespace(n_points=n, has_centers=False, weights=weights)


def _entry_rng(seed, has_uint32):
    """A PCG64 Generator whose buffered 32-bit half is set (1) or not (0)."""
    rng = _CoinGenerator(_BlockPCG64(seed))
    for _ in range(2 - has_uint32):     # each integers(0, 5) takes one half
        rng.integers(0, 5)
    assert rng.bit_generator.state["has_uint32"] == has_uint32
    return rng


class TestWalkWordReplay:
    def test_uniform_index_replays_integers(self):
        # Every draw equals Generator.integers(0, n), the halves it takes
        # leave the generator where integers leaves it, and a draw cut one
        # word short of the words it needs (its first word or a rejection
        # word) is refused.
        rejected = 0
        for n in (1, 2, 7, 1000, 3 * 2 ** 30, 2 ** 32):
            thresh = (2 ** 32 - n) % n
            for has32 in (0, 1):
                rng = _entry_rng(n + has32, has32)
                entry = rng.bit_generator.state
                twin = _BlockPCG64(0)
                twin.state = entry
                words = twin.random_raw(3000).tolist()
                pos, h, b = 0, has32, entry["uinteger"]
                for _ in range(2000):
                    x, pos2, h2, b2 = sampling._uniform_index(words, pos, len(words),
                                                              h, b, n, thresh)
                    assert x == rng.integers(0, n)
                    halves = 2 * (pos2 - pos) + h - h2
                    rejected += halves > 1
                    if pos2 > pos:
                        assert sampling._uniform_index(words, pos, pos2 - 1, h, b, n,
                                                       thresh) is None
                    pos, h, b = pos2, h2, b2
                twin.state = entry
                sampling._rewind(twin, entry, pos, h, b)
                assert twin.state == rng.bit_generator.state
        # n = 3 * 2^30 rejects a quarter of its halves.
        assert 300 < rejected < 1700

    @staticmethod
    def _uniform_run(monkeypatch, walk, n, has32, words, weights):
        """One capped walk over n points and no centers, with a verdict
        hashed from x (about two draws in three take a coin); returns its
        outcome, the checker's calls, the generator and its coins."""
        rng = _entry_rng(7 * n + has32, has32)
        session = OracleSession([0])
        calls, accepted = [], {1: []}

        def checker(x):
            calls.append(x)
            session.charge(1 + x % 3)
            return 1 if (x * 0x9E3779B97F4A7C15 >> 29) % 3 else 0

        state = _uniform_state(n, weights)
        with monkeypatch.context() as m:
            if words is not None:
                m.setattr(sampling, "_WALK_WORDS", words)
            draws = walk(state, [1], {1: 1.0}, 1.0, {1: 10 ** 9}, accepted, rng=rng,
                         checker=checker, session=session, draw_cap=1500)
        assert draws == 1500
        out = (draws, accepted, list(dict.fromkeys(calls)), session.ledger,
               rng.bit_generator.state)
        return out, calls, rng

    @pytest.mark.parametrize("words", [1, 2, 3, 5, 64, None])
    def test_uniform_walk_matches_reference(self, monkeypatch, words):
        # Integer draws interleaved with coins, on block sizes that put
        # draws, coins and rejection words on a block edge, from either
        # buffered-half entry state. A first reference run records each
        # point's first coin c; the point's weight 1/c then makes its
        # acceptance probability c itself where 1/(1/c) == c, so a coin
        # off by one unit in the last place changes a decision.
        for n in (5, 3 * 2 ** 30):
            for has32 in (0, 1):
                _, calls, rng = self._uniform_run(monkeypatch, reference_walk, n, has32,
                                                  None, _Weights())
                coins = iter(rng.coins)
                first_coin = {}
                for x in calls:
                    if (x * 0x9E3779B97F4A7C15 >> 29) % 3:
                        first_coin.setdefault(x, next(coins))
                weights = _Weights({x: 1.0 / c for x, c in first_coin.items()})
                exact = sum(1.0 / w == c for w, c in zip(weights.values(),
                                                         first_coin.values()))
                assert exact > len(first_coin) // 2 or n == 5
                want, _, _ = self._uniform_run(monkeypatch, reference_walk, n, has32,
                                               words, weights)
                got, _, rng = self._uniform_run(monkeypatch, sampling._rej_walk, n, has32,
                                                words, weights)
                assert got == want
                assert len(got[1][1]) > 20
                blocks = rng.bit_generator.blocks
                if words is not None and words < 5:
                    assert len(blocks) > 1500 // (4 * words)
                if words == 1:
                    assert max(blocks) > 1      # a block too short for a draw doubles

    @pytest.mark.parametrize("words", [1, 2, 3, 7])
    def test_d2_walk_matches_reference_on_short_blocks(self, monkeypatch, words):
        for fixture in list(_rej_fixtures())[:2]:
            with monkeypatch.context() as m:
                m.setattr(sampling, "_WALK_WORDS", words)
                got = _run_passes(monkeypatch, fixture, 0.1, False)
            assert got == _run_passes(monkeypatch, fixture, 0.1, True)
