"""Same-cluster oracle: exact and noisy sessions, Classify, majority voting.

All access to ground-truth cluster identity goes through an OracleSession.
Every answered query increments the session ledger, which is the unit of
query complexity everywhere else in the package.
"""

from __future__ import annotations

import numpy as np


class OracleError(ValueError):
    pass


class BudgetExhausted(RuntimeError):
    """Raised by OracleSession.charge when a cost would pass the budget.

    The ledger is left at the budget. .done counts the leading items of
    the charge whose cost fit in full; the caller commits exactly those
    and discards the rest.
    """

    def __init__(self, msg: str, done: int = 0):
        super().__init__(msg)
        self.done = done


class OracleSession:
    """Ground-truth labels + error model + answer cache + query ledger.

    error_prob = 0 gives the exact oracle. Noisy answers are generated
    lazily per unordered pair and cached, so repeating a query returns the
    same answer and draws no flip; it is still charged to the ledger. An
    optional budget caps the ledger: a call that would push the ledger
    past the budget raises BudgetExhausted instead of answering.
    """

    def __init__(self, truth, error_prob: float = 0.0, rng_seed: int = 0,
                 budget: int | None = None):
        self.truth = np.asarray(truth, dtype=np.int64)
        if self.truth.ndim != 1 or len(self.truth) == 0:
            raise OracleError("truth labels must be a non-empty 1-d sequence")
        if not (0.0 <= error_prob < 0.5):
            raise OracleError(f"error_prob must be in [0, 0.5), got {error_prob}")
        if budget is not None and budget < 0:
            raise OracleError(f"budget must be >= 0, got {budget}")
        self.error_prob = float(error_prob)
        self.rng_seed = int(rng_seed)
        self._rng = np.random.default_rng(self.rng_seed)
        self.answer_cache: dict[tuple[int, int], bool] = {}
        self.ledger = 0
        self.budget = budget

    @property
    def n_points(self) -> int:
        return len(self.truth)

    @property
    def exact(self) -> bool:
        return self.error_prob == 0.0

    def charge(self, cost: int) -> None:
        """Add one item's cost to the ledger; the only budget comparison.

        A cost that would pass the budget sets the ledger to the budget and
        raises BudgetExhausted (with .done = 0) instead.
        """
        if self.budget is not None and self.ledger + cost > self.budget:
            self.ledger = self.budget
            raise BudgetExhausted(f"query budget {self.budget} exhausted")
        self.ledger += cost

    def charge_items(self, costs: np.ndarray) -> None:
        """Charge a 1-d array of per-item costs, in order, through charge.

        If the total does not fit, .done of the BudgetExhausted is the
        number of leading items that fit in full. Kept apart from charge so
        that the per-query path does no type dispatch.
        """
        start = self.ledger
        try:
            self.charge(int(np.sum(costs)))
        except BudgetExhausted as e:
            e.done = int(np.searchsorted(np.cumsum(costs), self.budget - start,
                                         side="right"))
            raise

    def same_cluster(self, i: int, j: int) -> bool:
        """Answer whether points i and j share a ground-truth cluster."""
        n = len(self.truth)
        if not (0 <= i < n and 0 <= j < n):
            raise OracleError(f"point index out of range: ({i}, {j})")
        self.charge(1)
        if i == j:
            return True
        truth_ans = bool(self.truth[i] == self.truth[j])
        if self.exact:
            return truth_ans
        key = (i, j) if i < j else (j, i)
        ans = self.answer_cache.get(key)
        if ans is None:
            flip = self._rng.random() < self.error_prob
            ans = truth_ans ^ flip
            self.answer_cache[key] = ans
        return ans

    def same_cluster_many(self, x: int, zs) -> list[bool]:
        """same_cluster(x, z) for every z of the list zs, in order.

        Answers, ledger, answer_cache and the flip RNG end as the calls one
        at a time leave them: truth is compared for the whole list at once,
        the cache is read per pair, and the flips of the pairs not yet
        answered are drawn as one block, in query order. On an index out of
        range, or a budget that runs out, the pairs before it are answered
        and charged first, then the error is raised.
        """
        n = len(self.truth)
        x = int(x)
        zs = list(zs)
        za = np.asarray(zs, dtype=np.int64)
        k = len(zs) if 0 <= x < n else 0
        bad = np.flatnonzero((za[:k] < 0) | (za[:k] >= n))
        if len(bad):
            k = int(bad[0])
        start = self.ledger
        try:
            self.charge(k)
        finally:
            k = self.ledger - start         # all k, or what fit under the budget
            ans = self._answer(x, zs[:k], za[:k])
        if k < len(zs):
            raise OracleError(f"point index out of range: ({x}, {zs[k]})")
        return ans

    def _answer(self, x: int, zs: list, za: np.ndarray) -> list[bool]:
        """Answers for pairs (x, z) already charged, drawing any new flips.

        zs and za hold the same indices; the cache keys are made of zs's
        own objects, as same_cluster's are of its arguments.
        """
        if not zs:
            return []
        ans = (self.truth[za] == self.truth[x]).tolist()
        if self.exact:
            return ans
        cache = self.answer_cache
        fresh: dict[tuple[int, int], bool] = {}    # unanswered pair -> truth
        pending = []                                # (position, unanswered pair)
        for t, z in enumerate(zs):
            if z == x:
                continue
            key = (x, z) if x < z else (z, x)
            a = cache.get(key)
            if a is None:
                fresh[key] = ans[t]
                pending.append((t, key))
            else:
                ans[t] = a
        if fresh:
            flips = (self._rng.random(len(fresh)) < self.error_prob).tolist()
            for (key, truth), f in zip(fresh.items(), flips):
                cache[key] = truth ^ f
            for t, key in pending:
                ans[t] = cache[key]
        return ans


class Representatives:
    """Discovered clusters and the member points that represent them.

    Cluster i (1..L, in registration order) maps to its member list Z_i:
    the single representative [z_i] of an exact-oracle discovery, or the
    retained members of a noisy-oracle cluster, multiset sizes preserved.
    Classify queries z_i = Z_i[0]; check_cluster votes over Z_i's
    distinct members.
    """

    def __init__(self):
        self.reps: dict[int, list[int]] = {}
        # Exact-oracle lookups, truth label or point -> discovered index
        # (0 = unseen), and the unseen points; dropped at each discovery
        # and built again on demand.
        self._rank_of_label: np.ndarray | None = None
        self._rank_of_point: np.ndarray | None = None
        self._undiscovered: np.ndarray | None = None

    @property
    def discovered_count(self) -> int:
        return len(self.reps)

    def rep_point(self, i: int) -> int:
        return self.reps[i][0]

    def members(self, i: int) -> list[int]:
        return self.reps[i]

    def add_cluster(self, first: int, *rest: int) -> int:
        """Register the next cluster, L+1, with members (first, *rest)."""
        idx = len(self.reps) + 1
        self.reps[idx] = [int(first), *map(int, rest)]
        self._rank_of_label = self._rank_of_point = self._undiscovered = None
        return idx

    def rank_of_label(self, session: OracleSession) -> np.ndarray:
        """Exact oracle: map truth label -> discovered index, rebuilt on growth."""
        if not session.exact:
            raise OracleError("label ranks only exist for the exact oracle")
        if self._rank_of_label is None:
            arr = np.zeros(int(session.truth.max()) + 1, dtype=np.int64)
            for i in sorted(self.reps):
                arr[session.truth[self.reps[i][0]]] = i
            self._rank_of_label = arr
        return self._rank_of_label

    def rank_of_point(self, session: OracleSession) -> np.ndarray:
        """Exact oracle: map point -> discovered index, rank_of_label[truth]."""
        if self._rank_of_point is None:
            self._rank_of_point = self.rank_of_label(session)[session.truth]
        return self._rank_of_point

    def undiscovered(self, session: OracleSession) -> np.ndarray:
        """Exact oracle: the points of undiscovered clusters (rank 0), in
        index order, rebuilt on growth."""
        if self._undiscovered is None:
            self._undiscovered = np.flatnonzero(self.rank_of_point(session) == 0)
        return self._undiscovered

    def ranks(self, session: OracleSession, xs: np.ndarray) -> np.ndarray:
        """Exact oracle: the discovered index of each point of xs, 0 if unseen.

        One gather from rank_of_point. After a discovery that table is
        built again only for a batch of at least n points, since building
        it costs about n gathers; a smaller batch takes two meanwhile,
        through rank_of_label.
        """
        if self._rank_of_point is None and len(xs) < session.n_points:
            return self.rank_of_label(session)[session.truth[xs]]
        return self.rank_of_point(session)[xs]


def classify(session: OracleSession, x: int, reps: Representatives) -> int:
    """Find x's cluster by querying representatives z_1..z_L in order.

    Returns the first matching discovered index; otherwise registers x as
    the representative of a new cluster L+1 and returns it. Issues at most
    L queries.
    """
    if not session.exact:
        raise OracleError("classify requires the exact oracle; use check_cluster")
    for i in range(1, reps.discovered_count + 1):
        if session.same_cluster(x, reps.rep_point(i)):
            return i
    return reps.add_cluster(x)


def classify_batch(session: OracleSession, xs: np.ndarray, reps: Representatives) -> np.ndarray:
    """Exact-mode classify over a batch: peek_classify, then commit all of it.

    Labels, ledger and registrations equal those of calling classify() on
    each sample in order. On BudgetExhausted the samples before .done are
    charged and their discoveries registered; no later sample is.
    """
    cl, costs, new_firsts = peek_classify(session, xs, reps)
    commit_classify(session, reps, costs, new_firsts, len(cl))
    return cl


def peek_classify(session: OracleSession, xs: np.ndarray, reps: Representatives):
    """Exact-mode dry run of classify over a batch, without touching state.

    Returns (cl, costs, new_firsts) where cl[i] is the cluster index the
    i-th sample would get, costs[i] the queries the classify would issue,
    and new_firsts the [(position, point_index), ...] of first appearances
    of undiscovered clusters, in order. Provisional indices continue the
    discovery numbering, so committing a prefix of the batch reproduces a
    sequential run exactly. costs is cl itself when the batch discovers
    nothing; neither is written after the peek.
    """
    if not session.exact:
        raise OracleError("peek_classify requires the exact oracle")
    xs = np.asarray(xs, dtype=np.int64)
    cl = reps.ranks(session, xs)
    costs = cl
    new_firsts: list[tuple[int, int]] = []
    pos = np.flatnonzero(cl == 0)
    if len(pos):
        costs = cl.copy()
        # Undiscovered labels are numbered L+1, L+2, ... by first appearance.
        _, first, inv = np.unique(session.truth[xs[pos]], return_index=True,
                                  return_inverse=True)
        order = np.argsort(first)
        prov = np.empty(len(first), dtype=np.int64)
        prov[order] = np.arange(reps.discovered_count + 1,
                                reps.discovered_count + 1 + len(first))
        cl[pos] = costs[pos] = prov[inv]
        firsts = pos[first[order]]
        # First appearance pays one query per cluster discovered so far.
        costs[firsts] -= 1
        new_firsts = list(zip(firsts.tolist(), xs[firsts].tolist()))
    return cl, costs, new_firsts


def commit_classify(session: OracleSession, reps: Representatives,
                    costs: np.ndarray, new_firsts, upto: int):
    """Charge and register the first `upto` samples of a peeked batch.

    The costs go through session.charge_items. If it raises BudgetExhausted,
    only the discoveries before .done are registered, which is where a
    draw-at-a-time run would stop, and the exception propagates.
    """
    done = upto
    try:
        session.charge_items(costs[:upto])
    except BudgetExhausted as e:
        done = e.done
        raise
    finally:
        for p, x in new_firsts:
            if p < done:
                reps.add_cluster(x)


def distance_ranks(D: np.ndarray, own: np.ndarray) -> np.ndarray:
    """Queries of distance-ordered Classify, for points of discovered clusters.

    D[t, c] is point t's squared distance to the center of cluster c + 1,
    +inf for a center that does not exist yet, and own[t] is the point's
    cluster. Clusters are queried in increasing distance, ties to the
    lower id, so the query that finds own[t] is 1 plus the number of
    clusters before it in that order.
    """
    m, L = D.shape
    d = D[np.arange(m), own - 1][:, None]
    below = (D < d) | ((D == d) & (np.arange(L) < own[:, None] - 1))
    return 1 + below.sum(axis=1)


def majority(session: OracleSession, x: int, zs: list) -> bool:
    """Whether strictly more than half of same_cluster(x, z), z in zs, are
    true, asked as one session.same_cluster_many call; ties reject."""
    return 2 * sum(session.same_cluster_many(x, zs)) > len(zs)


def check_cluster(session: OracleSession, x: int, reps: Representatives) -> int | None:
    """Majority-vote membership test against representative sets Z_i.

    For each candidate cluster i (ascending index order), asks
    same_cluster(x, z) for every distinct z in Z_i, as one
    session.same_cluster_many call, and returns i when strictly more than
    half of the answers are true. Ties reject. Returns None when no
    cluster wins a majority.

    The scan is deterministic, so once every pair it asks has an answer
    fixed in the session (cached, x == z, or exact), the verdict and the
    number of queries it charges are a pure function of those answers:
    a repeated check returns the same result at the same cost.
    """
    for i in sorted(reps.reps):
        if majority(session, x, list(dict.fromkeys(reps.members(i)))):
            return i
    return None
