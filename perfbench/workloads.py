"""The four benchmark workloads: inputs from a master seed, trial units,
output checks and the parity check against the experiment harness.

Every trial is a recovery call made the way `harness.run_one_trial` makes
it (the dataset seed, oracle seed and recovery seed are all the trial
seed), but on a dataset built beforehand, so dataset generation stays in
set-up. The budget sweep is the exception: it times the harness grid
itself, regeneration included.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from samecluster import datasets, harness, noisy, recovery, synthgen
from samecluster.datasets import DatasetSpec
from samecluster.harness import ExperimentPlan, trial_seeds
from samecluster.noisy import NoisyConfig
from samecluster.oracle import OracleSession
from samecluster.recovery import RecoveryConfig
from samecluster.synthgen import SynthConfig

# Library functions are always called through their module, where the
# tracer patches them.
EPS = 0.5
THREE_BLOBS = Path(__file__).resolve().parents[1] / "tests" / "data" / "three_blobs.csv"


@dataclass
class Outcome:
    """One trial's result, reduced to what the bench checks and reports."""

    name: str
    tag: str
    seconds: float | None
    queries: int = 0
    draws: int = 0
    rounds: int = 0
    K: int = 0
    stop: str | None = None
    errors: list[float] = field(default_factory=list)
    distinct_pairs: int = 0
    noisy_oracle: bool = False
    failure: str | None = None

    def fingerprint(self) -> list:
        return [self.queries, self.draws, self.rounds, self.K, self.stop]


@dataclass
class Trial:
    """A direct recovery call, plus what `run_one_trial` needs to repeat it."""

    name: str
    tag: str
    X: object
    seed: int
    payload: dict
    target: int

    def __call__(self) -> list[Outcome]:
        return [direct_trial(self.name, self.tag, self.X, self.seed,
                             self.payload, target=self.target)]

    def parity(self, outcome: Outcome) -> str | None:
        rec = harness.run_one_trial(self.payload, self.tag, self.target, 0,
                                    self.seed, None, self.target)
        got = (rec.queries, rec.samples, rec.clusters_recovered)
        want = (outcome.queries, outcome.draws, outcome.K)
        return None if got == want else (
            f"{self.name}: bench (queries, draws, K) {want} != harness {got}")


def direct_trial(name, tag, X, seed, payload, *, target=None, budget=None) -> Outcome:
    """Run one recovery as the harness would and check its output.

    A trial fails if it raises, if `queries_total` differs from the session
    ledger, if a budgeted run's ledger exceeds its budget, or if a
    fixed-recovery run stops for any reason other than "target".
    """
    noise_p = payload["noise_p"]
    t0 = perf_counter()
    try:
        session = OracleSession(X.labels, error_prob=noise_p, rng_seed=seed,
                                budget=budget)
        if tag == "noisy":
            res = noisy.run_noisy(X, session, NoisyConfig(p=noise_p), payload["eps"],
                                  seed=seed, draw_cap=payload["draw_cap"],
                                  target=target)
        else:
            # Resolve the runner through the harness's own tag table, then
            # call it where recovery callers look it up.
            runner = getattr(recovery, harness._RUNNERS[tag].__name__)
            cfg = RecoveryConfig(eps=payload["eps"], draw_cap=payload["draw_cap"],
                                 seed=seed)
            res = runner(X, session, cfg, target=target)
    except Exception as e:  # a raising trial is a counted failure
        return Outcome(name, tag, perf_counter() - t0,
                       failure=f"raised {type(e).__name__}: {e}")
    seconds = perf_counter() - t0
    failure = None
    if res.queries_total != session.ledger:
        failure = f"queries_total {res.queries_total} != ledger {session.ledger}"
    elif budget is not None and session.ledger > budget:
        failure = f"ledger {session.ledger} over budget {budget}"
    elif target is not None and res.stop_reason != "target":
        failure = f"stopped on {res.stop_reason!r}, not 'target'"
    return Outcome(name, tag, seconds, queries=res.queries_total,
                   draws=res.samples_total, rounds=res.rounds_total,
                   K=res.K_recovered, stop=res.stop_reason,
                   errors=list(res.per_cluster_errors.values()),
                   distinct_pairs=len(session.answer_cache),
                   noisy_oracle=not session.exact, failure=failure)


def _payload(tag: str, target: int, **plan) -> dict:
    return ExperimentPlan(mode="fixed_recovery", algorithms=[tag],
                          targets=[target], eps=EPS, **plan).to_payload()


class Workload:
    """A trial list built from a master seed.

    `master` is the acceptance-suite master seed, used when no seed is
    given. A pinned workload always uses it: its trials are too few per run
    to average out how much their cost varies from seed to seed (measured:
    queries_per_trial ±15% and centroid_err.p50 ±19% between theory seeds,
    centroid_err.p50 ±80% between budget-sweep seeds, and noisy trials of
    either 3 s or 11 s), so a seed-drawn list would make every run
    incomparable. Pinned, their cost metrics repeat exactly.
    """

    name: str
    master: int
    held_out: int  # a second master, kept back for checking later claims
    pinned = False
    # Spans that must record calls on this workload (pass and set-up), and
    # those the parity check must reach through the harness's own aliases.
    covers: tuple[str, ...]
    parity_covers: tuple[str, ...]

    def master_for(self, seed: int | None, held_out: bool = False) -> int:
        if held_out:
            return self.held_out
        return self.master if seed is None or self.pinned else seed

    def build(self, seed: int) -> list:
        """Set-up: every input of one pass, as a list of trial units."""
        raise NotImplementedError

    def parity(self, units, outcomes: list[Outcome]) -> list[str]:
        """One trial per tag (the fastest of the pass) repeated through the
        harness; returns mismatch descriptions."""
        fastest: dict[str, tuple[float, Trial, Outcome]] = {}
        for unit, out in zip(units, outcomes):
            if out.failure is None and (out.tag not in fastest
                                        or out.seconds < fastest[out.tag][0]):
                fastest[out.tag] = (out.seconds, unit, out)
        bad = [unit.parity(out) for _, unit, out in fastest.values()]
        return [b for b in bad if b]


class Practical(Workload):
    name = "practical"
    master = 505
    held_out = 1505
    tags = ("uniform", "basic", "improved_simple")
    datasets_per_level = 10
    covers = ("sampling.add_center", "sampling.d2_sample_batch",
              "oracle.peek_classify", "oracle.commit_classify",
              "recovery.run_uniform", "recovery.run_basic_simplified",
              "recovery.run_improved_simplified", "geometry.centroid_error",
              "synthgen.generate")
    parity_covers = ("harness.run_one_trial", "synthgen.generate",
                     "recovery.run_uniform", "recovery.run_basic_simplified",
                     "recovery.run_improved_simplified")

    def build(self, seed):
        units = []
        # The default seed gives the acceptance masters 505 and 606.
        for p, master in ((0.0, seed), (0.3, seed + 101)):
            synth = SynthConfig(n=100_000, K=50, p_collision=p)
            for s in trial_seeds(master, self.datasets_per_level):
                X, _ = synthgen.generate(SynthConfig(n=100_000, K=50, p_collision=p, seed=s))
                for tag in self.tags:
                    units.append(Trial(f"{self.name}/{tag}/p={p}/seed={s}", tag, X, s,
                                       _payload(tag, 30, seed=master, synth=synth), 30))
        return units


class Theory(Workload):
    name = "theory"
    master = 303
    held_out = 1303
    pinned = True
    tags = ("basic_theory", "improved")
    seeds_per_pass = 5
    covers = ("sampling.add_center", "sampling.d2_sample_batch", "sampling.rej_samp",
              "oracle.classify_batch", "recovery.run_basic", "recovery.run_improved",
              "recovery.RunState.draw_classified_fill", "geometry.centroid_error",
              "synthgen.generate")
    parity_covers = ("harness.run_one_trial", "synthgen.generate",
                     "recovery.run_basic", "recovery.run_improved")

    def build(self, seed):
        synth = SynthConfig(n=10_000, K=20)
        units = []
        for s in trial_seeds(seed, self.seeds_per_pass):
            X, _ = synthgen.generate(SynthConfig(n=10_000, K=20, seed=s))
            for tag in self.tags:
                units.append(Trial(f"{self.name}/{tag}/seed={s}", tag, X, s,
                                   _payload(tag, 20, seed=seed, synth=synth,
                                            draw_cap=10 ** 10), 20))
        return units


@dataclass
class Grid:
    """`harness.run_fixed_budget` over the whole plan: one unit, one cell
    per (algorithm, budget, trial seed)."""

    plan: ExperimentPlan

    def cells(self):
        for algorithm in self.plan.algorithms:
            for x in self.plan.budgets:
                for s in trial_seeds(self.plan.seed, self.plan.trials):
                    yield algorithm, x, s

    def name_of(self, algorithm, x, s) -> str:
        return f"budget-sweep/{algorithm}/budget={x}/seed={s}"

    def __call__(self) -> list[Outcome]:
        try:
            records, _ = harness.run_fixed_budget(self.plan)
        except Exception as e:  # the whole grid fails together
            return [Outcome(self.name_of(*c), c[0], None,
                            failure=f"grid raised {type(e).__name__}: {e}")
                    for c in self.cells()]
        out = []
        for r in records:
            # run_one_trial itself raises if queries_total drifts from the ledger.
            failure = (f"ledger {r.queries} over budget {r.x}"
                       if r.queries > r.x else None)
            out.append(Outcome(self.name_of(r.algorithm, r.x, r.seed), r.algorithm,
                               None, queries=r.queries, draws=r.samples,
                               rounds=r.rounds, K=r.clusters_recovered,
                               errors=list(r.per_cluster_errors.values()),
                               failure=failure))
        return out


class BudgetSweep(Workload):
    name = "budget-sweep"
    master = 202
    held_out = 1202
    pinned = True
    budgets = [10 ** 7, 3 * 10 ** 7, 10 ** 8]
    seeds_per_pass = 5
    covers = ("harness.run_one_trial", "synthgen.generate", "recovery.run_basic",
              "recovery.RunState.draw_classified_fill", "sampling.rej_samp",
              "sampling.d2_sample_batch", "sampling.add_center",
              "oracle.classify_batch", "oracle.peek_classify",
              "oracle.commit_classify", "geometry.centroid_error")
    parity_covers = ("synthgen.generate", "recovery.run_basic")

    def build(self, seed):
        plan = ExperimentPlan(
            mode="fixed_budget", algorithms=["basic_theory"], budgets=self.budgets,
            trials=self.seeds_per_pass, eps=EPS, seed=seed,
            synth=SynthConfig(n=10_000, K=20), draw_cap=10 ** 10, workers=1)
        return [Grid(plan)]

    def parity(self, units, outcomes):
        # The harness ran the grid; repeat its middle-budget cell of the
        # first seed as a direct call.
        grid = units[0]
        payload = grid.plan.to_payload()
        x = self.budgets[1]
        s = trial_seeds(grid.plan.seed, 1)[0]
        name = grid.name_of("basic_theory", x, s)
        rec = next((o for o in outcomes if o.name == name), None)
        X, _ = synthgen.generate(SynthConfig(**{**payload["synth"], "seed": s}))
        out = direct_trial(name, "basic_theory", X, s, payload, budget=x)
        if rec is None or rec.failure or out.failure:
            return [f"{name}: no clean result to compare"]
        want = (out.queries, out.draws, out.K)
        got = (rec.queries, rec.draws, rec.K)
        return [] if got == want else [
            f"{name}: bench (queries, draws, K) {want} != harness {got}"]


class Noisy(Workload):
    """The noisy pipeline on the first two c09 acceptance seeds: one trial
    of about 10 s and one of about 3 s."""

    name = "noisy"
    master = 909
    held_out = 1909
    pinned = True
    trials_per_pass = 2
    covers = ("noisy.run_noisy", "noisy.find_clusters", "oracle.check_cluster",
              "sampling.rej_samp", "sampling.d2_sample_batch", "sampling.add_center",
              "geometry.centroid_error", "datasets.load")
    parity_covers = ("harness.run_one_trial", "datasets.load", "noisy.run_noisy")

    def build(self, seed):
        spec = DatasetSpec(THREE_BLOBS, normalize=False)
        X, _ = datasets.load(spec)
        payload = _payload("noisy", 3, seed=seed, noise_p=0.1, dataset=spec)
        return [Trial(f"{self.name}/noisy/seed={s}", "noisy", X, s, payload, 3)
                for s in trial_seeds(seed, self.trials_per_pass)]


WORKLOADS = {w.name: w for w in (Practical(), Theory(), BudgetSweep(), Noisy())}
