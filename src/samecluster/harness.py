"""Experiment driver: query-complexity sweeps, error reports, classification
study and reducibility checking, with CSV/JSON emission.

Algorithm tags follow the experimental comparison: "basic" and
"improved_simple" are the practical heavy-threshold variants the measured
tables correspond to, "uniform" the uniform-sampling baseline. The
literal-threshold algorithms stay available as "basic_theory" and
"improved".
"""

from __future__ import annotations

import csv
import json
import math
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, asdict
from pathlib import Path

import numpy as np

from .datasets import DatasetSpec, load
from .geometry import CenterSet, PointSet, cost
from .noisy import NoisyConfig, run_noisy
from .oracle import OracleSession, Representatives, distance_ranks, peek_classify
from .recovery import (
    RecoveryConfig,
    RecoveryResult,
    run_basic,
    run_basic_simplified,
    run_improved,
    run_improved_simplified,
    run_uniform,
)
from .synthgen import SynthConfig, generate

ALGORITHMS = ("uniform", "basic", "improved", "improved_simple",
              "basic_theory", "noisy")

_RUNNERS = {
    "uniform": run_uniform,
    "basic": run_basic_simplified,
    "improved": run_improved,
    "improved_simple": run_improved_simplified,
    "basic_theory": run_basic,
}

MODES = ("fixed_budget", "fixed_recovery", "error_report", "classify_study",
         "reducibility_check")


@dataclass
class ExperimentPlan:
    mode: str
    algorithms: list[str]
    budgets: list[int] = field(default_factory=list)
    targets: list[int] = field(default_factory=list)
    trials: int = 100
    eps: float = 0.5
    seed: int = 0
    heavy_threshold: int = 10
    reuse_samples: bool = True
    noise_p: float = 0.0
    draw_cap: int = 10 ** 8
    synth: SynthConfig | None = None
    dataset: DatasetSpec | None = None
    workers: int = 1

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        unknown = set(self.algorithms) - set(ALGORITHMS)
        if unknown:
            raise ValueError(f"unknown algorithms: {sorted(unknown)}")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.budgets and list(self.budgets) != sorted(set(self.budgets)):
            raise ValueError("budgets must be strictly increasing")
        if (self.synth is None) == (self.dataset is None):
            raise ValueError("exactly one of synth or dataset must be given")

    def to_payload(self) -> dict:
        out = asdict(self)
        out["synth"] = asdict(self.synth) if self.synth else None
        out["dataset"] = (
            {**asdict(self.dataset), "path": str(self.dataset.path)}
            if self.dataset else None)
        return out


@dataclass
class TrialRecord:
    algorithm: str
    x: int                      # budget or target, depending on the mode
    trial: int
    seed: int
    queries: int
    samples: int
    clusters_recovered: int
    clusters_discovered: int
    rounds: int
    per_cluster_errors: dict[int, float] = field(default_factory=dict)
    classify_hist: dict[int, int] = field(default_factory=dict)
    censored: bool = False
    # classify_study's correct fraction: 1.0 by construction (exact answers).
    correct_fraction: float | None = None

    def to_payload(self) -> dict:
        d = asdict(self)
        d["per_cluster_errors"] = {str(k): v for k, v in self.per_cluster_errors.items()}
        d["classify_hist"] = {str(k): v for k, v in self.classify_hist.items()}
        return d

    @classmethod
    def from_payload(cls, d: dict) -> "TrialRecord":
        d = dict(d)
        d["per_cluster_errors"] = {int(k): v for k, v in d["per_cluster_errors"].items()}
        d["classify_hist"] = {int(k): v for k, v in d["classify_hist"].items()}
        return cls(**d)


def trial_seeds(master: int, count: int) -> list[int]:
    """Deterministic per-trial seeds derived from the master seed."""
    children = np.random.SeedSequence(master).spawn(count)
    return [int(c.generate_state(1)[0]) for c in children]


def _dataset_for_trial(plan_payload: dict, trial_seed: int) -> PointSet:
    if plan_payload["synth"] is not None:
        cfg = SynthConfig(**{**plan_payload["synth"], "seed": trial_seed})
        return generate(cfg)[0]
    spec = DatasetSpec(**plan_payload["dataset"])
    return load(spec)[0]


def run_one_trial(plan_payload: dict, algorithm: str, x: int, trial: int,
                  seed: int, budget: int | None, target: int | None) -> TrialRecord:
    X = _dataset_for_trial(plan_payload, seed)
    eps = plan_payload["eps"]
    noise_p = plan_payload["noise_p"]
    cfg = RecoveryConfig(
        eps=eps, heavy_threshold=plan_payload["heavy_threshold"],
        reuse_samples=plan_payload["reuse_samples"],
        draw_cap=plan_payload["draw_cap"], seed=seed)
    if algorithm == "noisy":
        session = OracleSession(X.labels, error_prob=noise_p, rng_seed=seed,
                                budget=budget)
        res = run_noisy(X, session, NoisyConfig(p=noise_p), eps, seed=seed,
                        draw_cap=cfg.draw_cap, target=target)
    else:
        session = OracleSession(X.labels, rng_seed=seed, budget=budget)
        res = _RUNNERS[algorithm](X, session, cfg, target=target)
    if res.queries_total != session.ledger:
        raise AssertionError("query accounting drifted from the oracle ledger")
    censored = target is not None and res.stop_reason != "target"
    return TrialRecord(
        algorithm=algorithm, x=int(x), trial=trial, seed=seed,
        queries=res.queries_total, samples=res.samples_total,
        clusters_recovered=res.K_recovered,
        clusters_discovered=res.L_discovered, rounds=res.rounds_total,
        per_cluster_errors=dict(res.per_cluster_errors), censored=censored)


def _worker(args):
    return run_one_trial(*args)


def _run_grid(plan: ExperimentPlan, xs: list[int], budget_mode: bool) -> list[TrialRecord]:
    payload = plan.to_payload()
    seeds = trial_seeds(plan.seed, plan.trials)
    tasks = []
    for algorithm in plan.algorithms:
        for x in xs:
            for t, seed in enumerate(seeds):
                budget = int(x) if budget_mode else None
                target = None if budget_mode else int(x)
                tasks.append((payload, algorithm, int(x), t, seed, budget, target))
    if plan.workers > 1:
        with ProcessPoolExecutor(max_workers=plan.workers) as pool:
            records = list(pool.map(_worker, tasks, chunksize=1))
    else:
        records = [run_one_trial(*task) for task in tasks]
    return records


def aggregate(records: list[TrialRecord], value) -> list[dict]:
    """Mean/SD of `value(record)` per (algorithm, x); censored trials are
    excluded from the statistic but counted."""
    keys = sorted({(r.algorithm, r.x) for r in records})
    rows = []
    for algorithm, x in keys:
        group = [r for r in records if r.algorithm == algorithm and r.x == x]
        live = [value(r) for r in group if not r.censored]
        rows.append({
            "algorithm": algorithm,
            "x": x,
            "mean": float(np.mean(live)) if live else float("nan"),
            "sd": float(np.std(live)) if live else float("nan"),
            "trials": len(live),
            "censored": sum(r.censored for r in group),
        })
    return rows


def run_fixed_budget(plan: ExperimentPlan):
    """Mean clusters recovered per (algorithm, budget)."""
    if not plan.budgets:
        raise ValueError("fixed_budget needs budgets")
    records = _run_grid(plan, list(plan.budgets), budget_mode=True)
    return records, aggregate(records, lambda r: r.clusters_recovered)


def run_fixed_recovery(plan: ExperimentPlan):
    """Mean queries per (algorithm, recovery target)."""
    if not plan.targets:
        raise ValueError("fixed_recovery needs targets")
    records = _run_grid(plan, list(plan.targets), budget_mode=False)
    return records, aggregate(records, lambda r: r.queries)


def _median_error(record: TrialRecord) -> float:
    errs = list(record.per_cluster_errors.values())
    return float(np.median(errs)) if errs else float("nan")


def run_error_report(plan: ExperimentPlan):
    """Mean over trials of the per-trial median centroid error, fixed-recovery."""
    if not plan.targets:
        raise ValueError("error_report needs targets")
    records = _run_grid(plan, list(plan.targets), budget_mode=False)
    return records, aggregate(records, _median_error)


def classify_study(X: PointSet, result: RecoveryResult, seed: int = 0):
    """Push every dataset point, in index order, through distance-ordered
    Classify against the recovered centers; returns (histogram of queries
    per point, correct fraction).

    A point asks the open clusters in increasing squared distance to their
    centers (oracle.distance_ranks); a point of a label not yet discovered
    pays one query per open cluster and opens a cluster centered on itself.
    Points go in chunks of about 2^21 center-difference coordinates. The
    recovered clusters must have distinct truth labels, as those of an
    exact-oracle run do.

    The correct fraction is 1.0 by construction: the session replays the
    exact same-cluster answers, so every point lands in its own label's
    cluster, and `seed` seeds a generator that the exact session never
    draws from. What the study measures is the histogram.
    """
    if not result.I:
        raise ValueError("classify study needs a completed recovery")
    rep_points = [result.reps[cid] for cid in result.I]
    if len(np.unique(X.labels[rep_points])) < len(rep_points):
        raise ValueError("classify study needs recovered clusters of distinct labels")
    session = OracleSession(X.labels, rng_seed=seed)
    reps = Representatives()
    for z in rep_points:
        reps.add_cluster(z)
    cl, costs, new_firsts = peek_classify(session, np.arange(len(X)), reps)
    firsts = np.array([p for p, _ in new_firsts], dtype=np.int64)
    centers = np.vstack([[result.centers[cid] for cid in result.I], X.points[firsts]])
    opens = np.concatenate([np.full(len(rep_points), -1), firsts])
    used = np.empty(len(X), dtype=np.int64)
    step = max(1, (1 << 21) // centers.size)
    for a in range(0, len(X), step):
        t = np.arange(a, min(a + step, len(X)))
        C = centers - X.points[t, None, :]
        D = np.einsum("mld,mld->ml", C, C)
        D[opens >= t[:, None]] = np.inf
        used[t] = distance_ranks(D, cl[t])
    used[firsts] = costs[firsts]
    hist = dict(Counter(used.tolist()))
    rep_labels = X.labels[np.concatenate([rep_points, firsts])]
    return hist, int(np.count_nonzero(rep_labels[cl - 1] == X.labels)) / len(X)


def run_classify_study(plan: ExperimentPlan):
    """Recover once per algorithm, then histogram classification queries.

    Only the exact-oracle algorithms (the _RUNNERS tags) can be studied:
    the classifier replays exact same-cluster answers."""
    other = [a for a in plan.algorithms if a not in _RUNNERS]
    if other:
        raise ValueError(f"classify study takes only the exact-oracle algorithms "
                         f"{list(_RUNNERS)}, not {other}")
    payload = plan.to_payload()
    seeds = trial_seeds(plan.seed, 1)
    records = []
    for algorithm in plan.algorithms:
        target = plan.targets[0] if plan.targets else None
        budget = plan.budgets[0] if plan.budgets else None
        if algorithm == "uniform" and target is None and budget is None:
            raise ValueError("uniform needs a target or budget for the study")
        X = _dataset_for_trial(payload, seeds[0])
        cfg = RecoveryConfig(eps=plan.eps, heavy_threshold=plan.heavy_threshold,
                             reuse_samples=plan.reuse_samples,
                             draw_cap=plan.draw_cap, seed=seeds[0])
        session = OracleSession(X.labels, rng_seed=seeds[0], budget=budget)
        res = _RUNNERS[algorithm](X, session, cfg, target=target)
        hist, correct = classify_study(X, res, seed=seeds[0])
        records.append(TrialRecord(
            algorithm=algorithm, x=target if target is not None else (budget or 0),
            trial=0, seed=seeds[0], queries=res.queries_total,
            samples=res.samples_total, clusters_recovered=res.K_recovered,
            clusters_discovered=res.L_discovered, rounds=res.rounds_total,
            per_cluster_errors=dict(res.per_cluster_errors),
            classify_hist=hist, correct_fraction=correct))
    return records


def check_reducibility(X: PointSet, recovered_labels, eps: float):
    """Definition-style check: every left-out cluster must be covered by the
    recovered clusters' true centroids at cost <= eps times their own cost.

    Returns (passes, worst ratio, offending label or None)."""
    if X.labels is None:
        raise ValueError("reducibility check needs ground-truth labels")
    recovered = sorted(set(int(l) for l in recovered_labels))
    all_labels = range(1, X.n_clusters + 1)
    centers = CenterSet({lab: X.cluster_points(lab).mean(axis=0)
                         for lab in recovered})
    base = sum(cost(X.cluster_points(lab), CenterSet({lab: centers[lab]}))
               for lab in recovered)
    worst_ratio = 0.0
    offender = None
    for lab in all_labels:
        if lab in recovered:
            continue
        covering = cost(X.cluster_points(lab), centers)
        if covering == 0.0:
            ratio = 0.0
        elif eps * base > 0.0:
            ratio = covering / (eps * base)
        else:
            ratio = math.inf
        if ratio > worst_ratio:
            worst_ratio = ratio
            offender = lab
    return worst_ratio <= 1.0, worst_ratio, offender


# ---------------------------------------------------------------------------
# Emission

TABLE_FIELDS = ["algorithm", "x", "mean", "sd", "trials", "censored"]


def write_table_csv(path, rows: list[dict]):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=TABLE_FIELDS)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: repr(row[k]) if isinstance(row[k], float) else row[k]
                             for k in TABLE_FIELDS})


def read_table_csv(path) -> list[dict]:
    out = []
    with open(path, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            out.append({
                "algorithm": row["algorithm"],
                "x": int(row["x"]),
                "mean": float(row["mean"]),
                "sd": float(row["sd"]),
                "trials": int(row["trials"]),
                "censored": int(row["censored"]),
            })
    return out


def write_records_json(path, plan: ExperimentPlan, records: list[TrialRecord]):
    doc = {"plan": plan.to_payload(),
           "trials": [r.to_payload() for r in records]}
    Path(path).write_text(json.dumps(doc, indent=1))


def read_records_json(path):
    doc = json.loads(Path(path).read_text())
    return doc["plan"], [TrialRecord.from_payload(d) for d in doc["trials"]]
