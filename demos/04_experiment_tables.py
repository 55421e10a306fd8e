"""Reproduce the query-complexity comparison tables at desk scale.

Runs the three compared algorithms through the experiment harness in both
measurement modes (fixed budget and fixed recovery), reports centroid
error medians, and histograms the queries needed to classify every point
against the recovered centers.
"""

from samecluster import (
    ExperimentPlan,
    SynthConfig,
    run_classify_study,
    run_error_report,
    run_fixed_budget,
    run_fixed_recovery,
)

cfg = SynthConfig(n=30_000, K=25, alpha=2.5, sigma=0.3, b=5.0, d=10)
algos = ["uniform", "basic", "improved_simple"]


def show(title, table, fmt="{:>10.1f}"):
    print(f"\n== {title} ==")
    xs = sorted({row["x"] for row in table})
    print(f"{'algorithm':<16}" + "".join(f"{x:>11}" for x in xs))
    for algo in algos:
        cells = []
        for x in xs:
            row = next(r for r in table if r["algorithm"] == algo and r["x"] == x)
            cells.append(fmt.format(row["mean"]) +
                         ("*" if row["censored"] else " "))
        print(f"{algo:<16}" + "".join(cells))


plan = ExperimentPlan(mode="fixed_budget", algorithms=algos,
                      budgets=[1000, 2500, 5000], trials=10, eps=0.5,
                      seed=1, synth=cfg, workers=2)
_, table = run_fixed_budget(plan)
show("fixed budget: mean clusters recovered per query budget", table)

plan = ExperimentPlan(mode="fixed_recovery", algorithms=algos,
                      targets=[10, 15, 20], trials=10, eps=0.5,
                      seed=2, synth=cfg, workers=2)
_, table = run_fixed_recovery(plan)
show("fixed recovery: mean queries per cluster target", table)

plan = ExperimentPlan(mode="error_report", algorithms=algos,
                      targets=[15], trials=10, eps=0.5, seed=3, synth=cfg,
                      workers=2)
_, table = run_error_report(plan)
show("centroid quality: mean of per-trial median errors", table, fmt="{:>10.4f}")

plan = ExperimentPlan(mode="classify_study", algorithms=["improved_simple"],
                      trials=1, eps=0.5, seed=4, synth=cfg)
[rec], _ = run_classify_study(plan)
print("\n== queries needed to classify each dataset point ==")
total = sum(rec.classify_hist.values())
for q in sorted(rec.classify_hist):
    share = rec.classify_hist[q] / total
    print(f"{q:>3} queries: {share:7.2%}  {'#' * int(60 * share)}")
print(f"all points classified correctly: {rec.correct_fraction:.1%}")
print("\n(* marks cells with censored trials excluded from the mean)")
