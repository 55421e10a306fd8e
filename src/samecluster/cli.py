"""Command-line harness: synth, budget, recovery, errors, classify, reduce-check."""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import get_type_hints

from .datasets import DatasetSpec, load, write_csv
from .harness import (
    ExperimentPlan,
    check_reducibility,
    run_plan,
    write_records_json,
    write_table_csv,
)
from .synthgen import SynthConfig, generate

# The sweep commands and the plan mode each one runs.
_SWEEPS = {"budget": "fixed_budget", "recovery": "fixed_recovery",
           "errors": "error_report", "classify": "classify_study"}


def parse_synth(text: str) -> SynthConfig:
    """Parse 'n=10000,K=20,alpha=2.5,...' into a SynthConfig: any of its
    field names, with `p` short for p_collision."""
    types = get_type_hints(SynthConfig)
    kwargs = {}
    for part in text.split(","):
        if not part.strip():
            continue
        key, _, value = part.partition("=")
        key = key.strip()
        name = "p_collision" if key == "p" else key
        if name not in types:
            raise ValueError(f"unknown synth parameter {key!r}")
        kwargs[name] = types[name](value.strip())
    return SynthConfig(**kwargs)


def _int_list(text: str) -> list[int]:
    return [int(v) for v in text.split(",") if v.strip()]


def _add_shared(p: argparse.ArgumentParser):
    p.add_argument("--algo", default="uniform,basic,improved_simple",
                   help="comma-separated algorithm tags")
    p.add_argument("--eps", type=float, default=0.5)
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--heavy-threshold", type=int, default=10)
    p.add_argument("--reuse-samples", choices=("true", "false"), default="true")
    p.add_argument("--noise-p", type=float, default=0.0)
    p.add_argument("--draw-cap", type=int, default=10 ** 8)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--dataset", help="labeled CSV (label in the last column)")
    p.add_argument("--synth", help="synthetic config, e.g. n=10000,K=20,alpha=2.5")
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")


def _plan_from_args(args) -> ExperimentPlan:
    synth = parse_synth(args.synth) if args.synth else None
    dataset = DatasetSpec(args.dataset) if args.dataset else None
    return ExperimentPlan(
        mode=_SWEEPS[args.command],
        algorithms=[a.strip() for a in args.algo.split(",") if a.strip()],
        budgets=getattr(args, "budgets", []),
        targets=getattr(args, "targets", []),
        trials=args.trials,
        eps=args.eps,
        seed=args.seed,
        heavy_threshold=args.heavy_threshold,
        reuse_samples=args.reuse_samples == "true",
        noise_p=args.noise_p,
        draw_cap=args.draw_cap,
        synth=synth,
        dataset=dataset,
        workers=args.workers,
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="samecluster",
        description="Cluster recovery with same-cluster queries: data "
                    "generation and query-complexity experiments.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="emit a synthetic dataset CSV")
    p.add_argument("--synth", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--header", action="store_true")

    p = sub.add_parser("budget", help="fixed-budget sweep")
    p.add_argument("--budgets", required=True, type=_int_list)
    _add_shared(p)

    p = sub.add_parser("recovery", help="fixed-recovery sweep")
    p.add_argument("--targets", required=True, type=_int_list)
    _add_shared(p)

    p = sub.add_parser("errors", help="centroid-error report (fixed recovery)")
    p.add_argument("--targets", required=True, type=_int_list)
    _add_shared(p)

    p = sub.add_parser("classify", help="queries-per-point classification study")
    p.add_argument("--targets", type=_int_list, default=[])
    p.add_argument("--budgets", type=_int_list, default=[])
    _add_shared(p)

    p = sub.add_parser("reduce-check", help="reducibility check on ground truth")
    p.add_argument("--dataset", required=True)
    p.add_argument("--recovered", required=True,
                   help="comma-separated recovered labels, as the file writes them")
    p.add_argument("--eps", type=float, default=0.5)
    p.add_argument("--out")

    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except Exception as exc:  # noqa: BLE001 - machine-readable failure contract
        json.dump({"error": {"type": type(exc).__name__, "message": str(exc)}},
                  sys.stderr)
        sys.stderr.write("\n")
        return 1


def _dispatch(args) -> int:
    if args.command == "synth":
        cfg = parse_synth(args.synth)
        ps, _ = generate(cfg)
        write_csv(args.out, ps.points, ps.labels, header=args.header)
        return 0

    if args.command in _SWEEPS:
        plan = _plan_from_args(args)
        records, table = run_plan(plan)
        if args.format == "json":
            write_records_json(args.out, plan, records)
        else:
            write_table_csv(args.out, table)
        return 0

    if args.command == "reduce-check":
        ps, mapping = load(DatasetSpec(args.dataset))
        recovered = [v.strip() for v in args.recovered.split(",") if v.strip()]
        unknown = [v for v in recovered if v not in mapping]
        if unknown:
            raise ValueError(f"labels not in {args.dataset}: {', '.join(unknown)}")
        ok, ratio, offender = check_reducibility(ps, [mapping[v] for v in recovered], args.eps)
        label_of = {v: k for k, v in mapping.items()}
        # An infinite ratio is written as null: JSON has no infinity.
        doc = {"reducible": ok, "worst_ratio": ratio if math.isfinite(ratio) else None,
               "offender": label_of.get(offender)}
        text = json.dumps(doc, indent=1, allow_nan=False)
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text)
        else:
            print(text)
        return 0 if ok else 2

    raise ValueError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
