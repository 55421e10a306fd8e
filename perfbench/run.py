"""samecluster benchmark: one workload per invocation.

    python3 perfbench/run.py --workload practical --seed 505 --seconds 30 --trace 0

Run from the repository root; the package is imported from ./src. With
--trace 0 the run builds its inputs five times (set-up), then runs whole
passes over its trial list for about --seconds (at least one), checking
every trial. With --trace 1 it runs each trial unit untraced and with
every samecluster entry point wrapped in spans (in the order untraced,
traced, traced, untraced), checks parity with `harness.run_one_trial` and
span coverage, and reports per-layer metrics.
Human-readable lines go first; the last line of stdout is the JSON result.
Details (every trial, the spans) go to perfbench/out/.
"""

from __future__ import annotations

import os
import sys
import time

# One thread per numeric library, pinned before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import samecluster  # noqa: E402

if Path(samecluster.__file__).resolve().parent != ROOT / "src" / "samecluster":
    sys.exit(f"samecluster imported from {samecluster.__file__}, not from {ROOT / 'src'}")

from spans import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 5
OUT_DIR = HERE / "out"
FINGERPRINTS = HERE / "fingerprints.json"

# Per-layer metrics: span -> kinds. Kinds map onto Tracer.summary fields.
LAYER_KINDS = {
    "sampling.add_center": ("calls", "s"),
    "sampling.d2_sample_batch": ("calls", "draws", "s"),
    "sampling.rej_samp": ("calls", "draws", "accepted", "s", "self_s"),
    "oracle.classify_batch": ("calls", "items", "s"),
    "oracle.peek_classify": ("s",),
    "oracle.commit_classify": ("s",),
    "oracle.check_cluster": ("calls", "s", "queries"),
    "recovery.run_uniform": ("s",),
    "recovery.run_basic_simplified": ("s",),
    "recovery.run_improved_simplified": ("s",),
    "recovery.run_basic": ("s",),
    "recovery.run_improved": ("s",),
    "recovery.RunState.draw_classified_fill": ("calls", "draws", "s"),
    "noisy.run_noisy": ("s", "self_s"),
    "noisy.find_clusters": ("calls", "s", "queries"),
    "geometry.centroid_error": ("calls", "s"),
    "synthgen.generate": ("s",),
    "datasets.load": ("s",),
    "harness.run_one_trial": ("calls", "s", "self_s"),
}
_FIELD = {"draws": "work", "items": "work"}
_UNIT = {"s": "s", "self_s": "s"}


class Passes:
    """Outcomes and wall time of the timed loop."""

    def __init__(self, units, seconds: float):
        self.outcomes = []
        self.passes = 0
        t0 = time.perf_counter()
        while True:
            tp = time.perf_counter()
            for unit in units:
                self.outcomes.extend(unit())
            self.passes += 1
            if self.passes == 1:
                self.first = list(self.outcomes)
                # Later passes repeat the same work; their allocator churn
                # is not the program's footprint.
                self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            now = time.perf_counter()
            # Whole passes only, so every run times the same trial mix.
            if now - t0 + (now - tp) > seconds:
                break
        self.wall = time.perf_counter() - t0

    @property
    def trials_per_s(self) -> float:
        return len(self.outcomes) / self.wall


def _mean(values) -> float:
    return float(statistics.fmean(values)) if values else 0.0


def end_to_end(run: Passes, setup_s: float) -> dict:
    # Cost metrics come from the first pass, so they repeat exactly for a seed.
    ok = [o for o in run.first if o.failure is None]
    errors = [e for o in ok for e in o.errors]
    return {
        "trials_per_s": (run.trials_per_s, "1/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (run.peak_rss_mb, "MB"),
        "queries_per_trial": (_mean([o.queries for o in ok]), "count"),
        "draws_per_trial": (_mean([o.draws for o in ok]), "count"),
        "centroid_err.p50": (float(statistics.median(errors)) if errors else 0.0, "ratio"),
    }


def per_layer(summary: dict, outcomes: list) -> dict:
    m = {}
    for span, kinds in LAYER_KINDS.items():
        for kind in kinds:
            value = summary[span][_FIELD.get(kind, kind)]
            m[f"{span}.{kind}"] = (value, _UNIT.get(kind, "count"))
    rej = summary["sampling.rej_samp"]
    m["sampling.rej_samp.accept_ratio"] = (
        rej["accepted"] / rej["work"] if rej["work"] else 0.0, "ratio")
    noisy_runs = [o for o in outcomes if o.noisy_oracle and o.failure is None]
    distinct = sum(o.distinct_pairs for o in noisy_runs)
    queries = sum(o.queries for o in noisy_runs)
    m["oracle.distinct_pairs"] = (distinct, "count")
    m["oracle.repeat_ratio"] = (1.0 - distinct / queries if queries else 0.0, "ratio")
    m["recovery.self_s"] = (sum(v["self_s"] for k, v in summary.items()
                                if k.startswith("recovery.run_")), "s")
    return m


def tag_times(outcomes) -> list[str]:
    by_tag: dict[str, list[float]] = {}
    for o in outcomes:
        if o.failure is None and o.seconds is not None:
            by_tag.setdefault(o.tag, []).append(o.seconds)
    return [f"trial_s.{tag}: median {statistics.median(v):.4f} s over {len(v)} trials"
            for tag, v in by_tag.items()]


def fingerprint_diff(outcomes, record: bool) -> list[str]:
    ref = json.loads(FINGERPRINTS.read_text()) if FINGERPRINTS.exists() else {}
    now = {o.name: o.fingerprint() for o in outcomes if o.failure is None}
    if record:
        ref.update(now)
        FINGERPRINTS.write_text(json.dumps(ref, indent=0, sort_keys=True) + "\n")
    known = [n for n in now if n in ref]
    moved = [n for n in known if ref[n] != now[n]]
    lines = [f"fingerprints: {len(known) - len(moved)} match, {len(moved)} differ, "
             f"{len(now) - len(known)} without reference "
             "(queries, draws, rounds, K_recovered, stop_reason)"]
    lines += [f"  fingerprint moved: {n}: {ref[n]} -> {now[n]}" for n in moved]
    return lines


def import_seconds() -> float:
    """Wall time of a fresh interpreter that imports samecluster from ./src."""
    code = f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); import samecluster"
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], check=True)
    return time.perf_counter() - t0


def plain_run(wl, seed: int, seconds: float, record: bool):
    """Set-up is process start, import and input building, done
    SETUP_REPEATS times; setup_s is the median."""
    units, setups = None, []
    for _ in range(SETUP_REPEATS):
        units = None  # free the previous inputs before building again
        t_import = import_seconds()
        t0 = time.perf_counter()
        units = wl.build(seed)
        setups.append((t_import, time.perf_counter() - t0))
    setup_s = statistics.median(a + b for a, b in setups)
    run = Passes(units, seconds)
    lines = [f"{wl.name} master seed {seed}{' (pinned)' if wl.pinned else ''}: "
             f"{len(run.outcomes)} trials in {run.passes} pass(es), {run.wall:.2f} s; "
             f"set-up {setup_s:.3f} s, median of (import s, build s) "
             f"{[(round(a, 3), round(b, 3)) for a, b in setups]}"]
    lines += tag_times(run.outcomes)
    lines += fingerprint_diff(run.first, record)
    detail = {"setup_import_build_s": setups}
    return run.outcomes, end_to_end(run, setup_s), lines, [], detail


def traced_run(wl, seed: int):
    """Each unit runs untraced, traced, traced again and untraced again, so
    the machine's drift cancels out of the tracing overhead. Layer metrics
    come from set-up and the first traced run of each unit."""
    tracer = Tracer()
    with tracer.installed("setup"):
        units = wl.build(seed)
    plain, traced, repeat, plain_s, traced_s = [], [], [], 0.0, 0.0
    for unit in units:
        for phase, into in ((None, plain), ("pass", traced), ("repeat", repeat),
                            (None, plain)):
            with (tracer.installed(phase) if phase else contextlib.nullcontext()):
                t0 = time.perf_counter()
                into += unit()
                dt = time.perf_counter() - t0
            if phase:
                traced_s += dt
            else:
                plain_s += dt
    traced_all = traced + repeat
    problems = []
    with tracer.installed("parity"):
        try:
            problems += [f"parity: {p}" for p in wl.parity(units, traced)]
        except Exception as e:  # report, do not abort the run
            problems.append(f"parity raised {type(e).__name__}: {e}")
    summary = tracer.summary(("setup", "pass"))
    at_parity = tracer.summary(("parity",))
    problems += [f"coverage: {n} recorded no calls on {wl.name}"
                 for n in wl.covers if summary[n]["calls"] == 0]
    problems += [f"coverage: {n} recorded no calls in the harness parity run"
                 for n in wl.parity_covers if at_parity[n]["calls"] == 0]
    OUT_DIR.mkdir(exist_ok=True)
    tracer.write(OUT_DIR / f"spans-{wl.name}-seed{seed}.npz")
    untraced_tps, traced_tps = len(plain) / plain_s, len(traced_all) / traced_s
    lines = [f"{wl.name} master seed {seed}: traced {traced_tps:.4f} trials/s vs untraced "
             f"{untraced_tps:.4f} trials/s: tracing costs {100 * (1 - plain_s / traced_s):.1f}%",
             f"patched sites per span: {tracer.sites}",
             f"parity with harness.run_one_trial and span coverage: "
             f"{'ok' if not problems else 'FAILED'}"]
    lines += tag_times(traced)
    lines += fingerprint_diff(traced, False)
    detail = {"untraced_trials_per_s": untraced_tps, "traced_trials_per_s": traced_tps,
              "traced_pass_s": traced_s / 2, "spans": summary, "parity_spans": at_parity,
              "sites": tracer.sites}
    return plain + traced_all, per_layer(summary, traced), lines, problems, detail


def declared(trace: bool) -> set[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=None,
                    help="master seed of the trial list (default, and always for a "
                         "pinned workload: its acceptance-suite seed)")
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--held-out", action="store_true",
                    help="use the workload's held-out master seed instead")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-fingerprints", action="store_true",
                    help="merge this run's trial fingerprints into fingerprints.json")
    args = ap.parse_args(argv)
    wl = WORKLOADS[args.workload]
    seed = wl.master_for(args.seed, args.held_out)
    if args.trace:
        outcomes, metrics, lines, problems, detail = traced_run(wl, seed)
    else:
        outcomes, metrics, lines, problems, detail = plain_run(
            wl, seed, args.seconds, args.record_fingerprints)
    mismatch = declared(bool(args.trace)) ^ set(metrics)
    if mismatch:
        raise SystemExit(f"metrics differ from BENCHMARK.json: {sorted(mismatch)}")
    failed = [o for o in outcomes if o.failure is not None]
    lines.append(f"failed_frac: {len(failed)}/{len(outcomes)} = "
                 f"{len(failed) / len(outcomes):.4f}")
    lines += [f"  FAILED {o.name}: {o.failure}" for o in failed]
    lines += problems
    for name, (value, unit) in metrics.items():
        lines.append(f"{name} = {value!r} {unit}")
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{wl.name}-seed{seed}-trace{args.trace}.json").write_text(json.dumps({
        "workload": wl.name, "seed": seed, "metrics": metrics, "problems": problems,
        "trials": [{"name": o.name, "seconds": o.seconds, "fingerprint": o.fingerprint(),
                    "failure": o.failure} for o in outcomes],
        **detail}, indent=1))
    print("\n".join(lines))
    print(json.dumps({
        "correct": not failed and not problems,
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
