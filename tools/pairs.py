#!/usr/bin/env python3
"""Paired alternating benchmark runs of a base commit and the working tree.

    python3 tools/pairs.py --base REF --workload W [--pairs 10] [--held-out]

Run from anywhere inside the repository. Both sides run from detached
git worktrees under tools/out/ (removed again at the end), so that
neither side gains from where its files lie: REF on the base side, and
on the change side HEAD, or, when the files a run reads (src/,
perfbench/, tests/data/, BENCHMARK.json) differ from HEAD, the
`git stash create` snapshot of the tracked files (untracked files are
not in it; `git add` them first). Each pair runs both trees' own
`perfbench/run.py --trace 0` for BENCHMARK.json's `run_seconds`, the
base first on odd pairs and the change first on even ones, so that
drift of the machine falls on both sides alike (Kalibera and Jones,
"Rigorous Benchmarking in Reasonable Time", ISMM 2013). Of each run it
keeps the last JSON line, the `fingerprints:` line and the CPU seconds
of the child processes.

One entry is appended to BENCH_<W>.json at the repository root: both
commits, whether the change side is a snapshot of a dirty tree, every
pair's values and, per metric, each side's median and quartiles, the
pairs each side won (by the metric's `better` in BENCHMARK.json; ties
count for neither), the median difference and the base's interquartile
range. Exits 1 when a run is not "correct" (the entry is still written,
up to that pair).
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "tools" / "out"
CPU = {"name": "cpu_s", "unit": "s", "better": "lower", "bound": None}
RUN_INPUTS = ("src", "perfbench", "tests/data", "BENCHMARK.json")
MIN_GAIN_PAIRS = 10


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3), interpolated linearly between order statistics."""
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3


def compare(base: list[float], change: list[float], better: str,
            bound: float | None) -> dict:
    """Paired comparison of one metric; base[i] and change[i] are pair i.

    A pair is won by the side whose value is better ("higher" or "lower");
    equal values are a tie. The verdict is "equal" when every pair ties;
    "gain" when at least MIN_GAIN_PAIRS pairs ran, the change won at
    least nine tenths of them and its median is better by more than the
    base's interquartile range; otherwise, given a relative bound,
    "unresolved" when that range exceeds the bound times the base median
    and some base run reads at least as well as some change run, "worse
    than bound" when the change's median is worse by more than the
    bound, and "within bound". Without a bound the verdict is "no bound".
    """
    if len(base) != len(change) or not base:
        raise ValueError("compare needs equal, non-empty lists")
    sign = {"higher": 1, "lower": -1}[better]
    diffs = [sign * (c - b) for b, c in zip(base, change)]
    wins = {"change": sum(d > 0 for d in diffs), "base": sum(d < 0 for d in diffs),
            "ties": sum(d == 0 for d in diffs)}
    bq1, bmed, bq3 = quartiles(base)
    cq1, cmed, cq3 = quartiles(change)
    iqr = bq3 - bq1
    gained = sign * (cmed - bmed)             # > 0: the change's median is better
    every_run_better = min(sign * c for c in change) > max(sign * b for b in base)
    if wins["ties"] == len(base):
        verdict = "equal"
    elif len(base) >= MIN_GAIN_PAIRS and 10 * wins["change"] >= 9 * len(base) and gained > iqr:
        verdict = "gain"
    elif bound is None:
        verdict = "no bound"
    elif iqr > bound * abs(bmed) and not every_run_better:
        verdict = "unresolved"
    elif -gained > bound * abs(bmed):
        verdict = "worse than bound"
    else:
        verdict = "within bound"
    return {
        "base": {"median": bmed, "q1": bq1, "q3": bq3},
        "change": {"median": cmed, "q1": cq1, "q3": cq3},
        "wins": wins,
        "median_diff": cmed - bmed,
        "base_iqr": iqr,
        "bound": bound,
        "verdict": verdict,
    }


def summarize(pairs: list[dict], metrics: list[dict]) -> dict:
    """compare() for every metric over the pairs, whose sides carry
    {"metrics": {name: value}}."""
    return {m["name"]: compare([p["base"]["metrics"][m["name"]] for p in pairs],
                               [p["change"]["metrics"][m["name"]] for p in pairs],
                               m["better"], m.get("bound"))
            for m in metrics}


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def _run(tree: Path, workload: str, seconds: float, held_out: bool) -> dict:
    """One benchmark run in `tree`: its verdict, metrics, fingerprint line
    and the CPU seconds of the processes it started."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seconds", str(seconds), "--trace", "0"] + (["--held-out"] if held_out else [])
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    lines = proc.stdout.strip().splitlines()
    try:
        last = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        last = {"correct": False, "metrics": {}}
    return {
        "correct": proc.returncode == 0 and bool(last.get("correct")),
        "attempted": last.get("attempted"),
        "failed": last.get("failed"),
        "fingerprints": next((ln for ln in lines if ln.startswith("fingerprints:")), None),
        "metrics": {**{k: v["value"] for k, v in last["metrics"].items()}, "cpu_s": cpu},
        **({} if proc.returncode == 0 else {"stderr": proc.stderr[-2000:]}),
    }


def _add_worktree(side: str, commit: str) -> Path:
    path = OUT / side
    if path.exists():
        subprocess.run(["git", "worktree", "remove", "--force", str(path)], cwd=ROOT,
                       capture_output=True)
        shutil.rmtree(path, ignore_errors=True)
    _git("worktree", "prune")
    OUT.mkdir(parents=True, exist_ok=True)
    _git("worktree", "add", "--detach", str(path), commit)
    return path


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", required=True, help="git ref of the base side")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--held-out", action="store_true")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be >= 1")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = spec["end_to_end"] + [CPU]
    base = _git("rev-parse", "--verify", f"{args.base}^{{commit}}")
    head = _git("rev-parse", "HEAD")
    dirty = bool(_git("status", "--porcelain", "--untracked-files=no", "--", *RUN_INPUTS))
    change = _git("stash", "create") if dirty else head
    trees, pairs, correct = {}, [], True
    try:
        for side, commit in (("base", base), ("change", change)):
            trees[side] = _add_worktree(side, commit)
        # Compile both trees first: a fresh worktree would otherwise pay
        # for it in its first run's set-up time.
        for t in trees.values():
            subprocess.run([sys.executable, "-m", "compileall", "-q", "src", "perfbench"],
                           cwd=t, check=True, capture_output=True)
        for i in range(1, args.pairs + 1):
            order = ("base", "change") if i % 2 else ("change", "base")
            pair = {"pair": i, "first": order[0]}
            for side in order:
                pair[side] = _run(trees[side], args.workload, spec["run_seconds"],
                                  args.held_out)
                print(f"pair {i} {side}: correct={pair[side]['correct']} "
                      f"{pair[side]['fingerprints']}", file=sys.stderr, flush=True)
            pairs.append(pair)
            if not (pair["base"]["correct"] and pair["change"]["correct"]):
                correct = False
                break
    finally:
        for t in trees.values():
            _git("worktree", "remove", "--force", str(t))
    entry = {
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "workload": args.workload, "held_out": args.held_out, "seconds": spec["run_seconds"],
        "base": {"ref": args.base, "commit": base},
        "change": {"commit": change, "head": head, "dirty": dirty},
        "host": {"cpus": os.cpu_count(), "machine": platform.machine(),
                 "python": platform.python_version()},
        "correct": correct,
        "summary": summarize(pairs, metrics) if correct else None,
        "pairs": pairs,
    }
    out = ROOT / f"BENCH_{args.workload}.json"
    entries = json.loads(out.read_text()) if out.exists() else []
    out.write_text(json.dumps(entries + [entry], indent=1) + "\n")
    if entry["summary"]:
        for name, s in entry["summary"].items():
            print(f"{name}: base {s['base']['median']:.6g} [{s['base']['q1']:.6g}, "
                  f"{s['base']['q3']:.6g}]  change {s['change']['median']:.6g} "
                  f"[{s['change']['q1']:.6g}, {s['change']['q3']:.6g}]  wins "
                  f"{s['wins']['change']}-{s['wins']['base']} ({s['wins']['ties']} tied)  "
                  f"{s['verdict']}")
    print(f"appended to {out.name}: {len(pairs)} pairs, correct={correct}")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
