#!/usr/bin/env python3
"""Run perfbench in alternating parent/change pairs and write one BENCH_<tag>.json.

Usage (from the root of a checkout):

    python3 scripts/bench_pairs.py --parent HEAD~1 --change . --tag pr16 \\
        --pairs 10 --seeds 7 --what "one line on what the change does"

`--parent` and `--change` each name a source tree: a directory, or a git
revision of the repository the script is run from. Each side is copied once
into a work directory (a revision with `git archive`, a directory without
`.git`, caches, `perfbench/_runs` and `BENCH_*.json`), and every run gets its
own fresh copy of that snapshot, so no run sees another's digest ledger or
build products. Every workload of the parent's BENCHMARK.json, or those
named by `--workloads NAME ...`, runs for its `run_seconds`; a name that the
parent's BENCHMARK.json does not list exits 2 before any run. For each
workload and seed the pairs alternate which side runs first: the parent in
even pairs, the change in odd ones. With `--trace-pairs N`, N pairs per
workload then run at `--trace 1`.

The file holds every run's info line (with its determinism digest) and
result. Per workload and seed it also holds, for each end-to-end metric of
BENCHMARK.json, each side's median and quartiles (inclusive method) over the
pair runs and in how many pairs the change read better or worse than its
parent, by the metric's `better` direction; and each side's digests. Its
`host` line names the CPU count, the BLAS library and thread count, and the
OpenBLAS kernel (`BLAS core SkylakeX`, say) that this interpreter's numpy
selects, as the runs inherit its environment.
"""

from __future__ import annotations

import argparse
import json
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from blas_core import blas_core

SKIPPED = shutil.ignore_patterns(".git", "__pycache__", "_runs", ".pytest_cache", ".hypothesis",
                                 "BENCH_*.json")


def parse_args():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--parent", required=True, help="directory or git revision")
    p.add_argument("--change", required=True, help="directory or git revision")
    p.add_argument("--tag", required=True, help="the output is BENCH_<tag>.json")
    p.add_argument("--what", default="", help="what the change does, stored in the file")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seeds", type=int, nargs="+", default=[7])
    p.add_argument("--trace-pairs", type=int, default=0)
    p.add_argument("--workloads", nargs="+", metavar="NAME",
                   help="workloads to run (default: all of the parent's BENCHMARK.json)")
    p.add_argument("--out-dir", default=".", help="where BENCH_<tag>.json is written")
    return p.parse_args()


def snapshot(source: str, dest: Path) -> str:
    """Copy `source` (a directory or a git revision) to `dest`; return how it was named."""
    if Path(source).is_dir():
        shutil.copytree(source, dest, ignore=SKIPPED)
        head = subprocess.run(["git", "-C", source, "rev-parse", "--short", "HEAD"],
                              capture_output=True, text=True)
        return f"working tree on {head.stdout.strip()}" if head.returncode == 0 else source
    rev = subprocess.run(["git", "rev-parse", "--short", source], check=True,
                         capture_output=True, text=True).stdout.strip()
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "archive", rev], check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    for stale in dest.glob("BENCH_*.json"):
        stale.unlink()
    return rev


def run_once(snap: Path, work: Path, workload: str, seed: int, seconds: float,
             trace: int) -> dict:
    """One perfbench run in a fresh copy of `snap`: its info line and its result."""
    tree = work / "run"
    shutil.rmtree(tree, ignore_errors=True)
    shutil.copytree(snap, tree)
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    try:
        proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    finally:
        shutil.rmtree(tree, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return {"info": json.loads(lines[-2])["info"], "result": json.loads(lines[-1])}


def quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3}


def summarize(runs: list[dict], metrics: list[dict]) -> tuple[dict, dict, dict]:
    """Per workload and seed: each side's quartiles per metric, the change's
    wins and losses, and each side's digests."""
    summary, wins, digests = {}, {}, {}
    pairs = {}
    for r in runs:
        if r["trace"] == 0:
            key = (r["workload"], str(r["seed"]))
            pairs.setdefault(key, {}).setdefault(r["pair"], {})[r["side"]] = r
    for (workload, seed), by_pair in pairs.items():
        complete = [p for p in by_pair.values() if len(p) == 2]
        cell = summary.setdefault(workload, {})[seed] = {"pairs": len(complete)}
        won = wins.setdefault(workload, {})[seed] = {}
        for m in metrics:
            name, higher = m["name"], m["better"] == "higher"
            values = {side: [p[side]["result"]["metrics"][name]["value"] for p in complete]
                      for side in ("parent", "change")}
            cell[name] = {side: quartiles(v) for side, v in values.items() if v}
            diffs = [c - p for p, c in zip(values["parent"], values["change"])]
            won[name] = {
                "change_better": sum(d > 0 if higher else d < 0 for d in diffs),
                "change_worse": sum(d < 0 if higher else d > 0 for d in diffs),
            }
        seen = {side: sorted({p[side]["info"]["digest"] for p in complete})
                for side in ("parent", "change")}
        digests.setdefault(workload, {})[seed] = {
            **seen, "equal": len(set(seen["parent"]) | set(seen["change"])) == 1}
    return summary, wins, digests


def main() -> int:
    args = parse_args()
    out = Path(args.out_dir) / f"BENCH_{args.tag}.json"
    runs = []
    with tempfile.TemporaryDirectory(prefix="bench_pairs.") as tmp:
        work = Path(tmp)
        snaps = {side: work / side for side in ("parent", "change")}
        names = {side: snapshot(src, snaps[side])
                 for side, src in (("parent", args.parent), ("change", args.change))}
        spec = json.loads((snaps["parent"] / "BENCHMARK.json").read_text())
        metrics, seconds = spec["end_to_end"], spec["run_seconds"]
        workloads = [w["name"] for w in spec["workloads"]]
        unknown = sorted(set(args.workloads or ()) - set(workloads))
        if unknown:
            print(f"unknown workload(s) {', '.join(unknown)}; BENCHMARK.json lists "
                  f"{', '.join(workloads)}", file=sys.stderr)
            return 2
        if args.workloads:
            workloads = [w for w in workloads if w in args.workloads]
        plan = [(w, s, i, 0) for w in workloads for s in args.seeds for i in range(args.pairs)]
        plan += [(w, args.seeds[0], i, 1) for w in workloads for i in range(args.trace_pairs)]
        for workload, seed, pair, trace in plan:
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for side in order:
                run = run_once(snaps[side], work, workload, seed, seconds, trace)
                runs.append({"side": side, "workload": workload, "seed": seed, "pair": pair,
                             "trace": trace, **run})
                print(f"{workload} seed {seed} pair {pair} trace {trace} {side}: "
                      f"correct={run['result']['correct']} digest={run['info']['digest'][:12]}",
                      file=sys.stderr)
    summary, wins, digests = summarize(runs, metrics)
    host = runs[0]["info"] if runs else {}
    doc = {
        "what": args.what,
        "parent": names["parent"],
        "change": names["change"],
        "command": "python3 perfbench/run.py --workload W --seed S "
                   f"--seconds {seconds:g} --trace T",
        "host": f"{host.get('nproc')} CPUs, {host.get('blas')} on {host.get('blas_threads')} "
                f"thread(s), BLAS core {blas_core()}, numpy {host.get('numpy')}, "
                f"Python {platform.python_version()}",
        "pairs": f"pairs per workload and seed {args.seeds} at --trace 0: {args.pairs}, "
                 "alternating (the parent first in even pairs); then per workload at --trace 1: "
                 f"{args.trace_pairs}; every run from its own fresh copy of its side",
        "workloads": workloads,
        "summary": summary,
        "wins": wins,
        "digests": digests,
        "runs": runs,
    }
    out.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
