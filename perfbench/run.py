#!/usr/bin/env python3
"""Benchmark of convres: one workload per process, checked outputs, JSON result.

Run from the root of a checkout (convres is imported from ./src):

    python3 perfbench/run.py --workload synth-bench --seed 1 --seconds 5 --trace 0

Workloads: synth-bench, paper-notes, crbm-exact (see perfbench/README.md).
`--seconds` is how long, in total, the single-note client runs in the bursts
that follow each round of fixed work. With `--trace 0` the last stdout line
carries the end-to-end metrics of BENCHMARK.json; with `--trace 1` the run
sets up once, does one round untraced and then traced, and reports the
per-layer metrics plus the tracing overhead. The line before it is an info
record: environment, seed, request count and the determinism digest. Exit
code 0 means a result was printed; a failed output check sets "correct" to
false but still exits 0.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import sys
from pathlib import Path
from time import perf_counter

BLAS_THREADS = 1  # steadier than 2 on a shared 2-core host; the same on every commit
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
RUNS_DIR = Path("perfbench/_runs")


def parse_args():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True,
                   choices=["synth-bench", "paper-notes", "crbm-exact"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--tiny", action="store_true", help="self-test sizes")
    return p.parse_args()


def environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "python_hash_seed": os.environ["PYTHONHASHSEED"],
        "numpy": np.__version__,
        "python": platform.python_version(),
        "seed": seed,
    }


def check_ledger(ops, key: dict, digest: str) -> None:
    """Every run of one checkout with the same workload and seed gives one digest."""
    ledger = RUNS_DIR / "digests.jsonl"
    earlier = []
    if ledger.exists():
        for line in ledger.read_text().splitlines():
            entry = json.loads(line)
            if all(entry.get(k) == v for k, v in key.items()):
                earlier.append(entry["digest"])
    ops.check(f"digest {digest[:12]} matches earlier runs", all(d == digest for d in earlier))
    with open(ledger, "a", encoding="utf-8") as fh:
        fh.write(json.dumps({**key, "digest": digest}) + "\n")


def main() -> int:
    args = parse_args()
    if not Path("src/convres/__init__.py").is_file() or not Path("BENCHMARK.json").is_file():
        print("run from the root of a convres checkout (needs src/convres and BENCHMARK.json)",
              file=sys.stderr)
        return 2
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    if os.environ.get("PYTHONHASHSEED") != "0":
        # string hashing salted per process moves dict-heavy timings by up to ~10%
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, *sys.argv])
    sys.path.insert(0, str(Path("src").resolve()))
    spec = json.loads(Path("BENCHMARK.json").read_text())

    import bench_workloads as bw
    from bench_trace import Tracer

    w = bw.WORKLOADS[args.workload]
    if args.tiny:
        w = bw.tiny(w)
    ops = bw.Ops()
    run_id = f"{w.name}-seed{args.seed}-pid{os.getpid()}"
    workdir = RUNS_DIR / run_id
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            tracer = Tracer(run_id)
            with tracer.installed():
                data = bw.set_up(w, args.seed)
            plain = bw.measured_pass(w, args.seed, data, ops, workdir, 1, None)
            with tracer.installed():
                result = bw.measured_pass(w, args.seed, data, ops, workdir, 1, None)
            ops.check("traced and untraced digests agree", result.digest == plain.digest)
            tracer.write(RUNS_DIR / f"{w.name}-seed{args.seed}.spans.jsonl")
        else:
            setup_s, seen = [], set()
            for _ in range(w.setups):
                t0 = perf_counter()
                data = bw.set_up(w, args.seed)
                setup_s.append(perf_counter() - t0)
                seen.add(data.digest())
            ops.check("repeated set-ups give identical inputs", len(seen) == 1)
            result = bw.measured_pass(w, args.seed, data, ops, workdir, w.rounds, args.seconds)
        check_ledger(ops, {"workload": w.name, "seed": args.seed, "tiny": args.tiny},
                     result.digest)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        metrics = tracer.layer_metrics()
        metrics.update({
            "training.epochs": result.epochs,
            "training.steps": result.steps,
            "checkpoint.mb": result.ckpt_bytes / 1e6,
            "trace.overhead_frac": result.wall_s / plain.wall_s - 1.0,
        })
        wanted = spec["per_layer"]
    else:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = bw.end_to_end(setup_s, result, ops, peak_rss_mb)
        wanted = spec["end_to_end"]
    if set(metrics) != {m["name"] for m in wanted}:
        raise RuntimeError(f"metrics {sorted(metrics)} do not match BENCHMARK.json")
    info = {"workload": w.name, "tiny": args.tiny, **environment(args.seed),
            "predict_requests": len(result.latencies_ms), "digest": result.digest,
            "macro_auc_per_model": result.aucs, "oracle_auc": data.oracle_auc}
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {m["name"]: {"value": float(metrics[m["name"]]), "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
