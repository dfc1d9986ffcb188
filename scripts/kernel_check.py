#!/usr/bin/env python3
"""Rerun the split-batch tests under every OpenBLAS kernel this host can run.

Usage (from anywhere):

    python3 scripts/kernel_check.py

A note's encoding and its CRBM marginals must be the same bytes alone as in
any batch. The tiling rules that make them so (`encoder._ROW_TILE`,
`crbm._ROW_TILE`, the `_COL_TILE`s) were read off how OpenBLAS rounds, and
numpy's bundled scipy-openblas is a `DYNAMIC_ARCH` build whose kernel
`OPENBLAS_CORETYPE` picks per process. So for each kernel in KERNELS this
runs the two split-batch test classes in a child process with that variable
set, and prints the core the child's numpy reports (from `blas_core.py`;
Prescott reads Katmai) and whether the tests passed. Outputs may differ
across kernels, but never across batchings within one. Exits 1 if any
kernel fails. It takes about a minute, so it is not part of the test suite.
The children inherit the rest of the environment, `OPENBLAS_NUM_THREADS`
included: OpenBLAS splits a large enough product between threads, so set it
to check another thread count.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
KERNELS = ("SkylakeX", "Haswell", "Sandybridge", "Prescott")
TESTS = (
    "tests/test_crbm.py::TestBatchedInference",
    "tests/test_encoder.py::TestDistinctIdProducts",
)
CORE = "from blas_core import blas_core; print(blas_core())"


def main() -> int:
    threads = os.environ.get("OPENBLAS_NUM_THREADS", "default")
    ok = True
    for kernel in KERNELS:
        env = dict(os.environ, OPENBLAS_CORETYPE=kernel)
        core = subprocess.run([sys.executable, "-c", CORE], cwd=ROOT / "scripts", env=env,
                              capture_output=True, text=True).stdout.strip() or "unknown"
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                          env.get("PYTHONPATH")]))
        tests = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                                *TESTS], cwd=ROOT, env=env, capture_output=True, text=True)
        summary = (tests.stdout.strip().splitlines() or ["no output"])[-1]
        print(f"{kernel:12s} core {core:12s} threads {threads}  "
              f"{'pass' if tests.returncode == 0 else 'FAIL'}  ({summary})", flush=True)
        if tests.returncode != 0:
            ok = False
            print(tests.stdout[-4000:], tests.stderr[-2000:], sep="\n", file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
