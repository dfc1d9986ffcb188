"""scripts/blas_core.py in a child process, whose environment sets the BLAS thread count."""

import os
import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
REPORT = "from blas_core import blas_core, blas_threads; print(blas_core(), blas_threads())"


def test_thread_count_is_the_one_the_environment_sets():
    proc = subprocess.run([sys.executable, "-c", REPORT], cwd=SCRIPTS, capture_output=True,
                          text=True, check=True, env=dict(os.environ, OPENBLAS_NUM_THREADS="1"))
    core, threads = proc.stdout.split()
    # under a BLAS other than numpy's bundled scipy-openblas neither is known
    assert threads == ("unknown" if core == "unknown" else "1")
