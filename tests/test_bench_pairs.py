"""scripts/bench_pairs.py refuses a workload that BENCHMARK.json does not list."""

import json
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"


def test_an_unknown_workload_exits_2_before_any_run(tmp_path):
    # a tree with no perfbench: a run would fail with exit 1, not 2
    tree = tmp_path / "tree"
    tree.mkdir()
    (tree / "BENCHMARK.json").write_text(json.dumps({
        "run_seconds": 1, "end_to_end": [], "workloads": [{"name": "synth-bench"}]}))
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), "--parent", str(tree), "--change", str(tree), "--tag", "t",
         "--out-dir", str(tmp_path), "--workloads", "synth-bench", "no-such-workload"],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2, proc.stderr
    assert "no-such-workload" in proc.stderr
    assert not (tmp_path / "BENCH_t.json").exists()
