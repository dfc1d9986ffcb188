"""Self-test of the benchmark at tiny input sizes.

    python3 -m pytest -q perfbench/test_bench.py

Each workload runs in its own process, as the benchmark is meant to be run.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(workload: str, trace: int, cwd: Path = ROOT, seed: int = 7):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0.5", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def result_lines(proc) -> tuple[dict, dict]:
    assert proc.returncode == 0, proc.stderr
    *_, info, last = proc.stdout.strip().splitlines()
    return json.loads(info)["info"], json.loads(last)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed_with_its_unit(workload):
    digests = set()
    for trace, listed in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
        info, result = result_lines(bench(workload, trace))
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert {name: m["unit"] for name, m in result["metrics"].items()} == {
            m["name"]: m["unit"] for m in listed
        }
        assert all(isinstance(m["value"], float) for m in result["metrics"].values())
        digests.add(info["digest"])
    # the traced run also checks its traced pass against its own untraced pass
    assert len(digests) == 1


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_runs", "__pycache__"))
    proc = bench(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
