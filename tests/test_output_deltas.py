"""scripts/output_deltas.py on small hand-made output directories."""

import json
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "output_deltas.py"


def _run(a: Path, b: Path) -> tuple[int, list[str]]:
    proc = subprocess.run([sys.executable, str(SCRIPT), str(a), str(b)],
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout.splitlines()


def _write(root: Path, files: dict) -> Path:
    root.mkdir()
    for name, text in files.items():
        (root / name).write_text(text, encoding="utf-8")
    return root


def test_largest_float_difference_per_changed_file(tmp_path):
    same = json.dumps({"x": [1.0, 2.0]})
    a = _write(tmp_path / "a", {
        "m.ckpt": json.dumps({"n": 3, "w": [0.5, -0.25], "name": "crbm_w"}),
        "h.jsonl": '{"loss": 0.5}\n{"loss": 0.25}\n',
        "same.json": same,
        "only_a.json": "{}",
    })
    b = _write(tmp_path / "b", {
        "m.ckpt": json.dumps({"n": 3, "w": [0.5, -0.375], "name": "crbm_w"}),
        "h.jsonl": '{"loss": 0.5}\n{"loss": 0.3125}\n',
        "same.json": same,
    })
    rc, lines = _run(a, b)
    assert rc == 0
    assert lines == ["h.jsonl  0.0625", "m.ckpt  0.125"]


def test_structure_and_non_json_changes_are_named(tmp_path):
    a = _write(tmp_path / "a", {
        "keys.json": json.dumps({"a": 1.0}),
        "ints.json": json.dumps({"epoch": 1}),
        "lengths.jsonl": "[1.0, 2.0]\n",
        "strings.json": json.dumps(["label01"]),
        "labels": "label00\n",
    })
    b = _write(tmp_path / "b", {
        "keys.json": json.dumps({"b": 1.0}),
        "ints.json": json.dumps({"epoch": 2}),
        "lengths.jsonl": "[1.0]\n",
        "strings.json": json.dumps(["label02"]),
        "labels": "label01\n",
    })
    rc, lines = _run(a, b)
    assert rc == 1
    assert lines == [
        "ints.json  structure differs",
        "keys.json  structure differs",
        "labels  not JSON",
        "lengths.jsonl  structure differs",
        "strings.json  structure differs",
    ]
