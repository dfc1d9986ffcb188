"""scripts/output_deltas.py on small hand-made output directories."""

import json
import struct
import subprocess
import sys
from pathlib import Path

from convres.checkpoint import save_checkpoint
from toymodels import build_toy_model

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


def test_checkpoints_compare_by_header_and_tensor_values(tmp_path):
    v2 = tmp_path / "v2.ckpt"
    save_checkpoint(build_toy_model("logistic")[0], v2)
    head, _, payload = v2.read_bytes().partition(b"\n")
    # the first value is the padding row's 0.0
    perturbed = head + b"\n" + struct.pack("<d", 0.25) + payload[8:]
    header = json.loads(head)
    header["tensors"][-1]["name"] = "head_bias"
    renamed = json.dumps(header, separators=(",", ":")).encode("utf-8") + b"\n" + payload
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    for name, bytes_a, bytes_b in [("perturbed.ckpt", v2.read_bytes(), perturbed),
                                   ("renamed.ckpt", v2.read_bytes(), renamed)]:
        (a / name).write_bytes(bytes_a)
        (b / name).write_bytes(bytes_b)
    rc, lines = _run(a, b)
    assert rc == 1
    assert lines == ["perturbed.ckpt  0.25", "renamed.ckpt  structure differs"]
