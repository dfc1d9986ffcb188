#!/usr/bin/env python3
"""Print how far the numbers of two runs' output files lie apart.

Usage:
    python3 scripts/output_deltas.py DIR_A DIR_B

For each file name present in both directories whose bytes differ, both
copies are parsed as a checkpoint, or else as JSON, or else as JSON Lines,
and walked together. A checkpoint is its header and its tensors by name as
float64. One line is printed per such file:

    file  max|Δ|              the largest absolute difference of their numbers
    file  structure differs   keys, lengths, strings, integers or types differ
    file  not JSON            either copy parses as neither

Meant for two `identity_digest.py` output directories, after a `diff` of
their digests names the files that moved. Exits 1 if any file is printed
with `structure differs` or `not JSON`, else 0.
"""

import json
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from convres.checkpoint import read_checkpoint  # noqa: E402
from convres.exceptions import ConvresError  # noqa: E402


class StructureDiffers(Exception):
    pass


def parse(path: Path):
    try:
        return list(read_checkpoint(path))
    except ConvresError:
        pass
    text = path.read_text(encoding="utf-8")
    try:
        return json.loads(text)
    except ValueError:
        return [json.loads(line) for line in text.splitlines() if line.strip()]


def max_delta(a, b) -> float:
    """Largest |a - b| over the floats of two parsed values of one structure."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        if not (isinstance(a, np.ndarray) and isinstance(b, np.ndarray)) or a.shape != b.shape:
            raise StructureDiffers
        return float(np.abs(a - b).max(initial=0.0))
    if isinstance(a, float) or isinstance(b, float):
        if not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (a, b)):
            raise StructureDiffers
        return 0.0 if a == b else abs(a - b)
    if type(a) is not type(b):
        raise StructureDiffers
    if isinstance(a, dict):
        if a.keys() != b.keys():
            raise StructureDiffers
        return max((max_delta(a[k], b[k]) for k in a), default=0.0)
    if isinstance(a, list):
        if len(a) != len(b):
            raise StructureDiffers
        return max((max_delta(x, y) for x, y in zip(a, b)), default=0.0)
    if a != b:  # strings, integers, booleans, null
        raise StructureDiffers
    return 0.0


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    dir_a, dir_b = Path(sys.argv[1]), Path(sys.argv[2])
    status = 0
    for path_a in sorted(p for p in dir_a.iterdir() if p.is_file()):
        path_b = dir_b / path_a.name
        if not path_b.is_file() or path_a.read_bytes() == path_b.read_bytes():
            continue
        try:
            verdict = f"{max_delta(parse(path_a), parse(path_b)):.3g}"
        except StructureDiffers:
            verdict, status = "structure differs", 1
        except ValueError:
            verdict, status = "not JSON", 1
        print(f"{path_a.name}  {verdict}")
    return status


if __name__ == "__main__":
    sys.exit(main())
