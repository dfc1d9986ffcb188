"""Versioned single-file checkpoints: one JSON header line, then raw tensors.

Format 2, the only one written or read, is one line of JSON with fixed key
order and separators whose `tensors` list gives each tensor's `name`, `rows`
and `cols` in `Model.params()` order (a vector of length n has rows=n, cols=0).
After the newline come the tensors, row-major and back to back, as
little-endian float64 (`<f8`) bytes, so saving, reloading and saving again is
byte-identical.
"""

from __future__ import annotations

import json
import math
import os
from pathlib import Path

import numpy as np

from .encoder import EncoderConfig
from .exceptions import ConfigError, ParseError, TrainingError
from .model import Model, ModelSpec
from .text import PAD_TOKEN, UNK_TOKEN, Vocabulary

FORMAT_VERSION = 2

# the JSON type of every key the loader reads; a bool never counts as an int
_HEADER = {
    "format_version": int,
    "model_type": str,
    "n_layers": int,
    "hidden_sizes": (list, type(None)),
    "crbm_hidden": (int, type(None)),
    "encoder": dict,
    "max_len": int,
    "vocab": list,
    "labels": list,
    "tensors": list,
}
_ENCODER = {"windows": list, "filters_per_window": int, "embedding_dim": int}
_TENSOR = {"name": str, "rows": int, "cols": int}


def _is(value, kind) -> bool:
    return isinstance(value, kind) and not isinstance(value, bool)


def _checked(obj, schema: dict, where: str) -> dict:
    """`obj` if it is a JSON object with every key of `schema`, each of its type."""
    if not isinstance(obj, dict):
        raise ParseError(f"{where} is not a JSON object")
    for key, kind in schema.items():
        if key not in obj:
            raise ParseError(f"{where} has no key {key!r}")
        if not _is(obj[key], kind):
            raise ParseError(f"{where}: key {key!r} has the wrong type {type(obj[key]).__name__}")
    return obj


def _list_of(values: list, kind, where: str) -> list:
    if not all(_is(v, kind) for v in values):
        raise ParseError(f"{where} must hold only {kind.__name__} values")
    return values


def _tensor_entry(name: str, value: np.ndarray) -> dict:
    rows, cols = value.shape if value.ndim == 2 else (len(value), 0)
    return {"name": name, "rows": int(rows), "cols": int(cols)}


def save_checkpoint(model: Model, path: str | Path) -> None:
    """Write `model` to `path` in format 2; a non-finite tensor raises before any file is made.

    The bytes go to a temporary file beside `path`, renamed onto it once complete,
    so a write that fails partway leaves what was at `path` untouched."""
    for p in model.params():
        if not np.isfinite(p.value).all():
            raise TrainingError(f"tensor {p.name!r} has non-finite values; not saving {path}")
    spec = model.spec
    header = {
        "format_version": FORMAT_VERSION,
        "model_type": spec.model_type,
        "n_layers": spec.n_layers,
        "hidden_sizes": list(spec.hidden_sizes) if spec.hidden_sizes else None,
        "crbm_hidden": spec.crbm_hidden,
        "encoder": {
            "windows": list(spec.encoder.windows),
            "filters_per_window": spec.encoder.filters_per_window,
            "embedding_dim": spec.encoder.embedding_dim,
        },
        "max_len": spec.max_len,
        "vocab": model.vocab.id_to_token,
        "labels": model.labels,
        "tensors": [_tensor_entry(p.name, p.value) for p in model.params()],
    }
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(json.dumps(header, separators=(",", ":")).encode("utf-8") + b"\n")
            for p in model.params():
                fh.write(np.ascontiguousarray(p.value, "<f8").data)
        os.replace(tmp, path)
    except OSError as e:  # name the checkpoint, not the temporary file
        raise OSError(e.errno, e.strerror, str(path)) from None
    finally:
        tmp.unlink(missing_ok=True)


def read_checkpoint(path: str | Path) -> tuple[dict, dict[str, np.ndarray]]:
    """The schema-checked header of a checkpoint and its tensors by name, shaped
    (rows,) or (rows, cols); malformed or non-finite content raises ParseError."""
    path = Path(path)
    if not path.exists():
        raise ParseError(f"checkpoint file not found: {path}")
    head, _, payload = path.read_bytes().partition(b"\n")
    try:
        header = json.loads(head.decode("utf-8"))
    except (ValueError, RecursionError) as e:  # not UTF-8, not JSON, past decoder limits
        raise ParseError(f"{path}: invalid checkpoint JSON ({getattr(e, 'msg', e)})")
    if not isinstance(header, dict):
        raise ParseError(f"{path}: checkpoint is not a JSON object")
    version = header.get("format_version")
    if version != FORMAT_VERSION:
        raise ParseError(f"{path}: unsupported checkpoint version {version}")
    _checked(header, _HEADER, f"{path}: checkpoint")
    _checked(header["encoder"], _ENCODER, f"{path}: encoder")
    entries = [_checked(e, _TENSOR, f"{path}: tensors[{i}]") for i, e in enumerate(header["tensors"])]
    if any(e["rows"] < 0 or e["cols"] < 0 for e in entries):
        raise ParseError(f"{path}: tensor rows and cols must not be negative")
    sizes = [e["rows"] * max(e["cols"], 1) for e in entries]
    expected = 8 * sum(sizes)
    if len(payload) != expected:
        raise ParseError(f"{path}: {len(payload)} bytes follow the header, expected {expected}")
    flat, tensors, offset = np.frombuffer(payload, "<f8"), {}, 0
    for entry, size in zip(entries, sizes):
        name = entry["name"]
        if name in tensors:
            raise ParseError(f"{path}: duplicate tensor name {name!r}")
        values, offset = flat[offset:offset + size], offset + size
        shape = (entry["rows"],) if entry["cols"] == 0 else (entry["rows"], entry["cols"])
        if not np.isfinite(values).all():
            raise ParseError(f"{path}: tensor {name!r} has non-finite values")
        tensors[name] = values.reshape(shape)
    return header, tensors


class _Unfilled:
    """Stands in for SeededRng when a model is built only to be filled from a
    checkpoint: each draw is an uninitialised array, overwritten before use.

    The draws share a budget of the values the file holds, so header sizes
    that its tensors could not fill raise before their arrays are allocated."""

    def __init__(self, path: str | Path, budget: int):
        self.path, self.budget = path, budget

    def spawn(self, tag: int) -> "_Unfilled":
        return self

    def uniform(self, lo: float, hi: float, size) -> np.ndarray:
        self.budget -= math.prod(size)
        if self.budget < 0:
            raise ParseError(f"{self.path}: the header's sizes need more values than the file holds")
        return np.empty(size)


def load_checkpoint(path: str | Path) -> Model:
    """The model saved at `path`; malformed or non-finite content raises ParseError."""
    header, tensors = read_checkpoint(path)
    enc = header["encoder"]
    tokens = _list_of(header["vocab"], str, f"{path}: vocab")
    if tokens[:2] != [PAD_TOKEN, UNK_TOKEN] or len(set(tokens)) != len(tokens):
        raise ParseError(f"{path}: vocab must be distinct tokens starting {PAD_TOKEN}, {UNK_TOKEN}")
    labels = _list_of(header["labels"], str, f"{path}: labels")
    if not labels or len(set(labels)) != len(labels):
        raise ParseError(f"{path}: labels must be distinct and at least one")
    hidden = header["hidden_sizes"]
    if header["n_layers"] > len(tensors):  # every layer holds at least one tensor
        raise ParseError(f"{path}: {header['n_layers']} layers but {len(tensors)} tensors")

    try:
        spec = ModelSpec(
            model_type=header["model_type"],
            encoder=EncoderConfig(
                windows=tuple(_list_of(enc["windows"], int, f"{path}: encoder windows")),
                filters_per_window=enc["filters_per_window"],
                embedding_dim=enc["embedding_dim"],
            ),
            max_len=header["max_len"],
            n_layers=header["n_layers"],
            hidden_sizes=tuple(_list_of(hidden, int, f"{path}: hidden_sizes")) if hidden else None,
            crbm_hidden=header["crbm_hidden"],
        )
    except ConfigError as e:  # a header value the spec refuses
        raise ParseError(f"{path}: {e}") from e
    vocab = Vocabulary({t: i for i, t in enumerate(tokens)}, list(tokens))
    budget = sum(values.size for values in tensors.values())
    model = Model.build(spec, vocab, list(labels), _Unfilled(path, budget))

    for p in model.params():
        if p.name not in tensors:
            raise ParseError(f"{path}: missing tensor {p.name!r}")
        values = tensors.pop(p.name)
        if values.shape != p.value.shape:
            raise ParseError(
                f"{path}: tensor {p.name!r} has shape {values.shape}, expected {p.value.shape}"
            )
        p.value[...] = values
    if tensors:
        raise ParseError(f"{path}: unexpected tensors {sorted(tensors)}")
    return model
