"""Versioned single-file checkpoints: a JSON header plus decimal tensor payloads.

The file is one JSON object written with fixed key order and separators, so
saving, reloading and saving again produces byte-identical output. Tensors
are stored row-major; a vector of length n is recorded with rows=n, cols=0.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .encoder import EncoderConfig
from .exceptions import ParseError, TrainingError
from .model import Model, ModelSpec
from .numeric import SeededRng
from .text import PAD_TOKEN, UNK_TOKEN, Vocabulary

FORMAT_VERSION = 1

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
_TENSOR = {"name": str, "rows": int, "cols": int, "values": list}


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
    if value.ndim == 1:
        rows, cols = value.shape[0], 0
    else:
        rows, cols = value.shape
    return {
        "name": name,
        "rows": int(rows),
        "cols": int(cols),
        "values": value.reshape(-1).tolist(),
    }


def save_checkpoint(model: Model, path: str | Path) -> None:
    """Write `model` to `path`; a non-finite tensor raises before the file is opened."""
    for p in model.params():
        if not np.isfinite(p.value).all():
            raise TrainingError(f"tensor {p.name!r} has non-finite values; not saving {path}")
    spec = model.spec
    obj = {
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
    # one json.dumps and one write: json.dump streams the text in small chunks
    text = json.dumps(obj, separators=(",", ":"))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
        fh.write("\n")


def load_checkpoint(path: str | Path) -> Model:
    """The model saved at `path`; malformed or non-finite content raises ParseError."""
    path = Path(path)
    if not path.exists():
        raise ParseError(f"checkpoint file not found: {path}")
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except (ValueError, RecursionError) as e:  # not UTF-8, not JSON, past decoder limits
            raise ParseError(f"{path}: invalid checkpoint JSON ({getattr(e, 'msg', e)})")
    if not isinstance(obj, dict):
        raise ParseError(f"{path}: checkpoint is not a JSON object")
    if obj.get("format_version") != FORMAT_VERSION:
        raise ParseError(f"{path}: unsupported checkpoint version {obj.get('format_version')}")
    _checked(obj, _HEADER, f"{path}: checkpoint")
    enc = _checked(obj["encoder"], _ENCODER, f"{path}: encoder")
    tokens = _list_of(obj["vocab"], str, f"{path}: vocab")
    if tokens[:2] != [PAD_TOKEN, UNK_TOKEN] or len(set(tokens)) != len(tokens):
        raise ParseError(f"{path}: vocab must be distinct tokens starting {PAD_TOKEN}, {UNK_TOKEN}")
    labels = _list_of(obj["labels"], str, f"{path}: labels")
    if not labels or len(set(labels)) != len(labels):
        raise ParseError(f"{path}: labels must be distinct and at least one")
    hidden = obj["hidden_sizes"]

    spec = ModelSpec(
        model_type=obj["model_type"],
        encoder=EncoderConfig(
            windows=tuple(_list_of(enc["windows"], int, f"{path}: encoder windows")),
            filters_per_window=enc["filters_per_window"],
            embedding_dim=enc["embedding_dim"],
        ),
        max_len=obj["max_len"],
        n_layers=obj["n_layers"],
        hidden_sizes=tuple(_list_of(hidden, int, f"{path}: hidden_sizes")) if hidden else None,
        crbm_hidden=obj["crbm_hidden"],
    )
    vocab = Vocabulary({t: i for i, t in enumerate(tokens)}, list(tokens))
    model = Model.build(spec, vocab, list(labels), SeededRng(0))

    by_name = {}
    for i, entry in enumerate(obj["tensors"]):
        entry = _checked(entry, _TENSOR, f"{path}: tensors[{i}]")
        if entry["name"] in by_name:
            raise ParseError(f"{path}: duplicate tensor name {entry['name']!r}")
        by_name[entry["name"]] = entry
    for p in model.params():
        if p.name not in by_name:
            raise ParseError(f"{path}: missing tensor {p.name!r}")
        entry = by_name.pop(p.name)
        shape = (entry["rows"],) if entry["cols"] == 0 else (entry["rows"], entry["cols"])
        try:
            values = np.array(entry["values"], dtype=np.float64)
        except (TypeError, ValueError, OverflowError):
            values = None
        if values is None or values.ndim != 1:
            raise ParseError(f"{path}: tensor {p.name!r} values must be a list of numbers")
        if values.size != int(np.prod(shape)) or shape != p.value.shape:
            raise ParseError(
                f"{path}: tensor {p.name!r} has shape {shape}, expected {p.value.shape}"
            )
        if not np.isfinite(values).all():
            raise ParseError(f"{path}: tensor {p.name!r} has non-finite values")
        p.value[...] = values.reshape(shape)
    if by_name:
        raise ParseError(f"{path}: unexpected tensors {sorted(by_name)}")
    return model
