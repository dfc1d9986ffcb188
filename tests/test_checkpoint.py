"""The checkpoint boundary: schema, finiteness and fuzzed files."""

import copy
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convres.checkpoint import load_checkpoint, save_checkpoint
from convres.cli import main
from convres.exceptions import ConvresError, ParseError, TrainingError
from convres.model import Model
from toymodels import TOY_TOKENS, build_toy_model


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    """A tiny logistic checkpoint, its parsed JSON and a corpus it can score."""
    work = tmp_path_factory.mktemp("ckpt")
    model, _ = build_toy_model("logistic")
    path = work / "model.ckpt"
    save_checkpoint(model, path)
    corpus = work / "corpus.jsonl"
    corpus.write_text("".join(
        json.dumps({"text": " ".join(TOY_TOKENS[i:] + TOY_TOKENS[:i]), "labels": [f"label{i % 4}"]})
        + "\n" for i in range(8)
    ))
    return path, json.loads(path.read_text()), corpus


def _write(obj, path):
    path.write_text(json.dumps(obj, separators=(",", ":")) + "\n")
    return path


def _evaluate(ckpt, corpus, capsys):
    rc = main(["evaluate", "--checkpoint", str(ckpt), "--corpus", str(corpus)])
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_file_is_what_json_dump_writes(tmp_path, saved):
    path, obj, _ = saved
    ref = tmp_path / "ref.ckpt"
    with open(ref, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, separators=(",", ":"))
        fh.write("\n")
    assert path.read_bytes() == ref.read_bytes()
    model = load_checkpoint(path)
    tensors = {t["name"]: t["values"] for t in obj["tensors"]}
    for p in model.params():
        assert tensors[p.name] == [float(v) for v in p.value.reshape(-1)]


def test_missing_encoder_exits_1_naming_the_key(tmp_path, saved, capsys):
    _, obj, corpus = saved
    obj = copy.deepcopy(obj)
    del obj["encoder"]
    rc, out, err = _evaluate(_write(obj, tmp_path / "m.ckpt"), corpus, capsys)
    assert rc == 1 and out == ""
    assert err.startswith("error:") and "'encoder'" in err and err.count("\n") == 1


@pytest.mark.parametrize("where, key", [
    ("top", "labels"), ("top", "tensors"), ("encoder", "windows"),
    ("encoder", "embedding_dim"), ("tensor", "name"), ("tensor", "rows"),
    ("tensor", "cols"), ("tensor", "values"),
])
@pytest.mark.parametrize("change", ["delete", "retype"])
def test_schema_errors_name_the_key(tmp_path, saved, where, key, change):
    _, obj, _ = saved
    obj = copy.deepcopy(obj)
    owner = {"top": obj, "encoder": obj["encoder"], "tensor": obj["tensors"][1]}[where]
    if change == "delete":
        del owner[key]
    else:
        owner[key] = {"a": 1}
    with pytest.raises(ParseError, match=repr(key)):
        load_checkpoint(_write(obj, tmp_path / "m.ckpt"))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_tensor_is_rejected_on_load(tmp_path, saved, capsys, bad):
    _, obj, corpus = saved
    obj = copy.deepcopy(obj)
    entry = next(t for t in obj["tensors"] if t["name"] == "head_b0")
    entry["values"][0] = bad
    ckpt = _write(obj, tmp_path / "m.ckpt")
    with pytest.raises(ParseError, match="'head_b0'"):
        load_checkpoint(ckpt)
    rc, out, err = _evaluate(ckpt, corpus, capsys)
    assert rc == 1 and out == "" and err.count("\n") == 1


def test_non_finite_tensor_is_refused_on_save(tmp_path, saved):
    model = load_checkpoint(saved[0])
    model.head.params()[0].value[0, 0] = math.nan
    out = tmp_path / "m.ckpt"
    with pytest.raises(TrainingError, match=repr(model.head.params()[0].name)):
        save_checkpoint(model, out)
    assert not out.exists()


def _key_paths(obj):
    """(owner, key) for every key the loader reads: top level, encoder, tensor entries."""
    paths = [(obj, k) for k in obj]
    paths += [(obj["encoder"], k) for k in obj["encoder"]]
    paths += [(entry, k) for entry in obj["tensors"] for k in entry]
    return paths


_JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3), st.floats(), st.text(max_size=3),
    st.lists(st.integers(-1, 3), max_size=3), st.dictionaries(st.text(max_size=2), st.none(), max_size=1),
)


@st.composite
def _mutations(draw):
    kind = draw(st.sampled_from(["delete", "retype", "non-finite", "shape", "truncate"]))
    if kind in ("delete", "retype"):
        return kind, draw(st.integers(0, 10_000)), draw(_JSON_VALUES)
    if kind == "non-finite":
        return kind, draw(st.integers(0, 10_000)), draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    if kind == "shape":
        return kind, draw(st.integers(0, 10_000)), (draw(st.sampled_from(["rows", "cols"])),
                                                     draw(st.integers(-2, 2)))
    return kind, draw(st.floats(0.0, 1.0)), None


def _mutated_text(obj, mutation) -> str:
    kind, where, arg = mutation
    obj = copy.deepcopy(obj)
    if kind == "truncate":
        text = json.dumps(obj, separators=(",", ":")) + "\n"
        return text[: int(where * len(text))]
    if kind in ("delete", "retype"):
        paths = _key_paths(obj)
        owner, key = paths[where % len(paths)]
        if kind == "delete":
            del owner[key]
        else:
            owner[key] = arg
    else:
        entry = obj["tensors"][where % len(obj["tensors"])]
        if kind == "non-finite":
            entry["values"][where % len(entry["values"])] = arg
        else:
            entry[arg[0]] += arg[1]
    return json.dumps(obj, separators=(",", ":")) + "\n"


@given(_mutations())
@settings(max_examples=60, deadline=None)
def test_fuzzed_checkpoint_loads_or_raises_a_library_error(saved, mutation):
    path = saved[0].with_name("fuzzed.ckpt")
    path.write_text(_mutated_text(saved[1], mutation))
    try:
        loaded = load_checkpoint(path)
    except ConvresError:
        return
    assert isinstance(loaded, Model)
    assert all(np.isfinite(p.value).all() for p in loaded.params())
