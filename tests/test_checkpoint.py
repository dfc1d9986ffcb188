"""The checkpoint boundary: layout, schema, finiteness and fuzzed files."""

import copy
import json
import math
import re
import struct
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convres.checkpoint import load_checkpoint, read_checkpoint, save_checkpoint
from convres.cli import main
from convres.exceptions import ConvresError, ParseError, TrainingError
from convres.model import Model
from convres.numeric import SeededRng
from toymodels import TOY_TOKENS, build_toy_model


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    """The same toy model saved in format 2, its header, its payload and a corpus it can score."""
    work = tmp_path_factory.mktemp("ckpt")
    model, _ = build_toy_model("logistic")
    path = work / "model.ckpt"
    save_checkpoint(model, path)
    corpus = work / "corpus.jsonl"
    corpus.write_text("".join(
        json.dumps({"text": " ".join(TOY_TOKENS[i:] + TOY_TOKENS[:i]), "labels": [f"label{i % 4}"]})
        + "\n" for i in range(8)
    ))
    head, _, payload = path.read_bytes().partition(b"\n")
    return path, json.loads(head), payload, corpus


def _fresh(saved):
    """(header object, payload) of the saved toy model, the header a fresh copy."""
    return copy.deepcopy(saved[1]), saved[2]


def _write(path, obj, payload=b""):
    """A checkpoint file: `obj` as one compact JSON line, then `payload`."""
    path.write_bytes(json.dumps(obj, separators=(",", ":")).encode("utf-8") + b"\n" + payload)
    return path


def _offset(header, name) -> int:
    """Where tensor `name` starts in a format-2 payload."""
    at = 0
    for t in header["tensors"]:
        if t["name"] == name:
            return at
        at += 8 * t["rows"] * max(t["cols"], 1)
    raise KeyError(name)


def _with_value(payload: bytes, at: int, value: bytes) -> bytes:
    return payload[:at] + value + payload[at + len(value):]


def _evaluate(ckpt, corpus, capsys):
    rc = main(["evaluate", "--checkpoint", str(ckpt), "--corpus", str(corpus)])
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_file_is_json_header_line_then_f8_payload(saved):
    path, header, _, _ = saved
    model, _ = build_toy_model("logistic")
    params = model.params()
    assert header["format_version"] == 2
    assert header["tensors"] == [
        {"name": p.name, "rows": p.value.shape[0], "cols": p.value.shape[1] if p.value.ndim == 2 else 0}
        for p in params
    ]
    line = json.dumps(header, separators=(",", ":")).encode("utf-8") + b"\n"
    payload = np.concatenate([p.value.reshape(-1) for p in params]).astype("<f8").tobytes()
    assert path.read_bytes() == line + payload
    _, tensors = read_checkpoint(path)
    assert list(tensors) == [p.name for p in params]
    assert all(np.array_equal(tensors[p.name], p.value) for p in params)


@pytest.mark.parametrize("command", ["evaluate", "predict", "encode"])
def test_any_other_format_version_exits_1_naming_the_file(tmp_path, saved, capsys, command):
    # format 1 held each tensor inline as a decimal `values` list; it is no longer read
    obj, payload = _fresh(saved)
    obj["format_version"] = 1
    ckpt = _write(tmp_path / "m.ckpt", obj, payload)
    argv = [command, "--checkpoint", str(ckpt), "--corpus", str(saved[3])]
    out_file = tmp_path / "out.jsonl"
    rc = main(argv if command == "evaluate" else argv + ["--out", str(out_file)])
    out, err = capsys.readouterr()
    assert rc == 1 and out == "" and not out_file.exists()
    assert err == f"error: {ckpt}: unsupported checkpoint version 1\n"


def test_missing_encoder_exits_1_naming_the_key(tmp_path, saved, capsys):
    obj, payload = _fresh(saved)
    del obj["encoder"]
    rc, out, err = _evaluate(_write(tmp_path / "m.ckpt", obj, payload), saved[3], capsys)
    assert rc == 1 and out == ""
    assert err.startswith("error:") and "'encoder'" in err and err.count("\n") == 1


@pytest.mark.parametrize("where, key", [
    ("top", "labels"), ("top", "tensors"), ("encoder", "windows"),
    ("encoder", "embedding_dim"), ("tensor", "name"), ("tensor", "rows"),
    ("tensor", "cols"),
])
@pytest.mark.parametrize("change", ["delete", "retype"])
def test_schema_errors_name_the_key(tmp_path, saved, where, key, change):
    obj, payload = _fresh(saved)
    owner = {"top": obj, "encoder": obj["encoder"], "tensor": obj["tensors"][1]}[where]
    if change == "delete":
        del owner[key]
    else:
        owner[key] = {"a": 1}
    with pytest.raises(ParseError, match=repr(key)):
        load_checkpoint(_write(tmp_path / "m.ckpt", obj, payload))


@pytest.mark.parametrize("cut", [-8, -1, 1, 8, "all"])
def test_payload_of_the_wrong_length_names_the_file(tmp_path, saved, capsys, cut):
    _, header, payload, corpus = saved
    if cut == "all":
        ckpt = _write(tmp_path / "m.ckpt", header)
    else:
        ckpt = _write(tmp_path / "m.ckpt", header, payload[:cut] if cut < 0 else payload + b"\0" * cut)
    with pytest.raises(ParseError, match=re.escape(str(ckpt)) + ".*bytes follow the header"):
        load_checkpoint(ckpt)
    rc, out, err = _evaluate(ckpt, corpus, capsys)
    assert rc == 1 and out == "" and str(ckpt) in err and err.count("\n") == 1


def test_payload_without_its_newline_is_refused(tmp_path, saved):
    path = tmp_path / "m.ckpt"
    path.write_bytes(saved[0].read_bytes().replace(b"\n", b"", 1))
    with pytest.raises(ParseError, match=re.escape(str(path))):
        load_checkpoint(path)


def test_payload_of_the_wrong_shape_is_refused(tmp_path, saved):
    # one more row for the embedding, and the bytes for it: the length adds up, the shape does not
    _, header, payload, _ = saved
    header = copy.deepcopy(header)
    emb = header["tensors"][0]
    end = 8 * emb["rows"] * emb["cols"]
    emb["rows"] += 1
    payload = payload[:end] + bytes(8 * emb["cols"]) + payload[end:]
    ckpt = _write(tmp_path / "m.ckpt", header, payload)
    assert read_checkpoint(ckpt)[1]["embedding"].shape == (emb["rows"], emb["cols"])
    with pytest.raises(ParseError, match="'embedding' has shape"):
        load_checkpoint(ckpt)


@pytest.mark.parametrize("key", ["rows", "cols"])
def test_negative_rows_or_cols_are_refused(tmp_path, saved, key):
    # conv_b2 is a vector of 3: cols -2 keeps its size 3 * max(-2, 1) and the payload's length
    obj, payload = _fresh(saved)
    entry = next(t for t in obj["tensors"] if t["name"] == "conv_b2")
    entry[key] = -2 if key == "cols" else -entry["rows"]
    with pytest.raises(ParseError, match="must not be negative"):
        read_checkpoint(_write(tmp_path / "m.ckpt", obj, payload))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_tensor_is_rejected_on_load(tmp_path, saved, capsys, bad):
    obj, payload = _fresh(saved)
    payload = _with_value(payload, _offset(obj, "head_b0"), struct.pack("<d", bad))
    ckpt = _write(tmp_path / "m.ckpt", obj, payload)
    with pytest.raises(ParseError, match="'head_b0'"):
        load_checkpoint(ckpt)
    rc, out, err = _evaluate(ckpt, saved[3], capsys)
    assert rc == 1 and out == "" and err.count("\n") == 1


def test_non_finite_tensor_is_refused_on_save(tmp_path, saved):
    model = load_checkpoint(saved[0])
    model.head.params()[0].value[0, 0] = math.nan
    out = tmp_path / "m.ckpt"
    with pytest.raises(TrainingError, match=repr(model.head.params()[0].name)):
        save_checkpoint(model, out)
    assert not out.exists()


@pytest.mark.parametrize("fault", [OSError(28, "No space left on device"), KeyboardInterrupt()])
def test_write_failing_partway_leaves_the_old_file(tmp_path, saved, fault):
    out = tmp_path / "m.ckpt"
    save_checkpoint(build_toy_model("residual")[0], out)
    old = out.read_bytes()
    seen = []

    class FailingFile:
        """The file being saved to, whose third write (the second tensor) fails:
        the disk fills, or the user interrupts."""

        def __init__(self, path, mode):
            self.fh = open(path, mode)
            self.writes = 0

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, data):
            self.writes += 1
            if self.writes == 3:
                seen.extend(p.name for p in tmp_path.iterdir() if p != out)
                raise fault
            return self.fh.write(data)

    model = load_checkpoint(saved[0])
    with mock.patch("convres.checkpoint.open", FailingFile, create=True):
        with pytest.raises(type(fault)):
            save_checkpoint(model, out)
    # the header and the first tensor were going to a temporary file beside the target
    assert len(seen) == 1 and seen[0].startswith(".m.ckpt.")
    assert out.read_bytes() == old
    assert list(tmp_path.iterdir()) == [out]


def test_save_into_a_missing_directory_names_the_checkpoint(tmp_path, saved):
    out = tmp_path / "nodir" / "m.ckpt"
    with pytest.raises(FileNotFoundError) as exc:
        save_checkpoint(load_checkpoint(saved[0]), out)
    assert exc.value.filename == str(out) and ".tmp" not in str(exc.value)
    assert list(tmp_path.iterdir()) == []


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
# all exponent bits set: +-inf with a zero mantissa, a NaN with any other
_NON_FINITE_BITS = st.builds(lambda sign, mantissa: sign << 63 | 0x7FF << 52 | mantissa,
                             st.integers(0, 1), st.integers(0, 2**52 - 1))


@st.composite
def _mutations(draw):
    kind = draw(st.sampled_from(["delete", "retype", "non-finite", "shape", "truncate", "append",
                                 "no-newline", "non-utf8"]))
    where = draw(st.integers(0, 100_000))
    arg = {
        "delete": st.none(),
        "retype": _JSON_VALUES,
        "non-finite": _NON_FINITE_BITS,
        "shape": st.tuples(st.sampled_from(["rows", "cols"]), st.integers(-2, 2)),
        "truncate": st.none(),
        "append": st.binary(min_size=1, max_size=16),
        "no-newline": st.none(),
        "non-utf8": st.sampled_from([b"\xff", b"\xfe", b"\x80", b"\xc3"]),
    }[kind]
    return kind, where, draw(arg)


def _mutated_bytes(saved, mutation) -> bytes:
    kind, where, arg = mutation
    obj, payload = _fresh(saved)
    entry = obj["tensors"][where % len(obj["tensors"])]
    if kind in ("delete", "retype"):
        paths = _key_paths(obj)
        owner, key = paths[where % len(paths)]
        if kind == "delete":
            del owner[key]
        else:
            owner[key] = arg
    elif kind == "non-finite":
        index = where % (entry["rows"] * max(entry["cols"], 1))
        payload = _with_value(payload, _offset(obj, entry["name"]) + 8 * index,
                              struct.pack("<Q", arg))
    elif kind == "shape":
        entry[arg[0]] += arg[1]
    data = json.dumps(obj, separators=(",", ":")).encode("utf-8") + b"\n" + payload
    if kind == "truncate":
        return data[: where % (len(data) + 1)]
    if kind == "append":
        return data + arg
    if kind == "no-newline":
        return data.replace(b"\n", b"", 1)
    if kind == "non-utf8":
        at = where % data.index(b"\n")
        return data[:at] + arg + data[at:]
    return data


@given(_mutations())
@settings(max_examples=200, deadline=None)
def test_fuzzed_checkpoint_loads_or_raises_a_library_error(saved, mutation):
    path = saved[0].with_name("fuzzed.ckpt")
    path.write_bytes(_mutated_bytes(saved, mutation))
    try:
        loaded = load_checkpoint(path)
    except ConvresError:
        return
    assert isinstance(loaded, Model)
    assert all(np.isfinite(p.value).all() for p in loaded.params())


def test_load_draws_no_random_init(saved, monkeypatch):
    """The model a checkpoint fills is built without drawing its initial values."""
    def no_draws(*args, **kwargs):
        raise AssertionError("load_checkpoint drew random values")

    monkeypatch.setattr(SeededRng, "uniform", no_draws)
    model = load_checkpoint(saved[0])
    assert all(np.isfinite(p.value).all() for p in model.params())


def test_a_checkpoint_without_a_tensor_names_it(tmp_path, saved):
    obj, payload = _fresh(saved)
    at, entry = _offset(obj, "head_b0"), obj["tensors"].pop()
    assert entry["name"] == "head_b0"
    ckpt = _write(tmp_path / "m.ckpt", obj, payload[:at])
    with pytest.raises(ParseError, match=re.escape(str(ckpt)) + ": missing tensor 'head_b0'"):
        load_checkpoint(ckpt)


@pytest.mark.parametrize("model_type, where, key", [
    ("logistic", "encoder", "filters_per_window"),
    ("logistic", "encoder", "embedding_dim"),
    ("crbm", "top", "crbm_hidden"),
    ("residual", "top", "n_layers"),
])
def test_header_sizes_past_the_file_exit_1_before_allocating(
    tmp_path, capsys, model_type, where, key
):
    model, _ = build_toy_model(model_type)
    ckpt = tmp_path / "m.ckpt"
    save_checkpoint(model, ckpt)
    head, _, payload = ckpt.read_bytes().partition(b"\n")
    obj = json.loads(head)
    if key == "n_layers":  # with no hidden sizes, each layer is n_labels wide
        obj["hidden_sizes"] = None
    {"top": obj, "encoder": obj["encoder"]}[where][key] = 10**12
    _write(ckpt, obj, payload)
    with pytest.raises(ParseError, match=re.escape(str(ckpt))):
        load_checkpoint(ckpt)
    corpus = tmp_path / "c.jsonl"
    corpus.write_text(json.dumps({"text": " ".join(TOY_TOKENS), "labels": []}) + "\n")
    rc = main(["predict", "--checkpoint", str(ckpt), "--corpus", str(corpus),
               "--out", str(tmp_path / "top.jsonl")])
    err = capsys.readouterr().err
    assert rc == 1 and err.startswith("error:") and err.count("\n") == 1


def test_crbm_hidden_on_another_head_exits_1(tmp_path, saved, capsys):
    # the field sizes only the CRBM; on any other head it would be carried along unread
    obj, payload = _fresh(saved)
    obj["crbm_hidden"] = 7
    ckpt = _write(tmp_path / "m.ckpt", obj, payload)
    with pytest.raises(ParseError, match=f"^{re.escape(str(ckpt))}: .*no CRBM hidden units"):
        load_checkpoint(ckpt)
    rc, out, err = _evaluate(ckpt, saved[3], capsys)
    assert rc == 1 and out == "" and err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("where, key, value, message", [
    ("top", "model_type", "cnn", "unknown model type 'cnn'"),
    ("top", "n_layers", 0, "stacked heads need at least one layer"),
    ("encoder", "windows", [5, 3], "windows must be strictly ascending"),
], ids=["model_type", "n_layers", "windows"])
def test_a_header_the_spec_refuses_names_the_file(tmp_path, saved, capsys, where, key, value,
                                                  message):
    path = tmp_path / "residual.ckpt"
    save_checkpoint(build_toy_model("residual")[0], path)
    head, _, payload = path.read_bytes().partition(b"\n")
    obj = json.loads(head)
    (obj if where == "top" else obj[where])[key] = value
    ckpt = _write(tmp_path / "m.ckpt", obj, payload)
    rc, out, err = _evaluate(ckpt, saved[3], capsys)
    assert (rc, out, err) == (1, "", f"error: {ckpt}: {message}\n")
