"""One head contract, one stacked head, one early-stopping loop, checked inputs."""

import numpy as np
import pytest

from convres import training
from convres.cli import main
from convres.crbm import (
    EXACT_LABEL_LIMIT,
    CrbmHead,
    crbm_meanfield_predict,
    predict_marginals,
)
from convres.encoder import EncoderConfig
from convres.exceptions import ParseError
from convres.heads import LogisticHead, PlainHead, ResidualHead, StackedHead
from convres.model import ModelSpec
from convres.numeric import SeededRng
from convres.text import load_corpus
from convres.training import TrainConfig, train
from toymodels import make_separable_corpus

SMALL_ENCODER = EncoderConfig(windows=(2, 3), filters_per_window=4, embedding_dim=8)


def _crbm_head(n_labels, seed):
    head = CrbmHead(n_labels, 4, 3, SeededRng(seed))
    rng = SeededRng(seed + 100)
    for p in head.params():
        p.value[...] = rng.uniform(-1.0, 1.0, p.value.shape)
    return head


class TestCrbmForward:
    @pytest.mark.parametrize("n_labels, per_row", [
        (6, lambda x, head: predict_marginals(x[None, :], head)[0]),
        (EXACT_LABEL_LIMIT + 5, crbm_meanfield_predict),
    ])
    def test_rows_equal_per_vector_marginals(self, n_labels, per_row):
        head = _crbm_head(n_labels, 7)
        X = SeededRng(8).uniform(-1.0, 1.0, (5, 4))
        P, _ = head.forward(X)
        assert P.shape == (5, n_labels)
        assert np.array_equal(P, np.concatenate([predict_marginals(x[None, :], head) for x in X]))
        assert np.array_equal(P, np.stack([per_row(x, head) for x in X]))


class TestStackedHead:
    def test_residual_and_plain_share_one_forward_and_backward(self):
        for cls in (LogisticHead, ResidualHead, PlainHead):
            for method in ("forward", "backward"):
                assert getattr(cls, method) is getattr(StackedHead, method), cls
        assert ResidualHead.shortcut and not PlainHead.shortcut

    def test_logistic_is_the_stack_at_depth_0(self):
        head = LogisticHead(3, 4, SeededRng(0))
        assert isinstance(head, StackedHead) and head.n_layers == 0 and not head.shortcut
        assert [p.name for p in head.params()] == ["head_w0", "head_b0"]
        w0, b0 = head.params()
        assert w0 is head.W0 and b0 is head.b[0] and not hasattr(head, "b0")


def _spec(model_type):
    return ModelSpec(model_type=model_type, encoder=SMALL_ENCODER, max_len=8)


class TestEarlyStopping:
    @pytest.mark.parametrize("model_type", ["residual", "crbm"])
    def test_best_epoch_indexes_history(self, model_type):
        cfg = TrainConfig(lr=0.2, minibatch=3, max_epochs=8, patience=2, seed=8)
        result = train(make_separable_corpus(30), _spec(model_type), cfg)
        assert result.history[result.best_epoch].val_loss == result.best_val_loss
        assert [r.epoch for r in result.history] == list(range(len(result.history)))

    def test_crbm_stage_numbers_on_after_the_first(self):
        logs = []
        cfg = TrainConfig(lr=0.05, minibatch=6, max_epochs=3, patience=10, seed=3)
        result = train(make_separable_corpus(24), _spec("crbm"), cfg, log=logs.append)
        first = [m for m in logs if "(crbm)" not in m]
        second = [m for m in logs if "(crbm)" in m]
        assert len(first) == len(second) == 3
        assert [m.split()[1] for m in second] == ["3", "4", "5"]
        assert result.best_epoch >= len(first)


def test_train_tokenizes_each_note_once(monkeypatch):
    calls = []
    real = training.tokenize
    monkeypatch.setattr(training, "tokenize", lambda text: calls.append(text) or real(text))
    docs = make_separable_corpus(20)
    train(docs, _spec("logistic"), TrainConfig(max_epochs=1, seed=0))
    assert len(calls) == len(docs)


@pytest.fixture
def corpus(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_text("".join(
        f'{{"text": "fever cough note {i}", "labels": ["l{i % 2}"]}}\n' for i in range(12)
    ))
    return path


class TestStackedUsageErrors:
    @pytest.mark.parametrize("flags", [
        ["--layers", "0"], ["--layers", "3", "--hidden", "2,2"],
        ["--epochs", "0"], ["--lr", "-1"], ["--lr", "nan"], ["--lr", "inf"],
    ])
    @pytest.mark.parametrize("model", ["plain", "residual"])
    def test_exits_2_with_one_line(self, tmp_path, corpus, capsys, model, flags):
        rc = main(["train", "--corpus", str(corpus), "--model", model, "--max-len", "8",
                   "--epochs", "1", "--out", str(tmp_path / "m.ckpt"), *flags])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and err.count("\n") == 1
        assert not (tmp_path / "m.ckpt").exists()


@pytest.mark.parametrize("model, flags", [
    ("logistic", ["--layers", "5", "--hidden", "7"]),
    ("logistic", ["--layers", "2"]),
    ("logistic", ["--hidden", "7"]),
    ("crbm", ["--layers", "3"]),
    ("crbm", ["--layers", "0", "--hidden", "4"]),
    ("crbm", ["--hidden", "3,4"]),
])
def test_flags_the_head_ignores_exit_2(tmp_path, corpus, capsys, model, flags):
    rc = main(["train", "--corpus", str(corpus), "--model", model, "--max-len", "8",
               "--epochs", "1", "--out", str(tmp_path / "m.ckpt"), *flags])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and err.count("\n") == 1
    assert not (tmp_path / "m.ckpt").exists()


@pytest.mark.parametrize("model, flags", [
    ("plain", ["--layers", "2", "--hidden", "0"]),
    ("residual", ["--layers", "2", "--hidden", "3,0"]),
    ("crbm", ["--hidden", "0"]),
])
def test_hidden_size_below_one_exits_2(tmp_path, corpus, capsys, model, flags):
    rc = main(["train", "--corpus", str(corpus), "--model", model, "--max-len", "8",
               "--epochs", "1", "--out", str(tmp_path / "m.ckpt"), *flags])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and "at least 1" in err and err.count("\n") == 1
    assert not (tmp_path / "m.ckpt").exists()


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_non_finite_embedding_file_exits_1_naming_the_line(tmp_path, corpus, capsys, bad):
    vecs = tmp_path / "vecs.txt"
    row = " ".join(["0.5"] * 300)
    vecs.write_text(f"fever {row}\ncough {bad} {' '.join(['0.5'] * 299)}\n")
    rc = main(["train", "--corpus", str(corpus), "--model", "logistic", "--max-len", "8",
               "--epochs", "1", "--embeddings", str(vecs), "--out", str(tmp_path / "m.ckpt")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "non-finite" in err and "(line 2)" in err
    assert err.count("\n") == 1
    assert not (tmp_path / "m.ckpt").exists()


@pytest.mark.parametrize("line", [
    '{"text": "fever", "labels": "label00"}',
    '5',
    '["fever", ["l0"]]',
    'null',
    '{"text": 5, "labels": ["l0"]}',
    '{"text": ["fever"], "labels": ["l0"]}',
    '{"text": "fever", "labels": [1]}',
    '{"text": "fever", "labels": null}',
])
def test_malformed_corpus_line(tmp_path, capsys, line):
    path = tmp_path / "corpus.jsonl"
    path.write_text('{"text": "fever cough", "labels": ["l0"]}\n' + line + "\n")
    with pytest.raises(ParseError) as exc:
        load_corpus(path)
    assert exc.value.line == 2
    rc = main(["train", "--corpus", str(path), "--model", "logistic",
               "--out", str(tmp_path / "m.ckpt")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "(line 2)" in err and err.count("\n") == 1


_DEEP = b"[" * 100_000 + b"]" * 100_000


@pytest.mark.parametrize("target, first, bad_line", [
    ("corpus", b'{"text": "fever cough", "labels": ["l0"]}', b'{"text": "caf\xe9", "labels": []}'),
    ("corpus", b'{"text": "fever cough", "labels": ["l0"]}', _DEEP),
    ("embeddings", b"fever" + b" 0.5" * 300, b"cough \xff" + b" 0.5" * 300),
    ("checkpoint", b'{"format_version": 2, "model_type": "caf\xe9"}', None),
    ("checkpoint", _DEEP, None),
], ids=["corpus-bytes", "corpus-nesting", "embeddings-bytes", "checkpoint-bytes",
        "checkpoint-nesting"])
def test_undecodable_input_exits_1_naming_the_file(tmp_path, corpus, capsys, target, first,
                                                   bad_line):
    bad = tmp_path / f"bad.{target}"
    bad.write_bytes(first + b"\n" + (bad_line + b"\n" if bad_line else b""))
    train_flags = ["train", "--model", "logistic", "--max-len", "8", "--epochs", "1",
                   "--out", str(tmp_path / "m.ckpt")]
    argv = {
        "corpus": train_flags + ["--corpus", str(bad)],
        "embeddings": train_flags + ["--corpus", str(corpus), "--embeddings", str(bad)],
        "checkpoint": ["evaluate", "--checkpoint", str(bad), "--corpus", str(corpus)],
    }[target]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(bad) in err and err.count("\n") == 1
    if bad_line:
        assert "(line 2)" in err
    assert not (tmp_path / "m.ckpt").exists()
