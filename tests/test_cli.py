import json
import time

import pytest

from convres.checkpoint import load_checkpoint, save_checkpoint
from convres.cli import main
from convres.metrics import top_k
from convres.training import evaluate


@pytest.fixture(scope="module")
def small_corpus(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "corpus.jsonl"
    rc = main(
        ["gensynth", "--labels", "4", "--vocab", "40", "--docs", "30",
         "--noise", "0.2", "--seed", "11", "--out", str(path)]
    )
    assert rc == 0
    return path


@pytest.fixture(scope="module")
def trained(tmp_path_factory, small_corpus):
    out_dir = tmp_path_factory.mktemp("run")
    ckpt = out_dir / "model.ckpt"
    hist = out_dir / "history.jsonl"
    rc = main(
        ["train", "--corpus", str(small_corpus), "--model", "logistic",
         "--max-len", "32", "--lr", "0.02", "--batch", "10", "--epochs", "4",
         "--patience", "10", "--seed", "3", "--out", str(ckpt), "--history", str(hist)]
    )
    assert rc == 0
    return ckpt, hist, small_corpus


class TestGensynth:
    def test_byte_identical_reruns(self, tmp_path):
        flags = ["gensynth", "--labels", "3", "--vocab", "30", "--docs", "20",
                 "--noise", "0.4", "--seed", "5"]
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert main(flags + ["--out", str(a)]) == 0
        assert main(flags + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert (
            a.with_suffix(".truth.json").read_bytes()
            == b.with_suffix(".truth.json").read_bytes()
        )
        assert a.with_suffix(".labels").read_bytes() == b.with_suffix(".labels").read_bytes()

    def test_label_file_matches_ids(self, tmp_path):
        out = tmp_path / "c.jsonl"
        main(["gensynth", "--labels", "3", "--vocab", "30", "--docs", "10",
              "--seed", "1", "--out", str(out)])
        labels = out.with_suffix(".labels").read_text().splitlines()
        assert labels == ["label00", "label01", "label02"]

    def test_pairs_file(self, tmp_path):
        pairs = tmp_path / "pairs.json"
        pairs.write_text(json.dumps({"pairs": [[0, 1, 2.0]], "unary": [-1, -1, -1]}))
        out = tmp_path / "c.jsonl"
        rc = main(["gensynth", "--labels", "3", "--vocab", "30", "--docs", "50",
                   "--seed", "1", "--pairs", str(pairs), "--out", str(out)])
        assert rc == 0
        truth = json.loads(out.with_suffix(".truth.json").read_text())
        assert truth["config"]["pair_weights"][0][1] == 2.0

    def test_moderate_corpus_generates_quickly(self, tmp_path):
        out = tmp_path / "big.jsonl"
        t0 = time.perf_counter()
        rc = main(["gensynth", "--labels", "16", "--vocab", "500", "--docs", "5000",
                   "--noise", "0.3", "--seed", "2", "--out", str(out)])
        elapsed = time.perf_counter() - t0
        assert rc == 0
        assert elapsed < 60.0
        assert sum(1 for _ in open(out)) == 5000

    def test_bad_config_exits_2(self, tmp_path):
        rc = main(["gensynth", "--labels", "4", "--vocab", "4", "--docs", "5",
                   "--seed", "0", "--out", str(tmp_path / "x.jsonl")])
        assert rc == 2  # vocabulary too small for keywords plus noise

    @pytest.mark.parametrize("pairs, flags", [
        (b"not json", []),
        (b"\xff\xfe", []),
        (b"[" * 100_000 + b"]" * 100_000, []),
        (b"[[0, 1, 1.0]]", []),
        (b'{"pairs": [[0, 9, 1.0]]}', []),
        (b'{"pairs": [[-1, 0, 1.5]]}', []),
        (b'{"pairs": [[0, 1]]}', []),
        (b'{"pairs": [[0, 1, "2.0"]]}', []),
        (b'{"pairs": [[0.0, 1, 2.0]]}', []),
        (b'{"pairs": [[0, 1, NaN]]}', []),
        (b'{"pairs": [[0, 1, 1e999]]}', []),
        (b'{"pairs": [[0, 1, 1%s]]}' % (b"0" * 400), []),
        (b'{"pairs": 5}', []),
        (b'{"unary": [-1, "x", -1, -1]}', []),
        (None, ["--labels", "0"]),
        (None, ["--docs", "0"]),
    ], ids=[
        "not-json", "not-utf8", "nested-too-deep", "not-an-object", "index-past-labels",
        "negative-index", "short-entry", "string-weight", "float-index", "nan-weight",
        "inf-weight", "weight-beyond-float", "pairs-not-a-list", "string-unary",
        "labels-0", "docs-0",
    ])
    def test_malformed_pairs_and_counts_are_usage_errors(self, tmp_path, capsys, pairs, flags):
        argv = ["gensynth", "--labels", "4", "--vocab", "40", "--docs", "5",
                "--out", str(tmp_path / "x.jsonl")]
        if pairs is not None:
            (tmp_path / "pairs.json").write_bytes(pairs)
            argv += ["--pairs", str(tmp_path / "pairs.json")]
        assert main(argv + flags) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and err.count("\n") == 1
        assert not (tmp_path / "x.jsonl").exists()

    @pytest.mark.parametrize("out, derived", [
        ("c.labels", "c.labels"), ("c.jsonl", "c.labels"), ("d.jsonl", "d.truth.json"),
    ], ids=["labels-suffix", "labels-symlink", "truth-symlink"])
    def test_out_that_a_derived_file_would_overwrite_exits_2_before_writing(
        self, tmp_path, capsys, monkeypatch, out, derived
    ):
        # the label names (or the ground truth) would overwrite the corpus just written
        monkeypatch.chdir(tmp_path)
        if derived != out:
            (tmp_path / derived).symlink_to(tmp_path / out)
        rc = main(["gensynth", "--labels", "3", "--vocab", "30", "--docs", "5", "--out", out])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"usage error: --out and the derived file {derived} name the same file: {out}\n"
        )
        # nothing written: no corpus, and a symlinked derived path still dangles
        assert [p.name for p in tmp_path.iterdir()] == ([] if derived == out else [derived])
        assert not (tmp_path / out).exists()


class TestTrainCommand:
    def test_deterministic_checkpoints_and_histories(self, tmp_path, small_corpus):
        flags = ["train", "--corpus", str(small_corpus), "--model", "residual",
                 "--layers", "2", "--max-len", "32", "--lr", "0.02", "--batch", "10",
                 "--epochs", "3", "--patience", "5", "--seed", "9"]
        c1, h1 = tmp_path / "m1.ckpt", tmp_path / "h1.jsonl"
        c2, h2 = tmp_path / "m2.ckpt", tmp_path / "h2.jsonl"
        assert main(flags + ["--out", str(c1), "--history", str(h1)]) == 0
        assert main(flags + ["--out", str(c2), "--history", str(h2)]) == 0
        assert c1.read_bytes() == c2.read_bytes()
        assert h1.read_bytes() == h2.read_bytes()

    def test_history_lines_are_json(self, trained):
        _, hist, _ = trained
        lines = hist.read_text().splitlines()
        assert len(lines) >= 1
        rec = json.loads(lines[0])
        assert set(rec) == {"epoch", "train_loss", "val_loss", "val_p_at_1"}

    def test_parity_printed_for_plain_and_residual(self, tmp_path, small_corpus, capsys):
        counts = {}
        for model in ("plain", "residual"):
            out = tmp_path / f"{model}.ckpt"
            rc = main(["train", "--corpus", str(small_corpus), "--model", model,
                       "--layers", "8", "--max-len", "32", "--lr", "0.01",
                       "--batch", "10", "--epochs", "1", "--patience", "3",
                       "--seed", "1", "--out", str(out)])
            assert rc == 0
            text = capsys.readouterr().out
            line = [l for l in text.splitlines() if l.startswith("head parameters:")][0]
            counts[model] = int(line.split(":")[1])
        assert counts["plain"] == counts["residual"]

    def test_usage_error_exits_2(self, small_corpus):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--corpus", str(small_corpus), "--model", "nonsense",
                  "--out", "x.ckpt"])
        assert exc.value.code == 2

    def test_max_len_far_past_every_note_trains(self, tmp_path, small_corpus):
        # notes are padded to the longest of them, never to --max-len
        out = tmp_path / "wide.ckpt"
        rc = main(["train", "--corpus", str(small_corpus), "--model", "logistic",
                   "--max-len", "100000000000", "--lr", "0.02", "--batch", "10",
                   "--epochs", "1", "--patience", "5", "--seed", "3", "--out", str(out)])
        assert rc == 0
        assert load_checkpoint(out).spec.max_len == 100000000000

    @pytest.mark.parametrize("flag", ["--out", "--history"])
    def test_missing_output_directory_exits_1_before_training(
        self, tmp_path, small_corpus, capsys, flag
    ):
        paths = {"--out": str(tmp_path / "m.ckpt"), "--history": str(tmp_path / "h.jsonl")}
        paths[flag] = str(tmp_path / "nodir" / "out.file")
        rc = main(["train", "--corpus", str(small_corpus), "--model", "logistic",
                   "--max-len", "32", "--epochs", "1", "--out", paths["--out"],
                   "--history", paths["--history"]])
        assert rc == 1
        captured = capsys.readouterr()
        assert "epoch" not in captured.out
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1
        assert f"{flag} {paths[flag]}" in captured.err and ".tmp" not in captured.err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flag", ["--out", "--history"])
    def test_existing_directory_as_output_exits_1_before_training(
        self, tmp_path, small_corpus, capsys, flag
    ):
        paths = {"--out": str(tmp_path / "m.ckpt"), "--history": str(tmp_path / "h.jsonl")}
        (tmp_path / "adir").mkdir()
        paths[flag] = str(tmp_path / "adir")
        rc = main(["train", "--corpus", str(small_corpus), "--model", "logistic",
                   "--max-len", "32", "--epochs", "1", "--out", paths["--out"],
                   "--history", paths["--history"]])
        assert rc == 1
        captured = capsys.readouterr()
        assert "epoch" not in captured.out
        assert captured.err == f"error: {flag} {paths[flag]}: is a directory\n"
        assert [p.name for p in tmp_path.iterdir()] == ["adir"]
        assert list((tmp_path / "adir").iterdir()) == []

    @pytest.mark.parametrize("spelling", ["same", "relative", "symlink"])
    def test_out_and_history_naming_one_file_exit_2_before_training(
        self, tmp_path, small_corpus, capsys, monkeypatch, spelling
    ):
        # the history would overwrite the checkpoint it was written after
        out = tmp_path / "m.ckpt"
        history = {"same": str(out), "relative": "sub/../m.ckpt", "symlink": str(tmp_path / "h")}[
            spelling
        ]
        (tmp_path / "sub").mkdir()
        monkeypatch.chdir(tmp_path)
        if spelling == "symlink":
            (tmp_path / "h").symlink_to(out)
        rc = main(["train", "--corpus", str(small_corpus), "--model", "logistic",
                   "--max-len", "32", "--epochs", "1", "--out", str(out), "--history", history])
        assert rc == 2
        captured = capsys.readouterr()
        assert "epoch" not in captured.out
        assert captured.err == f"usage error: --out and --history name the same file: {out}\n"
        assert not out.exists()

    def test_crbm_via_cli(self, tmp_path, small_corpus):
        out = tmp_path / "crbm.ckpt"
        rc = main(["train", "--corpus", str(small_corpus), "--model", "crbm",
                   "--hidden", "3", "--max-len", "32", "--lr", "0.02", "--batch", "10",
                   "--epochs", "2", "--patience", "5", "--seed", "2", "--out", str(out)])
        assert rc == 0
        model = load_checkpoint(out)
        assert model.head.n_hidden == 3


class TestCheckpoint:
    def test_roundtrip_byte_identical(self, tmp_path, trained):
        ckpt, _, _ = trained
        model = load_checkpoint(ckpt)
        again = tmp_path / "again.ckpt"
        save_checkpoint(model, again)
        assert ckpt.read_bytes() == again.read_bytes()

    def test_reload_evaluates_identically(self, trained):
        ckpt, _, corpus = trained
        from convres.text import load_corpus

        docs = load_corpus(corpus)
        a = evaluate(load_checkpoint(ckpt), docs)
        b = evaluate(load_checkpoint(ckpt), docs)
        assert json.dumps(a) == json.dumps(b)


class TestEvaluateCommand:
    def test_report_written_and_printed(self, tmp_path, trained, capsys):
        ckpt, _, corpus = trained
        out = tmp_path / "report.json"
        rc = main(["evaluate", "--checkpoint", str(ckpt), "--corpus", str(corpus),
                   "--out", str(out)])
        assert rc == 0
        printed = capsys.readouterr().out.strip()
        assert printed == out.read_text().strip()
        rep = json.loads(printed)
        assert set(rep) == {
            "p_at_1", "p_at_3", "p_at_5", "n_at_3", "n_at_5", "macro_auc", "per_label_auc",
        }

    def test_evaluate_twice_identical_bytes(self, tmp_path, trained):
        ckpt, _, corpus = trained
        o1, o2 = tmp_path / "r1.json", tmp_path / "r2.json"
        main(["evaluate", "--checkpoint", str(ckpt), "--corpus", str(corpus), "--out", str(o1)])
        main(["evaluate", "--checkpoint", str(ckpt), "--corpus", str(corpus), "--out", str(o2)])
        assert o1.read_bytes() == o2.read_bytes()

    def test_missing_checkpoint_exits_1_naming_path(self, tmp_path, small_corpus, capsys):
        missing = tmp_path / "nope.ckpt"
        rc = main(["evaluate", "--checkpoint", str(missing), "--corpus", str(small_corpus)])
        assert rc == 1
        assert str(missing) in capsys.readouterr().err


class TestPredictCommand:
    def test_k_larger_than_label_count_clamps(self, tmp_path, trained):
        ckpt, _, corpus = trained
        out = tmp_path / "preds.jsonl"
        rc = main(["predict", "--checkpoint", str(ckpt), "--corpus", str(corpus),
                   "--k", "99", "--out", str(out)])
        assert rc == 0
        for line in out.read_text().splitlines():
            entry = json.loads(line)
            assert len(entry["top"]) == 4  # corpus has 4 labels

    def test_ordering_matches_rank_k(self, tmp_path, trained):
        ckpt, _, corpus = trained
        out = tmp_path / "preds.jsonl"
        main(["predict", "--checkpoint", str(ckpt), "--corpus", str(corpus),
              "--k", "3", "--out", str(out)])
        model = load_checkpoint(ckpt)
        from convres.text import load_corpus
        from convres.training import prepare_docs

        docs = load_corpus(corpus)
        tokenized = prepare_docs(docs, model.vocab, model.labels, model.spec.max_len)
        P = model.predict_batch(tokenized)
        top = top_k(P, 3)
        for i, line in enumerate(out.read_text().splitlines()):
            entry = json.loads(line)
            expected = [model.labels[l] for l in top[i]]
            assert [t["label"] for t in entry["top"]] == expected
            scores = [t["score"] for t in entry["top"]]
            assert scores == sorted(scores, reverse=True)

    def test_checkpoint_with_huge_max_len_predicts(self, tmp_path, trained):
        ckpt, _, corpus = trained
        head, newline, payload = ckpt.read_bytes().partition(b"\n")
        header = json.loads(head)
        header["max_len"] = 10**30
        wide = tmp_path / "wide.ckpt"
        wide.write_bytes(json.dumps(header).encode("utf-8") + newline + payload)
        outs = [tmp_path / "a.jsonl", tmp_path / "b.jsonl"]
        for path, out in zip((ckpt, wide), outs):
            rc = main(["predict", "--checkpoint", str(path), "--corpus", str(corpus),
                       "--k", "3", "--out", str(out)])
            assert rc == 0
        # every note is shorter than the trained max_len of 32, so nothing else changes
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_notes_with_unknown_labels_are_scored(self, tmp_path, trained, capsys):
        # predict reads no labels; evaluate and encode do, so they still refuse
        ckpt, _, corpus = trained
        relabeled = tmp_path / "relabeled.jsonl"
        relabeled.write_text("".join(
            json.dumps({"text": json.loads(line)["text"], "labels": ["sepsis"]}) + "\n"
            for line in corpus.read_text().splitlines()
        ))
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert main(["predict", "--checkpoint", str(ckpt), "--corpus", str(corpus),
                     "--out", str(a)]) == 0
        assert main(["predict", "--checkpoint", str(ckpt), "--corpus", str(relabeled),
                     "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        capsys.readouterr()
        for command in ("evaluate", "encode"):
            rc = main([command, "--checkpoint", str(ckpt), "--corpus", str(relabeled),
                       "--out", str(tmp_path / f"{command}.out")])
            assert rc == 1
            err = capsys.readouterr().err
            assert err.startswith("error:") and "'sepsis'" in err and err.count("\n") == 1

    def test_invalid_k_exits_2(self, trained):
        ckpt, _, corpus = trained
        with pytest.raises(SystemExit) as exc:
            main(["predict", "--checkpoint", str(ckpt), "--corpus", str(corpus),
                  "--k", "0", "--out", "x.jsonl"])
        assert exc.value.code == 2


class TestEncodeCommand:
    def test_vectors_are_300d_tanh_bounded(self, tmp_path, trained):
        ckpt, _, corpus = trained
        out = tmp_path / "enc.jsonl"
        rc = main(["encode", "--checkpoint", str(ckpt), "--corpus", str(corpus),
                   "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 30
        for line in lines:
            entry = json.loads(line)
            assert len(entry["x"]) == 300  # default: 100 filters x 3 window sizes
            assert all(-1.0 < v < 1.0 for v in entry["x"])

    def test_identical_doc_identical_vector(self, tmp_path, trained):
        ckpt, _, _ = trained
        dup = tmp_path / "dup.jsonl"
        dup.write_text(
            '{"text": "k00w000 k00w001 n00001 n00002 k00w000", "labels": ["label00"]}\n' * 2
        )
        out = tmp_path / "enc.jsonl"
        main(["encode", "--checkpoint", str(ckpt), "--corpus", str(dup), "--out", str(out)])
        l1, l2 = out.read_text().splitlines()
        assert l1 == l2

    def test_repeated_label_listed_once(self, tmp_path, trained):
        ckpt, _, _ = trained
        corpus = tmp_path / "repeat.jsonl"
        corpus.write_text(
            '{"text": "k00w000 k02w001", "labels": ["label02", "label00", "label02"]}\n'
            '{"text": "k00w000 k02w001", "labels": ["label00", "label02"]}\n'
        )
        out = tmp_path / "enc.jsonl"
        rc = main(["encode", "--checkpoint", str(ckpt), "--corpus", str(corpus), "--out", str(out)])
        assert rc == 0
        repeated, plain = [json.loads(line) for line in out.read_text().splitlines()]
        assert repeated["labels"] == plain["labels"] == ["label00", "label02"]
        assert repeated["x"] == plain["x"]


@pytest.mark.parametrize("text", ["", "  \t "])
@pytest.mark.parametrize("command", ["train", "evaluate"])
def test_empty_note_exits_1_naming_file_and_line(tmp_path, trained, capsys, command, text):
    ckpt, _, corpus = trained
    bad = tmp_path / "bad.jsonl"
    lines = corpus.read_text().splitlines()
    bad.write_text("\n".join(lines[:2] + [json.dumps({"text": text, "labels": []})]) + "\n")
    argv = {
        "train": ["train", "--corpus", str(bad), "--model", "logistic", "--max-len", "32",
                  "--epochs", "1", "--out", str(tmp_path / "m.ckpt")],
        "evaluate": ["evaluate", "--checkpoint", str(ckpt), "--corpus", str(bad)],
    }[command]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(bad) in err and "(line 3)" in err
    assert err.count("\n") == 1
    assert not (tmp_path / "m.ckpt").exists()


@pytest.mark.parametrize("command, flag, clash", [
    ("train", "--out", "--corpus"),
    ("train", "--history", "--corpus"),
    ("train", "--out", "--embeddings"),
    ("evaluate", "--out", "--checkpoint"),
    ("evaluate", "--out", "--corpus"),
    ("predict", "--out", "--checkpoint"),
    ("encode", "--out", "--corpus"),
    ("gensynth", "--out", "--pairs"),
])
def test_output_naming_an_input_exits_2_before_writing(
    tmp_path, trained, capsys, command, flag, clash
):
    # the output would replace a file the command reads, such as the model it scores with
    ckpt, _, corpus = trained
    inputs = {flag: tmp_path / name for flag, name in (
        ("--corpus", "c.jsonl"), ("--checkpoint", "m.ckpt"), ("--embeddings", "e.txt"),
        ("--pairs", "p.json"),
    )}
    inputs["--corpus"].write_bytes(corpus.read_bytes())
    inputs["--checkpoint"].write_bytes(ckpt.read_bytes())
    inputs["--embeddings"].write_text("k00w000 " + " ".join(["0.1"] * 300) + "\n")
    inputs["--pairs"].write_text('{"pairs": [[0, 1, 0.5]]}')
    before = {path: path.read_bytes() for path in inputs.values()}
    reads, extra = {
        "train": (("--corpus", "--embeddings"),
                  ["--model", "logistic", "--max-len", "32", "--epochs", "1"]),
        "evaluate": (("--checkpoint", "--corpus"), []),
        "predict": (("--checkpoint", "--corpus"), []),
        "encode": (("--checkpoint", "--corpus"), []),
        "gensynth": (("--pairs",), ["--labels", "3", "--vocab", "30", "--docs", "5"]),
    }[command]
    paths = {name: str(inputs[name]) for name in reads}
    paths["--out"] = str(tmp_path / "new.out")
    if command == "train":
        paths["--history"] = str(tmp_path / "new.history")
    paths[flag] = str(inputs[clash])
    rc = main([command, *extra, *(arg for item in paths.items() for arg in item)])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"usage error: {clash} and {flag} name the same file: {inputs[clash]}\n"
    assert sorted(tmp_path.iterdir()) == sorted(before)
    assert all(path.read_bytes() == data for path, data in before.items())
