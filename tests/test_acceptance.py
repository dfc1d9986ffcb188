"""Acceptance suite: one test per release criterion, each printing a verdict.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. The synthetic-benchmark criteria (6 and 7) train nine models and
take a few minutes; everything else is fast.
"""

import time

import numpy as np
import pytest

from convres.cli import main
from convres.crbm import CrbmHead, crbm_meanfield_predict, predict_marginals
from convres.encoder import EncoderConfig
from convres.heads import PlainHead, ResidualHead
from convres.metrics import label_auc, ndcg_at_k, precision_at_k, top_k
from convres.model import ModelSpec
from convres.numeric import SeededRng
from convres.synth import SynthConfig, generate_corpus, write_corpus
from convres.synthbench import mean_auc, run_benchmark
from convres.training import TrainConfig, evaluate, train
from oracles import (
    auc_pair_oracle,
    crbm_exact_gradient,
    crbm_joint_enumeration,
    crbm_log_likelihood,
    finite_diff_check,
    ndcg_oracle,
    precision_oracle,
    rank_by_full_sort,
    residual_scalar_reference,
)
from toymodels import build_toy_model, full_pipeline_loss_and_grads, full_pipeline_loss_only


def _verdict(num: int, text: str) -> None:
    print(f"\nACCEPTANCE {num} PASS: {text}", flush=True)


@pytest.fixture(scope="module")
def benchmark_results():
    runs, oracle = run_benchmark(seeds=(101, 202, 303), max_epochs=25)
    return runs, oracle


def test_criterion_1_full_pipeline_gradients():
    """Embedding -> encoder -> head gradients for all backprop heads."""
    t0 = time.perf_counter()
    worst = {}
    for model_type, n_layers in (("logistic", 1), ("plain", 2), ("residual", 2)):
        model, notes = build_toy_model(model_type, seed=17, n_layers=n_layers)
        Y = np.array([[1.0, 0.0, 0.0, 1.0]])
        full_pipeline_loss_and_grads(model, notes, Y)
        err = finite_diff_check(
            lambda: full_pipeline_loss_only(model, notes, Y), model.params()
        )
        worst[model_type] = err
        assert err < 1e-4, f"{model_type}: relative error {err}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _verdict(
        1,
        "full-pipeline finite-difference check < 1e-4 "
        + ", ".join(f"{k}={v:.2e}" for k, v in worst.items())
        + f" ({elapsed:.1f}s)",
    )


def test_criterion_2_parameter_parity():
    """Plain and residual heads carry identical parameter counts."""
    for n in (1, 2, 4, 8):
        hidden = tuple(3 + (i % 2) for i in range(n))
        res = ResidualHead(6, 10, n, hidden, SeededRng(0))
        plain = PlainHead(6, 10, n, hidden, SeededRng(0))
        assert res.param_count() == plain.param_count()
    _verdict(2, "plain/residual parameter counts equal for n in {1, 2, 4, 8}")


def test_criterion_3_residual_recurrence_fidelity():
    """Vectorized residual forward equals a scalar step-by-step transcription."""
    worst = 0.0
    for trial in range(20):
        rng = SeededRng(7000 + trial)
        L = 2 + rng.integers(3)
        vw = 2 + rng.integers(4)
        n = 1 + rng.integers(3)
        hidden = tuple(1 + rng.integers(3) for _ in range(n))
        head = ResidualHead(L, vw, n, hidden, SeededRng(trial))
        r2 = SeededRng(7100 + trial)
        for p in head.params():
            p.value[...] = r2.uniform(-0.8, 0.8, p.value.shape)
        x = rng.uniform(-1, 1, (vw,))
        P, cache = head.forward(x[None, :])
        p_vec, zs, qs = P[0], [z[0] for z in cache["Z"]], [q[0] for q in cache["Q"]]
        p_ref, zs_ref, qs_ref = residual_scalar_reference(
            list(x),
            [list(r) for r in head.W0.value],
            [list(b.value) for b in head.b],
            [[list(r) for r in W.value] for W in head.W],
            [[list(r) for r in G.value] for G in head.G],
            [list(c.value) for c in head.c],
        )
        worst = max(worst, float(np.abs(np.array(p_ref) - p_vec).max()))
        for z, z_ref in zip(zs, zs_ref):
            worst = max(worst, float(np.abs(np.array(z_ref) - z).max()))
        for q, q_ref in zip(qs, qs_ref):
            worst = max(worst, float(np.abs(np.array(q_ref) - q).max()))
        assert worst < 1e-12
    _verdict(3, f"residual recurrence matches scalar transcription, max |diff| {worst:.2e}")


def test_criterion_4_crbm_oracle_equivalence():
    """Exact marginals, exact gradient, and mean field on 100 random models."""
    t0 = time.perf_counter()
    L, J, vw = 6, 3, 4
    worst_marg = 0.0
    worst_grad = 0.0
    mf_gaps = []
    for trial in range(100):
        head = CrbmHead(L, vw, J, SeededRng(trial))
        r = SeededRng(50_000 + trial)
        for p in head.params():
            p.value[...] = r.uniform(-0.5, 0.5, p.value.shape)
        x = r.uniform(-1, 1, (vw,))

        marg = predict_marginals(x[None, :], head)[0]
        ref = crbm_joint_enumeration(
            x, head.W.value, head.G.value, head.b.value, head.c.value
        )
        worst_marg = max(worst_marg, float(np.abs(marg - ref).max()))
        assert worst_marg < 1e-10

        y = (r.uniform(size=(L,)) < 0.5).astype(float)
        g = crbm_exact_gradient(x, y, head)
        head.W.grad[...] = -g.dW
        head.G.grad[...] = -g.dG
        head.b.grad[...] = -g.db
        head.c.grad[...] = -g.dc
        err = finite_diff_check(lambda: -crbm_log_likelihood(x, y, head), head.params())
        worst_grad = max(worst_grad, err)
        assert worst_grad < 1e-4

        mf_gaps.append(float(np.abs(crbm_meanfield_predict(x, head) - marg).mean()))
    mf_mae = float(np.mean(mf_gaps))
    assert mf_mae <= 0.05
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _verdict(
        4,
        f"CRBM: marginals within {worst_marg:.2e}, gradient within {worst_grad:.2e}, "
        f"mean-field MAE {mf_mae:.4f} over 100 models ({elapsed:.1f}s)",
    )


def test_criterion_5_metric_hand_cases_and_oracle():
    """Worked metric examples exactly, then 1000 random brute-force checks."""

    def row(v):  # one note as a (1, labels) array
        return np.asarray(v, dtype=np.float64)[None, :]

    s, t = row([0.9, 0.1, 0.8, 0.2]), row([1, 0, 1, 0])
    assert precision_at_k(s, t, 2)[0] == 1.0
    assert precision_at_k(s, t, 4)[0] == 0.5
    s, t = row([0.5, 0.9, 0.2]), row([1, 0, 0])
    assert abs(ndcg_at_k(s, t, 5)[0] - np.log2(2) / np.log2(3)) < 1e-12
    auc_case = [(0.9, 1), (0.8, 0), (0.3, 1), (0.1, 0)]
    scores = np.array([[sc] for sc, _ in auc_case])
    truth = np.array([[tr] for _, tr in auc_case])
    assert label_auc(scores[:, 0], truth[:, 0]) == 0.75

    rng = SeededRng(123)
    for _ in range(1000):
        L = 1 + rng.integers(6)
        s = rng.uniform(size=(L,))
        t = (rng.uniform(size=(L,)) < 0.5).astype(float)
        k = 1 + rng.integers(6)
        assert top_k(row(s), k)[0].tolist() == rank_by_full_sort(list(s), k)
        assert abs(precision_at_k(row(s), row(t), k)[0] - precision_oracle(s, t, k)) < 1e-12
        assert abs(ndcg_at_k(row(s), row(t), k)[0] - ndcg_oracle(s, t, k)) < 1e-12
        ours, ref = label_auc(s, t), auc_pair_oracle(list(s), list(t))
        assert (ours is None and ref is None) or abs(ours - ref) < 1e-12
    _verdict(5, "metric hand cases exact; 1000 random instances match brute force")


def test_criterion_6_qualitative_ordering(benchmark_results):
    """Residual-4 tracks the logistic CNN and dominates plain-8 on macro AUC."""
    runs, _ = benchmark_results
    for run in runs:
        assert run.seconds < 900.0, f"{run.model_type} run exceeded the budget"
    res = mean_auc(runs, "residual")
    log = mean_auc(runs, "logistic")
    plain = mean_auc(runs, "plain")
    assert res >= log - 0.005, f"residual {res:.4f} vs logistic {log:.4f}"
    assert res >= plain + 0.05, f"residual {res:.4f} vs plain {plain:.4f}"
    assert res >= 0.90, f"residual AUC {res:.4f}"
    _verdict(
        6,
        f"macro AUC over 3 seeds: residual-4 {res:.4f} >= logistic {log:.4f} - 0.005, "
        f">= plain-8 {plain:.4f} + 0.05, >= 0.90",
    )


def test_criterion_7_oracle_bound(benchmark_results):
    """No trained model beats the Bayes oracle beyond noise."""
    runs, oracle = benchmark_results
    for run in runs:
        assert run.macro_auc <= oracle + 0.02, (
            f"{run.model_type} seed {run.seed}: {run.macro_auc:.4f} vs oracle {oracle:.4f}"
        )
    best = max(r.macro_auc for r in runs)
    _verdict(7, f"all 9 runs <= oracle + 0.02 (best model {best:.4f}, oracle {oracle:.4f})")


def test_criterion_8_cli_determinism(tmp_path):
    """Identical train flags yield byte-identical checkpoints and histories."""
    corpus = tmp_path / "corpus.jsonl"
    assert main(["gensynth", "--labels", "4", "--vocab", "40", "--docs", "30",
                 "--noise", "0.2", "--seed", "4", "--out", str(corpus)]) == 0
    flags = ["train", "--corpus", str(corpus), "--model", "residual", "--layers", "2",
             "--max-len", "32", "--lr", "0.02", "--batch", "10", "--epochs", "3",
             "--patience", "5", "--seed", "12"]
    c1, h1 = tmp_path / "a.ckpt", tmp_path / "a.jsonl"
    c2, h2 = tmp_path / "b.ckpt", tmp_path / "b.jsonl"
    assert main(flags + ["--out", str(c1), "--history", str(h1)]) == 0
    assert main(flags + ["--out", str(c2), "--history", str(h2)]) == 0
    assert c1.read_bytes() == c2.read_bytes()
    assert h1.read_bytes() == h2.read_bytes()
    _verdict(8, "repeated cmd_train produced byte-identical checkpoint and history")


def test_criterion_9_degenerate_inputs(tmp_path):
    """Controls, single-token docs, sub-window docs, and k > L all behave."""
    # corpus mixing control patients with tiny documents
    cfg = SynthConfig(
        n_labels=3,
        vocab_size=30,
        pair_weights=np.zeros((3, 3)),
        unary=np.full(3, -0.5),
        keywords_per_label=4,
        doc_len=(1, 4),          # shorter than every filter window below
        noise_rate=0.3,
        seed=6,
        allow_controls=True,
    )
    docs = generate_corpus(cfg, 60)
    assert any(not d["labels"] for d in docs), "controls expected in the corpus"
    assert any(len(d["text"].split()) == 1 for d in docs), "single-token doc expected"

    spec = ModelSpec(
        model_type="residual",
        encoder=EncoderConfig(windows=(5, 6), filters_per_window=4, embedding_dim=8),
        max_len=8,
        n_layers=2,
    )
    tc = TrainConfig(lr=0.02, minibatch=10, max_epochs=3, patience=5, seed=1)
    result = train(docs, spec, tc)
    report = evaluate(result.model, docs)
    for key in ("p_at_1", "p_at_3", "p_at_5", "n_at_3", "n_at_5", "macro_auc"):
        assert 0.0 <= report[key] <= 1.0

    # k far beyond the label count through the CLI surface
    corpus_path = tmp_path / "tiny.jsonl"
    write_corpus(corpus_path, docs)
    from convres.checkpoint import save_checkpoint

    ckpt = tmp_path / "tiny.ckpt"
    save_checkpoint(result.model, ckpt)
    preds = tmp_path / "preds.jsonl"
    assert main(["predict", "--checkpoint", str(ckpt), "--corpus", str(corpus_path),
                 "--k", "50", "--out", str(preds)]) == 0
    import json

    for line in preds.read_text().splitlines():
        assert len(json.loads(line)["top"]) == 3
    _verdict(9, "degenerate inputs (controls, 1-token docs, sub-window docs, k > L) all pass")
