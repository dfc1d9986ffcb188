"""The standard synthetic benchmark: correlated labels, three model families.

One fixed corpus (16 labels, 500-token vocabulary, 5000 train / 500
validation documents, noise rate 0.3, paired label couplings) is used to
check the qualitative ordering seen on real notes: residual classifiers
track the logistic CNN while deep plain stacks collapse, and no model beats
the Bayes oracle.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .encoder import EncoderConfig
from .metrics import macro_auc
from .model import ModelSpec
from .synth import (
    SynthConfig,
    default_pair_weights,
    default_unary,
    generate_corpus,
    oracle_marginals_for_corpus,
)
from .training import TrainConfig, evaluate, train, truth_matrix

N_LABELS = 16
VOCAB_SIZE = 500
N_TRAIN = 5000
N_VAL = 500
NOISE_RATE = 0.3
CORPUS_SEED = 20260809

BENCH_ENCODER = EncoderConfig(windows=(3, 4, 5), filters_per_window=16, embedding_dim=48)
BENCH_MAX_LEN = 30
BENCH_MODELS = (("logistic", 1), ("residual", 4), ("plain", 8))


def benchmark_synth_config(seed: int = CORPUS_SEED) -> SynthConfig:
    return SynthConfig(
        n_labels=N_LABELS,
        vocab_size=VOCAB_SIZE,
        pair_weights=default_pair_weights(N_LABELS),
        unary=default_unary(N_LABELS),
        keywords_per_label=15,
        doc_len=(15, 30),
        noise_rate=NOISE_RATE,
        seed=seed,
    )


def build_benchmark_corpus():
    cfg = benchmark_synth_config()
    docs = generate_corpus(cfg, N_TRAIN + N_VAL)
    return cfg, docs[:N_TRAIN], docs[N_TRAIN:]


def benchmark_train_config(seed: int, max_epochs: int = 25) -> TrainConfig:
    return TrainConfig(lr=0.005, minibatch=50, patience=5, max_epochs=max_epochs, seed=seed)


@dataclass
class BenchRun:
    model_type: str
    n_layers: int
    seed: int
    macro_auc: float
    epochs: int
    seconds: float


def run_model(
    model_type: str,
    n_layers: int,
    train_docs: list[dict],
    val_docs: list[dict],
    seed: int,
    max_epochs: int = 25,
) -> BenchRun:
    spec = ModelSpec(
        model_type=model_type,
        encoder=BENCH_ENCODER,
        max_len=BENCH_MAX_LEN,
        n_layers=n_layers,
    )
    t0 = time.perf_counter()
    result = train(train_docs, spec, benchmark_train_config(seed, max_epochs), val_docs=val_docs)
    report = evaluate(result.model, val_docs)
    return BenchRun(
        model_type=model_type,
        n_layers=n_layers,
        seed=seed,
        macro_auc=report["macro_auc"],
        epochs=len(result.history),
        seconds=time.perf_counter() - t0,
    )


def oracle_macro_auc(cfg: SynthConfig, val_docs: list[dict]) -> float:
    marginals = oracle_marginals_for_corpus(val_docs, cfg)
    return macro_auc(marginals, truth_matrix(val_docs, cfg.label_names()))[0]


def run_benchmark(seeds: tuple[int, ...] = (101, 202, 303), max_epochs: int = 25, log=None):
    """All (model, seed) runs of BENCH_MODELS plus the oracle AUC on the validation split."""
    cfg, train_docs, val_docs = build_benchmark_corpus()
    runs = []
    for model_type, n_layers in BENCH_MODELS:
        for seed in seeds:
            run = run_model(model_type, n_layers, train_docs, val_docs, seed, max_epochs)
            runs.append(run)
            if log:
                log(
                    f"{run.model_type}-{run.n_layers} seed {run.seed}: "
                    f"AUC {run.macro_auc:.4f} in {run.epochs} epochs ({run.seconds:.0f}s)"
                )
    oracle = oracle_macro_auc(cfg, val_docs)
    if log:
        log(f"oracle AUC {oracle:.4f}")
    return runs, oracle


def mean_auc(runs, model_type: str) -> float:
    vals = [r.macro_auc for r in runs if r.model_type == model_type]
    return float(np.mean(vals))
