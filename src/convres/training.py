"""End-to-end optimization: cross-entropy, minibatched Adam, early stopping.

Training is bit-reproducible from TrainConfig.seed: the validation split,
parameter init, epoch shuffles, dropout masks and Gibbs chains all consume
dedicated derived streams in a fixed order.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, replace
from typing import Callable, Sequence

import numpy as np

from . import crbm as crbm_ops
from .encoder import encode_batch_backward
from .exceptions import ConfigError, LabelMismatchError, TrainingError
from .metrics import labeled_mean, metric_report, precision_at_k
from .model import Model, ModelSpec, build_head
from .numeric import SeededRng, adam_step
from .text import Notes, build_vocab, encode_doc, tokenize

CLAMP = 1e-12


@dataclass
class TrainConfig:
    lr: float = 2e-4
    minibatch: int = 50
    dropout_keep: float = 0.5
    val_fraction: float = 0.10
    patience: int = 5
    max_epochs: int = 100
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.val_fraction < 1.0:
            raise ConfigError("val_fraction must be in (0, 1)")
        if self.minibatch < 1:
            raise ConfigError("minibatch must be >= 1")
        if self.patience < 1:
            raise ConfigError("patience must be >= 1")
        if self.max_epochs < 1:
            raise ConfigError("max_epochs must be >= 1")
        if not (np.isfinite(self.lr) and self.lr >= 0.0):
            raise ConfigError(f"lr must be finite and >= 0, got {self.lr}")
        if not 0.0 < self.dropout_keep <= 1.0:
            raise ConfigError(f"dropout_keep must be in (0, 1], got {self.dropout_keep}")


@dataclass
class EpochReport:
    epoch: int
    train_loss: float
    val_loss: float
    val_p_at_1: float
    seconds: float

    def history_line(self) -> dict:
        # wall time is excluded so history files are identical across reruns
        return {k: v for k, v in asdict(self).items() if k != "seconds"}


def cross_entropy(P: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Per-note binary cross-entropy: the mean over the last (label) axis, clamped before logs."""
    P = np.clip(np.asarray(P, dtype=np.float64), CLAMP, 1.0 - CLAMP)
    Y = np.asarray(Y, dtype=np.float64)
    return -np.mean(Y * np.log(P) + (1.0 - Y) * np.log(1.0 - P), axis=-1)


def _ce_batch(P: np.ndarray, Y: np.ndarray) -> tuple[float, np.ndarray]:
    """Summed cross-entropy over a batch plus the gradient w.r.t. pre-sigmoid z.

    The gradient is for the batch MEAN loss: (P - Y) / (L * B), zeroed where
    the probability clamp is active.
    """
    inside = (P > CLAMP) & (P < 1.0 - CLAMP)
    dZ = np.where(inside, P - Y, 0.0) / P.size
    return float(cross_entropy(P, Y).sum()), dZ


def truth_matrix(docs: Sequence[dict], labels: list[str]) -> np.ndarray:
    """The (notes, labels) 0/1 truth of raw notes; a label not in `labels` is refused."""
    label_id = {name: i for i, name in enumerate(labels)}
    Y = np.zeros((len(docs), len(labels)))
    for i, doc in enumerate(docs):
        for name in doc["labels"]:
            if name not in label_id:
                raise LabelMismatchError(f"label {name!r} not in the label vocabulary")
            Y[i, label_id[name]] = 1.0
    return Y


def validation_split(docs: list, fraction: float, seed: int) -> tuple[list, list]:
    """Deterministic shuffle; the last ceil(fraction * N) items are validation."""
    n = len(docs)
    n_val = int(np.ceil(fraction * n))
    if n_val < 1 or n - n_val < 1:
        raise ConfigError(
            f"corpus of {n} documents cannot support a {fraction:.2f} validation split"
        )
    idx = list(range(n))
    SeededRng(seed).shuffle(idx)
    train_idx, val_idx = idx[: n - n_val], idx[n - n_val :]
    return [docs[i] for i in train_idx], [docs[i] for i in val_idx]


def collect_labels(docs: Sequence[dict]) -> list[str]:
    labels = set()
    for doc in docs:
        labels.update(doc["labels"])
    return sorted(labels)


def prepare_docs(
    docs: Sequence[dict], vocab, labels: list[str], max_len: int,
    token_lists: Sequence[list[str]] | None = None,
) -> Notes:
    """Id-encoded notes with their truth; `token_lists` holds the notes' tokens if known.

    Notes are truncated at `max_len` and padded to the longest of them.
    """
    Y = truth_matrix(docs, labels)
    if token_lists is None:
        token_lists = [tokenize(doc["text"]) for doc in docs]
    lens = np.array([min(len(tokens), max_len) for tokens in token_lists], dtype=np.int64)
    # a note longer than `width` is one truncated at max_len, and then width == max_len
    width = int(lens.max(initial=1))
    ids = np.empty((len(docs), width), dtype=np.int64)
    for i, tokens in enumerate(token_lists):
        ids[i] = encode_doc(tokens, vocab, width)
    return Notes(ids, lens, Y)


@dataclass
class TrainResult:
    model: Model
    history: list[EpochReport]
    best_epoch: int
    best_val_loss: float


def train(
    docs: list[dict],
    spec: ModelSpec,
    cfg: TrainConfig,
    val_docs: list[dict] | None = None,
    log: Callable[[str], None] | None = None,
) -> TrainResult:
    """Train a model of the requested type from raw {"text", "labels"} docs.

    A CRBM model trains in two stages: a logistic CNN by backprop, then CD-1
    for the CRBM head over that CNN's frozen encodings.
    """
    if val_docs is None:
        train_raw, val_raw = validation_split(docs, cfg.val_fraction, cfg.seed)
    elif not val_docs:
        raise ConfigError("the validation set is empty")
    else:
        train_raw, val_raw = list(docs), list(val_docs)
    labels = collect_labels(train_raw + val_raw)
    if not labels:
        raise ConfigError("corpus carries no labels at all")

    token_lists = [tokenize(d["text"]) for d in train_raw]
    vocab = build_vocab(token_lists)
    train_notes = prepare_docs(train_raw, vocab, labels, spec.max_len, token_lists)
    val_notes = prepare_docs(val_raw, vocab, labels, spec.max_len)

    rng = SeededRng(cfg.seed)
    backprop_spec = (replace(spec, model_type="logistic", crbm_hidden=None)
                     if spec.model_type == "crbm" else spec)
    model = Model.build(backprop_spec, vocab, labels, rng)
    history: list[EpochReport] = []
    best = _early_stopping(
        model, model.params(), len(train_notes), val_notes, cfg, rng.spawn(201),
        _backprop_epoch(model, train_notes, cfg, rng.spawn(202)), history, log,
    )
    if spec.model_type == "crbm":
        head = build_head(spec, len(labels), rng.spawn(301))
        model = Model(spec, vocab, labels, model.embedding, model.banks, head)
        best = _early_stopping(
            model, head.params(), len(train_notes), val_notes, cfg, rng.spawn(303),
            _crbm_epoch(model, train_notes, cfg, rng.spawn(302)), history, log, " (crbm)",
        )
    return TrainResult(model, history, *best)


def _val_metrics(model: Model, val: Notes) -> tuple[float, float]:
    P = model.predict_batch(val)
    Y = val.Y
    return float(np.mean(cross_entropy(P, Y))), labeled_mean(precision_at_k(P, Y, 1), Y)


EpochFn = Callable[[int, list[list[int]]], float]


def _early_stopping(
    model: Model, params: list, n_train: int, val: Notes, cfg: TrainConfig,
    shuffle_rng: SeededRng, run_epoch: EpochFn, history: list[EpochReport],
    log: Callable[[str], None] | None, tag: str = "",
) -> tuple[int, float]:
    """Epochs until validation loss stalls; leaves `params` at their best values.

    `run_epoch(epoch, minibatches)` trains on shuffled training indices and
    returns the train loss. Epochs are numbered on from `history`.
    """
    best_val = np.inf
    best_epoch = -1
    best_snap = [p.value.copy() for p in params]
    stall = 0
    for _ in range(cfg.max_epochs):
        t0 = time.perf_counter()
        epoch = len(history)
        order = list(range(n_train))
        shuffle_rng.shuffle(order)
        batches = [order[lo : lo + cfg.minibatch] for lo in range(0, n_train, cfg.minibatch)]
        train_loss = run_epoch(epoch, batches)
        val_loss, val_p1 = _val_metrics(model, val)
        report = EpochReport(epoch, train_loss, val_loss, val_p1, time.perf_counter() - t0)
        history.append(report)
        if log:
            log(
                f"epoch {epoch}{tag}: train {train_loss:.4f} "
                f"val {val_loss:.4f} p@1 {val_p1:.3f} ({report.seconds:.1f}s)"
            )
        if val_loss < best_val:
            best_val = val_loss
            best_epoch = epoch
            best_snap = [p.value.copy() for p in params]
            stall = 0
        else:
            stall += 1
            if stall >= cfg.patience:
                break
    for p, v in zip(params, best_snap):
        p.value[...] = v
    return best_epoch, best_val


def _backprop_epoch(
    model: Model, train: Notes, cfg: TrainConfig, dropout_rng: SeededRng
) -> EpochFn:
    """Minibatched Adam on every tensor of `model`; the loss is the epoch mean."""

    def run_epoch(epoch: int, batches: list[list[int]]) -> float:
        total_loss = 0.0
        for b, batch_idx in enumerate(batches):
            model.zero_grads()
            batch = train[batch_idx]
            x, enc_cache = model.encode_docs(
                batch, train_mode=True, dropout_rng=dropout_rng, keep_prob=cfg.dropout_keep,
            )
            P, head_cache = model.head.forward(x)
            loss_sum, dZ = _ce_batch(P, batch.Y)
            if not np.isfinite(loss_sum):
                raise TrainingError(f"non-finite loss at epoch {epoch}, batch {b}")
            total_loss += loss_sum
            dx = model.head.backward(head_cache, dZ)
            encode_batch_backward(enc_cache, dx, model.embedding, model.banks)
            model.embedding.freeze_pad()  # a zero gradient leaves the pad row's Adam state at 0
            for p in model.params():
                adam_step(p, lr=cfg.lr)
        return total_loss / len(train)

    return run_epoch


def _crbm_epoch(
    model: Model, train: Notes, cfg: TrainConfig, cd_rng: SeededRng
) -> EpochFn:
    """CD-1 on the CRBM head over frozen encodings; the loss is at the epoch's end."""
    head = model.head
    X_train, _ = model.encode_docs(train, train_mode=False)

    def run_epoch(epoch: int, batches: list[list[int]]) -> float:
        for batch_idx in batches:
            for p in head.params():
                p.zero_grad()
            crbm_ops.crbm_cd_gradient(X_train[batch_idx], train.Y[batch_idx], head, cd_rng)
            for p in head.params():
                adam_step(p, lr=cfg.lr)
        P_train, _ = head.forward(X_train)
        return float(np.mean(cross_entropy(P_train, train.Y)))

    return run_epoch


def evaluate(model: Model, docs: list[dict]) -> dict:
    """Metric report over raw documents, dropout off."""
    notes = prepare_docs(docs, model.vocab, model.labels, model.spec.max_len)
    return metric_report(model.predict_batch(notes), notes.Y)
