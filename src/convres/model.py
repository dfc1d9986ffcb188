"""Model assembly: embedding table + CNN encoder + one of the label heads."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import crbm as crbm_ops
from .encoder import EncoderConfig, FilterBank, encode_batch, make_banks
from .exceptions import ConfigError
from .heads import LogisticHead, PlainHead, ResidualHead
from .numeric import ParamTensor, SeededRng
from .text import EmbeddingTable, Notes, Vocabulary, load_embeddings

MODEL_TYPES = ("logistic", "plain", "residual", "crbm")


@dataclass
class ModelSpec:
    model_type: str = "residual"
    encoder: EncoderConfig = field(default_factory=EncoderConfig)
    max_len: int = 600
    n_layers: int = 1
    hidden_sizes: tuple[int, ...] | None = None
    crbm_hidden: int | None = None
    embeddings_path: str | None = None

    def __post_init__(self):
        if self.model_type not in MODEL_TYPES:
            raise ConfigError(f"unknown model type {self.model_type!r}")
        if self.model_type in ("plain", "residual"):
            if self.n_layers < 1:
                raise ConfigError("stacked heads need at least one layer")
            if self.hidden_sizes is not None and len(self.hidden_sizes) != self.n_layers:
                raise ConfigError(
                    f"{self.n_layers} layers but {len(self.hidden_sizes)} hidden sizes given"
                )
        elif self.n_layers != 1:
            raise ConfigError(f"a {self.model_type} head has one layer, got {self.n_layers}")
        elif self.hidden_sizes is not None:
            raise ConfigError(f"a {self.model_type} head has no stacked hidden layers")
        if self.hidden_sizes is not None and any(h < 1 for h in self.hidden_sizes):
            raise ConfigError(f"hidden sizes must be at least 1, got {self.hidden_sizes}")
        if self.crbm_hidden is not None and self.model_type != "crbm":
            raise ConfigError(f"a {self.model_type} head has no CRBM hidden units")
        if self.crbm_hidden is not None and self.crbm_hidden < 1:
            raise ConfigError(f"the CRBM needs at least 1 hidden unit, got {self.crbm_hidden}")
        if self.max_len < max(self.encoder.windows):
            raise ConfigError(
                f"max_len {self.max_len} is smaller than the widest filter window "
                f"{max(self.encoder.windows)}"
            )


def build_head(spec: ModelSpec, n_labels: int, rng: SeededRng):
    """The label head named by `spec`, over the encoder's output vector."""
    vw = spec.encoder.output_dim
    if spec.model_type == "logistic":
        return LogisticHead(n_labels, vw, rng)
    if spec.model_type == "residual":
        return ResidualHead(n_labels, vw, spec.n_layers, spec.hidden_sizes, rng)
    if spec.model_type == "plain":
        return PlainHead(n_labels, vw, spec.n_layers, spec.hidden_sizes, rng)
    J = spec.crbm_hidden if spec.crbm_hidden is not None else n_labels
    return crbm_ops.CrbmHead(n_labels, vw, J, rng)


class Model:
    """A trained or trainable classifier over prepared notes."""

    def __init__(
        self,
        spec: ModelSpec,
        vocab: Vocabulary,
        labels: list[str],
        embedding: EmbeddingTable,
        banks: list[FilterBank],
        head,
    ):
        self.spec = spec
        self.vocab = vocab
        self.labels = labels
        self.embedding = embedding
        self.banks = banks
        self.head = head

    @classmethod
    def build(cls, spec: ModelSpec, vocab: Vocabulary, labels: list[str], rng: SeededRng) -> "Model":
        emb_rng = rng.spawn(101)
        conv_rng = rng.spawn(102)
        head_rng = rng.spawn(103)
        embedding = load_embeddings(spec.embeddings_path, vocab, emb_rng, dim=spec.encoder.embedding_dim)
        banks = make_banks(spec.encoder, conv_rng)
        return cls(spec, vocab, labels, embedding, banks, build_head(spec, len(labels), head_rng))

    @property
    def n_labels(self) -> int:
        return len(self.labels)

    def params(self) -> list[ParamTensor]:
        out = [self.embedding.weights]
        for bank in self.banks:
            out.extend(bank.params())
        out.extend(self.head.params())
        return out

    def param_count(self) -> int:
        return sum(p.size for p in self.params())

    def zero_grads(self) -> None:
        for p in self.params():
            p.zero_grad()

    def encode_docs(
        self,
        notes: Notes,
        train_mode: bool = False,
        dropout_rng: SeededRng | None = None,
        keep_prob: float = 0.5,
    ):
        return encode_batch(
            notes.ids, notes.lens, self.embedding, self.banks, train_mode, dropout_rng, keep_prob
        )

    def predict_batch(self, notes: Notes) -> np.ndarray:
        """Eval-mode label marginals, row per note."""
        if not len(notes):
            return np.zeros((0, self.n_labels))
        x, _ = self.encode_docs(notes, train_mode=False)
        P, _ = self.head.forward(x)
        return P
