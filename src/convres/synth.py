"""Synthetic multi-label corpus with a correlated label prior and exact oracle.

Labels are drawn from an Ising-style prior P(y) proportional to
exp(unary^T y + 0.5 y^T pair_weights y). Each label owns a disjoint set of
keyword tokens; document tokens come from a mixture of label keywords and a
shared noise vocabulary, so the exact Bayes posterior over label sets is
computable by enumeration and serves as an upper bound for any classifier.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .crbm import all_label_configs
from .exceptions import CapacityError, ConfigError
from .numeric import SeededRng, logsumexp

EXACT_PRIOR_LIMIT = 16


@dataclass
class SynthConfig:
    n_labels: int
    vocab_size: int
    pair_weights: np.ndarray
    unary: np.ndarray
    keywords_per_label: int
    doc_len: tuple[int, int]
    noise_rate: float
    seed: int
    allow_controls: bool = False

    def __post_init__(self):
        self.pair_weights = np.asarray(self.pair_weights, dtype=np.float64)
        self.unary = np.asarray(self.unary, dtype=np.float64)
        L = self.n_labels
        if self.pair_weights.shape != (L, L):
            raise ConfigError(f"pair_weights must be {L}x{L}")
        if not np.allclose(self.pair_weights, self.pair_weights.T):
            raise ConfigError("pair_weights must be symmetric")
        if np.any(np.diag(self.pair_weights) != 0.0):
            raise ConfigError("pair_weights must have a zero diagonal")
        if self.unary.shape != (L,):
            raise ConfigError(f"unary must have length {L}")
        if self.keywords_per_label < 1:
            raise ConfigError("keywords_per_label must be >= 1")
        if self.doc_len[0] < 1 or self.doc_len[0] > self.doc_len[1]:
            raise ConfigError(f"invalid doc_len range {self.doc_len}")
        if not 0.0 <= self.noise_rate <= 1.0:
            raise ConfigError("noise_rate must be in [0, 1]")
        if self.n_noise_tokens < 1 and (self.noise_rate > 0.0 or self.allow_controls):
            raise ConfigError("vocabulary leaves no room for noise tokens")

    @property
    def n_noise_tokens(self) -> int:
        return self.vocab_size - self.n_labels * self.keywords_per_label

    def keyword(self, label: int, i: int) -> str:
        return f"k{label:02d}w{i:03d}"

    def noise_token(self, i: int) -> str:
        return f"n{i:05d}"

    def label_name(self, label: int) -> str:
        return f"label{label:02d}"

    def label_names(self) -> list[str]:
        return [self.label_name(l) for l in range(self.n_labels)]

    def to_json_dict(self) -> dict:
        return {
            "n_labels": self.n_labels,
            "vocab_size": self.vocab_size,
            "pair_weights": [[float(v) for v in row] for row in self.pair_weights],
            "unary": [float(v) for v in self.unary],
            "keywords_per_label": self.keywords_per_label,
            "doc_len": [int(self.doc_len[0]), int(self.doc_len[1])],
            "noise_rate": self.noise_rate,
            "seed": self.seed,
            "allow_controls": self.allow_controls,
        }


def default_pair_weights(n_labels: int, strength: float = 2.0) -> np.ndarray:
    """Paired blocks (0,1), (2,3), ... with a weaker chain between blocks."""
    A = np.zeros((n_labels, n_labels))
    for i in range(0, n_labels - 1, 2):
        A[i, i + 1] = A[i + 1, i] = strength
    for i in range(1, n_labels - 1, 2):
        A[i, i + 1] = A[i + 1, i] = strength * 0.25
    return A


def default_unary(n_labels: int, level: float = -1.6) -> np.ndarray:
    return np.full(n_labels, level)


def _prior_table(cfg: SynthConfig) -> tuple[np.ndarray, np.ndarray]:
    """All label configurations and their prior probabilities."""
    L = cfg.n_labels
    if L > EXACT_PRIOR_LIMIT:
        raise CapacityError(f"exact prior enumeration limited to {EXACT_PRIOR_LIMIT} labels")
    configs = all_label_configs(L)
    log_w = configs @ cfg.unary + 0.5 * np.einsum("ci,ij,cj->c", configs, cfg.pair_weights, configs)
    if not cfg.allow_controls:
        log_w[0] = -np.inf
    probs = np.exp(log_w - logsumexp(log_w))
    return configs, probs


def _sample_prior_exact(cfg: SynthConfig, rng: SeededRng, n: int) -> np.ndarray:
    configs, probs = _prior_table(cfg)
    cum = np.cumsum(probs)
    cum[-1] = 1.0
    picks = np.searchsorted(cum, rng.uniform(size=n), side="right")
    return configs[picks]


def _sample_prior_gibbs(cfg: SynthConfig, rng: SeededRng, n: int,
                        burn_in: int = 50, thin: int = 5) -> np.ndarray:
    """Single-chain Gibbs sampler over the label prior for large label counts."""
    from .numeric import sigmoid

    L = cfg.n_labels
    y = np.zeros(L)
    out = np.zeros((n, L))

    def sweep():
        for l in range(L):
            p = sigmoid(cfg.unary[l] + cfg.pair_weights[l] @ y)
            y[l] = 1.0 if rng.uniform() < p else 0.0

    for _ in range(burn_in):
        sweep()
    for i in range(n):
        for _ in range(thin):
            sweep()
        if not cfg.allow_controls:
            while y.sum() == 0:
                sweep()
        out[i] = y
    return out


def sample_label_sets(cfg: SynthConfig, rng: SeededRng, n: int) -> np.ndarray:
    if cfg.n_labels <= EXACT_PRIOR_LIMIT:
        return _sample_prior_exact(cfg, rng, n)
    return _sample_prior_gibbs(cfg, rng, n)


def _emit_doc(cfg: SynthConfig, rng: SeededRng, y: np.ndarray) -> list[str]:
    lo, hi = cfg.doc_len
    length = lo + rng.integers(hi - lo + 1)
    active = np.flatnonzero(y)
    tokens = []
    for _ in range(length):
        if active.size == 0 or rng.uniform() < cfg.noise_rate:
            tokens.append(cfg.noise_token(rng.integers(cfg.n_noise_tokens)))
        else:
            label = int(active[rng.integers(active.size)])
            tokens.append(cfg.keyword(label, rng.integers(cfg.keywords_per_label)))
    return tokens


def generate_corpus(cfg: SynthConfig, n_docs: int) -> list[dict]:
    """Documents as {"text", "labels"} dicts, deterministic per config seed."""
    if n_docs < 1:
        raise ConfigError("n_docs must be >= 1")
    rng = SeededRng(cfg.seed)
    label_rng = rng.spawn(1)
    token_rng = rng.spawn(2)
    ys = sample_label_sets(cfg, label_rng, n_docs)
    docs = []
    for i in range(n_docs):
        tokens = _emit_doc(cfg, token_rng, ys[i])
        labels = [cfg.label_name(l) for l in np.flatnonzero(ys[i])]
        docs.append({"text": " ".join(tokens), "labels": labels})
    return docs


def _token_kind(cfg: SynthConfig, token: str) -> tuple[str, int]:
    """('keyword', label) or ('noise', -1); unknown tokens count as noise."""
    if token.startswith("k") and "w" in token:
        try:
            label = int(token[1:3])
            if 0 <= label < cfg.n_labels:
                return "keyword", label
        except ValueError:
            pass
    return "noise", -1


def bayes_optimal_marginals(
    tokens: list[str],
    cfg: SynthConfig,
    prior_table: tuple[np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """Exact posterior P(y_l = 1 | tokens) under the generative model.

    `prior_table` lets corpus-level callers enumerate the prior once.
    """
    configs, prior = prior_table if prior_table is not None else _prior_table(cfg)
    kw_counts = np.zeros(cfg.n_labels)
    n_noise = 0
    for t in tokens:
        kind, label = _token_kind(cfg, t)
        if kind == "keyword":
            kw_counts[label] += 1
        else:
            n_noise += 1
    total_kw = int(kw_counts.sum())
    needed = kw_counts > 0  # labels whose keywords appear must be active

    n_configs = configs.shape[0]
    n_active = configs.sum(axis=1)
    covers = configs[:, needed].sum(axis=1) == int(needed.sum())
    log_lik = np.full(n_configs, -np.inf)

    # control configuration: every token drawn uniformly from the noise vocabulary
    if total_kw == 0 and cfg.n_noise_tokens > 0:
        log_lik[0] = -len(tokens) * np.log(cfg.n_noise_tokens)

    active = (n_active > 0) & covers
    if active.any():
        vals = np.zeros(n_configs)
        if total_kw > 0:
            if cfg.noise_rate >= 1.0:
                vals += -np.inf
            else:
                vals += total_kw * (
                    np.log(1.0 - cfg.noise_rate)
                    - np.log(np.maximum(n_active, 1.0) * cfg.keywords_per_label)
                )
        if n_noise > 0:
            if cfg.noise_rate <= 0.0 or cfg.n_noise_tokens < 1:
                vals += -np.inf
            else:
                vals += n_noise * np.log(cfg.noise_rate / cfg.n_noise_tokens)
        log_lik[active] = vals[active]

    with np.errstate(divide="ignore"):
        log_prior = np.where(prior > 0.0, np.log(np.maximum(prior, 1e-300)), -np.inf)
    log_post = log_prior + log_lik
    norm = logsumexp(log_post)
    if not np.isfinite(norm):
        raise ConfigError("document has zero likelihood under every label configuration")
    post = np.exp(log_post - norm)
    return post @ configs


def oracle_marginals_for_corpus(docs: list[dict], cfg: SynthConfig) -> np.ndarray:
    table = _prior_table(cfg)
    out = np.zeros((len(docs), cfg.n_labels))
    for i, doc in enumerate(docs):
        out[i] = bayes_optimal_marginals(doc["text"].split(), cfg, prior_table=table)
    return out


def write_corpus(path: str | Path, docs: list[dict]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for doc in docs:
            fh.write(json.dumps({"text": doc["text"], "labels": doc["labels"]}) + "\n")


def write_ground_truth(
    path: str | Path,
    cfg: SynthConfig,
    docs: list[dict] | None = None,
    include_marginals: bool = False,
) -> None:
    obj = {"config": cfg.to_json_dict(), "label_names": cfg.label_names()}
    if include_marginals and docs is not None:
        obj["oracle_marginals"] = [
            [float(v) for v in row] for row in oracle_marginals_for_corpus(docs, cfg)
        ]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, separators=(",", ":"))
        fh.write("\n")
