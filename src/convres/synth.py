"""Synthetic multi-label corpus with a correlated label prior and exact oracle.

Labels are drawn from an Ising-style prior P(y) proportional to
exp(unary^T y + 0.5 y^T pair_weights y). Each label owns a disjoint set of
keyword tokens; document tokens come from a mixture of label keywords and a
shared noise vocabulary, so the exact Bayes posterior over label sets is
computable by enumeration and serves as an upper bound for any classifier.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .crbm import all_label_configs
from .exceptions import CapacityError, ConfigError
from .numeric import SeededRng, logsumexp

EXACT_PRIOR_LIMIT = 16
GIBBS_BURN_IN, GIBBS_THIN = 50, 5  # sweeps of _sample_prior_gibbs
# label configs per block of _prior_table's pair terms: 64 KiB temporaries at
# 16 labels, where one block of all 2^16 would add an 8 MB one to peak memory
PRIOR_BLOCK = 1 << 9


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
        """Every field by name, the arrays and the doc_len pair as lists."""
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        return {k: np.asarray(v).tolist() if isinstance(v, (np.ndarray, tuple)) else v
                for k, v in out.items()}


def default_pair_weights(n_labels: int) -> np.ndarray:
    """Paired blocks (0,1), (2,3), ... of weight 2 with a chain of weight 0.5 between blocks."""
    A = np.zeros((n_labels, n_labels))
    for i in range(0, n_labels - 1, 2):
        A[i, i + 1] = A[i + 1, i] = 2.0
    for i in range(1, n_labels - 1, 2):
        A[i, i + 1] = A[i + 1, i] = 0.5
    return A


def default_unary(n_labels: int) -> np.ndarray:
    return np.full(n_labels, -1.6)


def _prior_table(cfg: SynthConfig) -> tuple[np.ndarray, np.ndarray]:
    """All label configurations and their prior probabilities."""
    L = cfg.n_labels
    if L > EXACT_PRIOR_LIMIT:
        raise CapacityError(f"exact prior enumeration limited to {EXACT_PRIOR_LIMIT} labels")
    configs = all_label_configs(L)
    # y.A.y of each config, a block of configs at a time
    pair = np.empty(len(configs))
    for lo in range(0, len(configs), PRIOR_BLOCK):
        block = configs[lo : lo + PRIOR_BLOCK]
        pair[lo : lo + PRIOR_BLOCK] = ((block @ cfg.pair_weights) * block).sum(axis=1)
    log_w = configs @ cfg.unary + 0.5 * pair
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


def _sample_prior_gibbs(cfg: SynthConfig, rng: SeededRng, n: int) -> np.ndarray:
    """Single-chain Gibbs sampler over the label prior for large label counts:
    GIBBS_BURN_IN sweeps, then GIBBS_THIN sweeps before each sample."""
    from .numeric import sigmoid

    L = cfg.n_labels
    y = np.zeros(L)
    out = np.zeros((n, L))

    def sweep():
        for l in range(L):
            p = sigmoid(cfg.unary[l] + cfg.pair_weights[l] @ y)
            y[l] = 1.0 if rng.uniform() < p else 0.0

    for _ in range(GIBBS_BURN_IN):
        sweep()
    for i in range(n):
        for _ in range(GIBBS_THIN):
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


def _token_table(cfg: SynthConfig) -> list[str]:
    """Every token the generator emits: the noise tokens, then label l's
    keywords from index n_noise + l * keywords_per_label on."""
    noise = [cfg.noise_token(i) for i in range(max(cfg.n_noise_tokens, 0))]
    return noise + [
        cfg.keyword(l, i) for l in range(cfg.n_labels) for i in range(cfg.keywords_per_label)
    ]


def _emit_doc(cfg: SynthConfig, rng: SeededRng, active: np.ndarray, table: list[str]) -> str:
    """One note's text, drawing what a token-by-token walk would draw.

    The walk draws the length, then per token a noise flag (only when a label
    is active) and either a noise id or a label and a keyword index. So a
    noise token takes 2 draws and a keyword 3: the note takes 3 * length
    uniforms in one call and gives back the ones its tokens left unused.
    """
    lo, hi = cfg.doc_len
    length = lo + rng.integers(hi - lo + 1)
    n_noise = cfg.n_noise_tokens
    if active.size == 0:
        ids = rng.integers(n_noise, size=length)
    else:
        u = rng.uniform(size=3 * length)
        is_noise = u < cfg.noise_rate
        flags = is_noise.tolist()
        starts = []
        pos = 0
        for _ in range(length):
            starts.append(pos)
            pos += 2 if flags[pos] else 3
        rng.give_back(3 * length - pos)
        s = np.array(starts)
        first, second = u[s + 1], u[s + 2]
        label = active[np.minimum((first * active.size).astype(np.int64), active.size - 1)]
        kpl = cfg.keywords_per_label
        keyword = np.minimum((second * kpl).astype(np.int64), kpl - 1)
        ids = np.where(
            is_noise[s],
            np.minimum((first * n_noise).astype(np.int64), n_noise - 1),
            max(n_noise, 0) + label * kpl + keyword,
        )
    return " ".join(map(table.__getitem__, ids.tolist()))


def generate_corpus(cfg: SynthConfig, n_docs: int) -> list[dict]:
    """Documents as {"text", "labels"} dicts, deterministic per config seed."""
    if n_docs < 1:
        raise ConfigError("n_docs must be >= 1")
    rng = SeededRng(cfg.seed)
    label_rng = rng.spawn(1)
    token_rng = rng.spawn(2)
    ys = sample_label_sets(cfg, label_rng, n_docs)
    table = _token_table(cfg)
    names = cfg.label_names()
    docs = []
    for y in ys:
        active = np.flatnonzero(y)
        text = _emit_doc(cfg, token_rng, active, table)
        docs.append({"text": text, "labels": [names[l] for l in active.tolist()]})
    return docs


# (note, label config) entries per block of oracle_marginals_for_corpus: 4 notes
# at 16 labels, whose 2 MB masked prior keeps the oracle's peak memory at that
# of the prior table it starts from
_ORACLE_BLOCK = 1 << 18


def _note_statistics(docs: list[dict], cfg: SynthConfig) -> tuple[np.ndarray, ...]:
    """Per note: the bitmask of labels whose keywords appear, the keyword
    count and the noise count. A token that is none of the config's keywords
    counts as noise."""
    label_of = {
        cfg.keyword(l, i): l for l in range(cfg.n_labels) for i in range(cfg.keywords_per_label)
    }
    masks = np.zeros(len(docs), dtype=np.int32)
    n_kw = np.zeros(len(docs), dtype=np.int64)
    n_noise = np.zeros(len(docs), dtype=np.int64)
    for i, doc in enumerate(docs):
        tokens = doc["text"].split()
        hits = [label_of[t] for t in tokens if t in label_of]
        for l in set(hits):
            masks[i] |= 1 << l
        n_kw[i] = len(hits)
        n_noise[i] = len(tokens) - len(hits)
    return masks, n_kw, n_noise


def oracle_marginals_for_corpus(docs: list[dict], cfg: SynthConfig) -> np.ndarray:
    """Exact posterior P(y_l = 1 | note) under the generative model, one row per note.

    P(y | note) is proportional to prior(y) * lik(k) over the label configs y
    that cover the labels whose keywords the note holds, k being y's active
    count; a note enters only through that label mask and its keyword and
    noise counts. Per block of notes, one pass masks the prior by coverage
    and, per k, one product sums the covering configs' label and prior mass.
    The k terms are then weighted by lik(k) in log space and normalised per
    note. A block holds at most _ORACLE_BLOCK (note, config) entries.
    """
    configs, prior = _prior_table(cfg)
    L = cfg.n_labels
    masks, n_kw, n_noise = _note_statistics(docs, cfg)
    # configs by active count: row i of the table has the bits of i, and the
    # configs with k labels on sit at sorted positions starts[k]:starts[k + 1]
    n_active = configs.sum(axis=1).astype(np.int64)
    del configs  # rebuilt in that order below, one column at a time
    codes = np.argsort(n_active, kind="stable").astype(np.int32)
    starts = np.searchsorted(n_active[codes], np.arange(L + 2)).tolist()
    prior = prior[codes]
    label_mass = np.ones((codes.size, L + 1))  # the last column sums the prior mass
    for l in range(L):
        label_mass[:, l] = (codes >> l) & 1

    # log_lik[i, k]: log-likelihood of note i under a covering config with k
    # labels on (k >= 1); k = 0 is the control config, which draws every token
    # uniformly from the noise vocabulary and so needs a note without keywords
    nr, n_vocab = cfg.noise_rate, cfg.n_noise_tokens
    log_lik = np.zeros((len(docs), L + 1))
    has_kw, has_noise = n_kw > 0, n_noise > 0
    if nr >= 1.0:
        log_lik[has_kw] = -np.inf
    else:
        per_kw = np.log(1.0 - nr) - np.log(
            np.maximum(np.arange(L + 1.0), 1.0) * cfg.keywords_per_label
        )
        log_lik[has_kw] = n_kw[has_kw, None] * per_kw
    if nr <= 0.0 or n_vocab < 1:
        log_lik[has_noise] += -np.inf
    else:
        with np.errstate(divide="ignore"):  # a noise rate that underflows nr / n_vocab
            log_lik[has_noise] += n_noise[has_noise, None] * np.log(nr / n_vocab)
    log_lik[:, 0] = -np.inf
    if n_vocab > 0:
        log_lik[~has_kw, 0] = -n_noise[~has_kw] * np.log(n_vocab)

    out = np.empty((len(docs), L))
    step = max(1, _ORACLE_BLOCK // codes.size)
    for lo in range(0, len(docs), step):
        mask = masks[lo : lo + step, None]
        covered = np.where((codes & mask) == mask, prior, 0.0)
        mass = np.stack(
            [covered[:, a:b] @ label_mass[a:b] for a, b in zip(starts[:-1], starts[1:])], axis=1
        )  # (notes, k, labels + 1)
        total = mass[:, :, L]
        with np.errstate(divide="ignore"):
            log_w = np.where(total > 0.0, log_lik[lo : lo + step] + np.log(total), -np.inf)
        top = log_w.max(axis=1, keepdims=True)
        if not np.isfinite(top).all():
            i = lo + int(np.flatnonzero(~np.isfinite(top))[0])
            raise ConfigError(f"note {i} has zero likelihood under every label configuration")
        w = np.exp(log_w - top) / np.where(total > 0.0, total, 1.0)
        post = np.einsum("nk,nkl->nl", w, mass)
        out[lo : lo + step] = post[:, :L] / post[:, L:]
    return out


def write_corpus(path: str | Path, docs: list[dict]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for doc in docs:
            fh.write(json.dumps({"text": doc["text"], "labels": doc["labels"]}) + "\n")


def write_ground_truth(path: str | Path, cfg: SynthConfig) -> None:
    obj = {"config": cfg.to_json_dict(), "label_names": cfg.label_names()}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, separators=(",", ":"))
        fh.write("\n")
