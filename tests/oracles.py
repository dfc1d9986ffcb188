"""Brute-force reference implementations used to cross-check the library.

Everything here is deliberately naive: full sorts, explicit pair counting,
joint enumeration in pure Python loops, a per-document encoder that builds
every window's column matrix, a row-by-row embedding scatter, the
rebinding Adam expression, a synthetic generator with one SeededRng call
per draw and a Bayes oracle that scores one note at a time. These functions
never share code with the implementations they check; the synthetic
references reuse only the label prior (its table and its sampler).
"""

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from convres.encoder import BatchEncodeCache, FilterBank
from convres.exceptions import ConfigError, ShapeError
from convres.numeric import ParamTensor, SeededRng, logsumexp
from convres.synth import SynthConfig, _prior_table, sample_label_sets
from convres.text import EmbeddingTable


def rank_by_full_sort(scores, k):
    L = len(scores)
    order = sorted(range(L), key=lambda i: (-scores[i], i))
    return order[: min(k, L)]


def precision_oracle(scores, truth, k):
    top = rank_by_full_sort(scores, k)
    return sum(truth[i] for i in top) / k


def ndcg_oracle(scores, truth, k):
    n_pos = int(sum(truth))
    if n_pos == 0:
        return 0.0
    top = rank_by_full_sort(scores, k)
    dcg = 0.0
    for pos, label in enumerate(top, start=1):
        if truth[label]:
            dcg += 1.0 / math.log2(pos + 1)
    ideal = sum(1.0 / math.log2(pos + 1) for pos in range(1, min(k, n_pos) + 1))
    return dcg / ideal


def auc_pair_oracle(scores, truth):
    """AUC by enumerating positive-negative pairs; ties count one half."""
    pos = [s for s, t in zip(scores, truth) if t]
    neg = [s for s, t in zip(scores, truth) if not t]
    if not pos or not neg:
        return None
    wins = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                wins += 1.0
            elif p == n:
                wins += 0.5
    return wins / (len(pos) * len(neg))


def crbm_joint_enumeration(x, W, G, b, c):
    """Marginals and log Z by summing over labels AND hidden units jointly."""
    L = W.shape[0]
    J = G.shape[1]
    total = 0.0
    marginal = np.zeros(L)
    for y_bits in itertools.product([0, 1], repeat=L):
        y = np.array(y_bits, dtype=float)
        for h_bits in itertools.product([0, 1], repeat=J):
            h = np.array(h_bits, dtype=float)
            energy_con = -float(y @ W @ x)
            energy_rbm = -float(y @ G @ h + y @ b + c @ h)
            mass = math.exp(-energy_con - energy_rbm)
            total += mass
            marginal += mass * y
    return marginal / total, math.log(total)


def crbm_cond_h_enumeration(y, x, W, G, b, c, j):
    """P(h_j = 1 | y, x) by direct Bayes enumeration over the other units."""
    J = G.shape[1]
    num, den = 0.0, 0.0
    for h_bits in itertools.product([0, 1], repeat=J):
        h = np.array(h_bits, dtype=float)
        mass = math.exp(float(y @ W @ x + y @ G @ h + y @ b + c @ h))
        den += mass
        if h_bits[j] == 1:
            num += mass
    return num / den


def crbm_cond_y_enumeration(h, x, W, G, b, c, l):
    """P(y_l = 1 | h, x) by direct Bayes enumeration over the other labels."""
    L = W.shape[0]
    num, den = 0.0, 0.0
    for y_bits in itertools.product([0, 1], repeat=L):
        y = np.array(y_bits, dtype=float)
        mass = math.exp(float(y @ W @ x + y @ G @ h + y @ b + c @ h))
        den += mass
        if y_bits[l] == 1:
            num += mass
    return num / den


def residual_scalar_reference(x, W0, b_list, W_list, G_list, c_list):
    """Step-by-step scalar transcription of the residual recurrence.

    Pure Python floats and index loops; no vectorized shortcuts.
    """
    def sig(v):
        return 1.0 / (1.0 + math.exp(-v))

    L = len(b_list[0])
    n = len(W_list)
    z = [sum(W0[l][m] * x[m] for m in range(len(x))) + b_list[0][l] for l in range(L)]
    zs = [list(z)]
    qs = []
    sig_q = []
    for i in range(1, n + 1):
        h = len(c_list[i - 1])
        s_prev = [sig(zs[i - 1][l]) for l in range(L)]
        q = [
            sum(G_list[i - 1][l][m] * s_prev[l] for l in range(L)) + c_list[i - 1][m]
            for m in range(h)
        ]
        qs.append(q)
        sig_q.append([sig(v) for v in q])
        z_i = []
        for l in range(L):
            acc = sum(W0[l][m] * x[m] for m in range(len(x))) + b_list[i][l]
            for t in range(1, i + 1):
                h_t = len(c_list[t - 1])
                acc += sum(W_list[t - 1][l][m] * sig_q[t - 1][m] for m in range(h_t))
            z_i.append(acc)
        zs.append(z_i)
    p = [sig(v) for v in zs[n]]
    return p, zs, qs


def synth_posterior_enumeration(tokens, n_labels, pair, unary, keywords_per_label,
                                n_noise, noise_rate, allow_controls):
    """Posterior over label sets by explicit per-token likelihood products."""
    keyword_label = {
        f"k{l:02d}w{i:03d}": l for l in range(n_labels) for i in range(keywords_per_label)
    }
    weights = []
    configs = []
    for y_bits in itertools.product([0, 1], repeat=n_labels):
        y = list(y_bits)
        configs.append(y)
        prior = math.exp(
            sum(unary[l] * y[l] for l in range(n_labels))
            + 0.5 * sum(
                pair[i][j] * y[i] * y[j]
                for i in range(n_labels)
                for j in range(n_labels)
            )
        )
        if not allow_controls and sum(y) == 0:
            prior = 0.0
        active = [l for l in range(n_labels) if y[l]]
        lik = 1.0
        for tok in tokens:
            if tok in keyword_label:
                label = keyword_label[tok]
                if not active or label not in active:
                    lik = 0.0
                    break
                lik *= (1.0 - noise_rate) / (len(active) * keywords_per_label)
            else:
                if active:
                    lik *= noise_rate / n_noise
                else:
                    lik *= 1.0 / n_noise
        weights.append(prior * lik)
    total = sum(weights)
    marginals = [
        sum(w for w, y in zip(weights, configs) if y[l]) / total
        for l in range(n_labels)
    ]
    return marginals


# ---------------------------------------------------------------------------
# Token-by-token synthetic generator and per-note Bayes oracle: the slow twins
# of convres.synth.generate_corpus and oracle_marginals_for_corpus.


def emit_doc_per_draw(cfg: SynthConfig, rng: SeededRng, y: np.ndarray) -> list[str]:
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


def generate_corpus_per_draw(cfg: SynthConfig, n_docs: int, token_rng_out: list | None = None):
    """Documents as {"text", "labels"} dicts, one SeededRng call per draw.

    If `token_rng_out` is a list, the token stream is appended to it, so a
    caller can compare the draws that follow the corpus."""
    if n_docs < 1:
        raise ConfigError("n_docs must be >= 1")
    rng = SeededRng(cfg.seed)
    label_rng = rng.spawn(1)
    token_rng = rng.spawn(2)
    ys = sample_label_sets(cfg, label_rng, n_docs)
    docs = []
    for i in range(n_docs):
        tokens = emit_doc_per_draw(cfg, token_rng, ys[i])
        labels = [cfg.label_name(l) for l in np.flatnonzero(ys[i])]
        docs.append({"text": " ".join(tokens), "labels": labels})
    if token_rng_out is not None:
        token_rng_out.append(token_rng)
    return docs


def _token_kind(cfg: SynthConfig, token: str) -> tuple[str, int]:
    """('keyword', label) or ('noise', -1); tokens that are none of the
    config's keywords count as noise."""
    for label in range(cfg.n_labels):
        for i in range(cfg.keywords_per_label):
            if token == cfg.keyword(label, i):
                return "keyword", label
    return "noise", -1


def bayes_optimal_marginals(
    tokens: list[str],
    cfg: SynthConfig,
    prior_table: tuple[np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """Exact posterior P(y_l = 1 | tokens) under the generative model, one
    note at a time over the whole config table.

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


# ---------------------------------------------------------------------------
# Per-document reference encoder: the slow, readable twin of
# convres.encoder.encode_batch. A sentence matrix X is (k, T), one embedding
# column per position; each window's column blocks are materialized.


@dataclass
class ConvFilter:
    """A single filter: weights laid out dim x window, plus a scalar bias."""

    window: int
    weights: ParamTensor
    bias: ParamTensor


@dataclass
class EncodedSentence:
    x: np.ndarray
    argmax_positions: np.ndarray


def _padded_columns(X: np.ndarray, valid_len: int, window: int) -> np.ndarray:
    """Position-major column blocks over the valid region, zero-padded so a
    document shorter than the window still yields one position."""
    k, T = X.shape
    effective = max(valid_len, window)
    if T < effective:
        X = np.hstack([X, np.zeros((k, effective - T))])
    n_pos = effective - window + 1
    XT = np.ascontiguousarray(X.T[:effective])
    return sliding_window_view(XT, window, axis=0)[:n_pos].transpose(0, 2, 1).reshape(n_pos, window * k)


def conv_feature_map(X: np.ndarray, filt: ConvFilter, valid_len: int) -> np.ndarray:
    """Feature map g over valid positions: g_j = tanh(<X[:, j:j+t], W> + bias)."""
    k, _ = X.shape
    if filt.weights.value.shape[0] != k:
        raise ShapeError(
            f"filter dim {filt.weights.value.shape} does not match input rows {X.shape}"
        )
    cols = _padded_columns(X, valid_len, filt.window)
    w_flat = filt.weights.value.T.reshape(-1)
    return np.tanh(cols @ w_flat + filt.bias.value[0])


def max_over_time(g: np.ndarray) -> tuple[float, int]:
    """Maximum of the feature map and its lowest attaining index."""
    g = np.asarray(g, dtype=np.float64)
    if g.size == 0:
        raise ShapeError("max_over_time on an empty feature map")
    idx = int(np.argmax(g))
    return float(g[idx]), idx


@dataclass
class EncodeCache:
    """Per-window intermediates kept for the reference backward pass."""

    cols: list[np.ndarray]
    feature_maps: list[np.ndarray]
    argmax: list[np.ndarray]
    pooled: list[np.ndarray]
    valid_len: int
    x_shape: tuple[int, int]
    dropout_mask: np.ndarray | None = None
    keep_prob: float = 0.5


def encode(
    X: np.ndarray,
    valid_len: int,
    banks: Sequence[FilterBank],
    train_mode: bool = False,
    dropout_rng: SeededRng | None = None,
    keep_prob: float = 0.5,
) -> EncodedSentence:
    """Encode one sentence matrix into the pooled filter-response vector."""
    enc, _ = encode_forward(X, valid_len, banks, train_mode, dropout_rng, keep_prob)
    return enc


def encode_forward(
    X: np.ndarray,
    valid_len: int,
    banks: Sequence[FilterBank],
    train_mode: bool = False,
    dropout_rng: SeededRng | None = None,
    keep_prob: float = 0.5,
) -> tuple[EncodedSentence, EncodeCache]:
    cache = EncodeCache([], [], [], [], valid_len, X.shape, keep_prob=keep_prob)
    pooled_parts = []
    argmax_parts = []
    for bank in banks:
        cols = _padded_columns(X, valid_len, bank.window)
        g = np.tanh(cols @ bank.weights.value.T + bank.bias.value)  # (positions, filters)
        idx = np.argmax(g, axis=0)
        pooled = g[idx, np.arange(bank.n_filters)]
        cache.cols.append(cols)
        cache.feature_maps.append(g)
        cache.argmax.append(idx)
        cache.pooled.append(pooled)
        pooled_parts.append(pooled)
        argmax_parts.append(idx)
    x = np.concatenate(pooled_parts)
    if train_mode:
        mask = dropout_rng.bernoulli(keep_prob, x.shape).astype(np.float64)
        cache.dropout_mask = mask
        x = x * mask / keep_prob
    return EncodedSentence(x=x, argmax_positions=np.concatenate(argmax_parts)), cache


def encode_backward(
    cache: EncodeCache,
    dx: np.ndarray,
    banks: Sequence[FilterBank],
) -> np.ndarray:
    """Accumulate filter gradients and return the gradient w.r.t. X.

    The pooled maximum routes all gradient to its argmax position; every
    other position of a feature map receives exactly zero.
    """
    if cache.dropout_mask is not None:
        dx = dx * cache.dropout_mask / cache.keep_prob
    k, T = cache.x_shape
    dX = np.zeros((k, T))
    offset = 0
    for w_idx, bank in enumerate(banks):
        ds_pool = dx[offset : offset + bank.n_filters]
        offset += bank.n_filters
        pooled = cache.pooled[w_idx]
        idx = cache.argmax[w_idx]
        cols = cache.cols[w_idx]
        ds = ds_pool * (1.0 - pooled * pooled)  # through tanh at the argmax
        cols_at = cols[idx]  # (filters, window*k)
        bank.weights.grad += ds[:, None] * cols_at
        bank.bias.grad += ds
        dcols = np.zeros_like(cols)
        np.add.at(dcols, idx, ds[:, None] * bank.weights.value)
        dcols3 = dcols.reshape(cols.shape[0], bank.window, k)
        for t_off in range(bank.window):
            lo = t_off
            hi = min(t_off + cols.shape[0], T)
            if hi > lo:
                dX[:, lo:hi] += dcols3[: hi - lo, t_off, :].T
    return dX


def encode_batch_backward_rows(
    cache: BatchEncodeCache,
    dx: np.ndarray,
    table: EmbeddingTable,
    banks: Sequence[FilterBank],
) -> None:
    """convres.encoder.encode_batch_backward with the embedding gradient
    scattered as B*F*t rows of k values: the (B, filters, t*k) window
    gradients are built whole and added row by row with one np.add.at."""
    if cache.dropout_mask is not None:
        dx = dx * cache.dropout_mask / cache.keep_prob
    offset = 0
    k = table.dim
    for w_idx, bank in enumerate(banks):
        ds_pool = dx[:, offset : offset + bank.n_filters]
        offset += bank.n_filters
        pooled = cache.pooled[w_idx]
        ds = ds_pool * (1.0 - pooled * pooled)  # (B, filters)
        ids_at = cache.ids_at[w_idx]
        # the (B, filters, t*k) window columns at each argmax, freed after the sum
        cols_at = table.weights.value[ids_at].reshape(*ds.shape, -1)
        bank.weights.grad += np.einsum("bf,bfc->fc", ds, cols_at)
        del cols_at
        bank.bias.grad += ds.sum(axis=0)
        dcols = ds[:, :, None] * bank.weights.value[None, :, :]  # (B, filters, t*k)
        np.add.at(table.weights.grad, ids_at.reshape(-1), dcols.reshape(-1, k))


def adam_step_rebinding(p: ParamTensor, lr=2e-4, beta1=0.9, beta2=0.999, eps=1e-8) -> None:
    """Bias-corrected Adam written as one expression per line, rebinding
    p.m and p.v to new arrays at every step."""
    p.step += 1
    p.m = beta1 * p.m + (1.0 - beta1) * p.grad
    p.v = beta2 * p.v + (1.0 - beta2) * (p.grad * p.grad)
    m_hat = p.m / (1.0 - beta1 ** p.step)
    v_hat = p.v / (1.0 - beta2 ** p.step)
    p.value -= lr * m_hat / (np.sqrt(v_hat) + eps)
