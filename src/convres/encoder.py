"""CNN sentence encoder: multi-window convolution, tanh, max-over-time pooling.

Two equivalent paths are provided. The per-document functions below are the
readable reference used by gradient tests; `encode_batch` is the vectorized
path used for training and bulk scoring. Filter weights for a window of t
words are stored row-per-filter, flattened time-major, i.e. filter row f is
[X[:,j] block, X[:,j+1] block, ..., X[:,j+t-1] block] against one position j.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .exceptions import ConfigError, ShapeError
from .numeric import ParamTensor, SeededRng
from .text import EmbeddingTable


@dataclass
class EncoderConfig:
    windows: tuple[int, ...] = (3, 4, 5)
    filters_per_window: int = 100
    embedding_dim: int = 300

    def __post_init__(self):
        self.windows = tuple(int(w) for w in self.windows)
        if not self.windows or any(w < 1 for w in self.windows):
            raise ConfigError(f"invalid window sizes {self.windows}")
        if list(self.windows) != sorted(set(self.windows)):
            raise ConfigError("windows must be strictly ascending")
        if self.filters_per_window < 1:
            raise ConfigError("need at least one filter per window")
        if self.embedding_dim < 1:
            raise ConfigError(f"embedding dimension must be at least 1, got {self.embedding_dim}")

    @property
    def output_dim(self) -> int:
        return len(self.windows) * self.filters_per_window


@dataclass
class ConvFilter:
    """A single filter: weights laid out dim x window, plus a scalar bias."""

    window: int
    weights: ParamTensor
    bias: ParamTensor


class FilterBank:
    """All filters of one window size, stacked for batched evaluation."""

    def __init__(self, window: int, n_filters: int, embedding_dim: int, rng: SeededRng):
        self.window = window
        self.n_filters = n_filters
        self.embedding_dim = embedding_dim
        self.weights = ParamTensor(
            f"conv_w{window}", rng.uniform(-0.01, 0.01, (n_filters, window * embedding_dim))
        )
        self.bias = ParamTensor(f"conv_b{window}", np.zeros(n_filters))

    def params(self) -> list[ParamTensor]:
        return [self.weights, self.bias]


def make_banks(config: EncoderConfig, rng: SeededRng) -> list[FilterBank]:
    return [
        FilterBank(w, config.filters_per_window, config.embedding_dim, rng)
        for w in config.windows
    ]


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


@dataclass
class BatchEncodeCache:
    cols_at: list[np.ndarray]
    ids_at: list[np.ndarray]
    pooled: list[np.ndarray]
    dropout_mask: np.ndarray | None
    keep_prob: float


def encode_batch(
    ids: np.ndarray,
    valid_lens: np.ndarray,
    table: EmbeddingTable,
    banks: Sequence[FilterBank],
    train_mode: bool = False,
    dropout_rng: SeededRng | None = None,
    keep_prob: float = 0.5,
) -> tuple[np.ndarray, np.ndarray, BatchEncodeCache]:
    """Encode a batch of id sequences; returns (x, argmax positions, cache).

    `ids` is (batch, width) with width at least max(valid_lens.max(), widest
    window); positions that would read past a document's valid length are
    masked out of the pooling, which makes the result independent of how far
    the sequences are padded.
    """
    B = ids.shape[0]
    emb = table.weights.value
    k = table.dim
    pooled_parts, argmax_parts = [], []
    cache = BatchEncodeCache([], [], [], None, keep_prob)
    for bank in banks:
        t = bank.window
        n_pos = np.maximum(valid_lens, t) - t + 1
        p_max = int(n_pos.max())
        ids_win = sliding_window_view(ids, t, axis=1)[:, :p_max]  # (B, p_max, t)
        cols = emb[ids_win].reshape(B, p_max, t * k)
        g = np.tanh(cols.reshape(B * p_max, t * k) @ bank.weights.value.T + bank.bias.value)
        g = g.reshape(B, p_max, bank.n_filters)
        invalid = np.arange(p_max)[None, :] >= n_pos[:, None]
        g[invalid] = -np.inf
        idx = np.argmax(g, axis=1)  # (B, filters)
        rows = np.arange(B)[:, None]
        pooled = g[rows, idx, np.arange(bank.n_filters)[None, :]]
        pooled_parts.append(pooled)
        argmax_parts.append(idx)
        cache.cols_at.append(cols[rows, idx])   # (B, filters, t*k)
        cache.ids_at.append(ids_win[rows, idx])  # (B, filters, t)
        cache.pooled.append(pooled)
    x = np.concatenate(pooled_parts, axis=1)
    argmax = np.concatenate(argmax_parts, axis=1)
    if train_mode:
        mask = dropout_rng.bernoulli(keep_prob, x.shape).astype(np.float64)
        cache.dropout_mask = mask
        x = x * mask / keep_prob
    return x, argmax, cache


def encode_batch_backward(
    cache: BatchEncodeCache,
    dx: np.ndarray,
    table: EmbeddingTable,
    banks: Sequence[FilterBank],
) -> None:
    """Accumulate gradients into the filter banks and the embedding table."""
    if cache.dropout_mask is not None:
        dx = dx * cache.dropout_mask / cache.keep_prob
    offset = 0
    k = table.dim
    for w_idx, bank in enumerate(banks):
        ds_pool = dx[:, offset : offset + bank.n_filters]
        offset += bank.n_filters
        pooled = cache.pooled[w_idx]
        ds = ds_pool * (1.0 - pooled * pooled)  # (B, filters)
        cols_at = cache.cols_at[w_idx]
        bank.weights.grad += np.einsum("bf,bfc->fc", ds, cols_at)
        bank.bias.grad += ds.sum(axis=0)
        dcols = ds[:, :, None] * bank.weights.value[None, :, :]  # (B, filters, t*k)
        ids_flat = cache.ids_at[w_idx].reshape(-1)
        np.add.at(table.weights.grad, ids_flat, dcols.reshape(-1, bank.window, k).reshape(-1, k))
