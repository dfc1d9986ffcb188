"""CNN sentence encoder: multi-window convolution, tanh, max-over-time pooling.

`encode_batch` is the one path, used for training, validation and scoring;
the slow per-document reference it is tested against lives in
tests/oracles.py. Filter weights for a window of t words are stored
row-per-filter, flattened time-major, i.e. filter row f is
[X[:,j] block, X[:,j+1] block, ..., X[:,j+t-1] block] against one position j.

The forward pass is kn2row (Vasudevan et al. 2017, arXiv 1704.04428): the
embeddings of a chunk of notes are multiplied once by the (k, t*F) filter
slices of every bank, offset by offset, and the pre-activation of window t
at position j is the sum over offsets o < t of the product's row j + o in
offset o's column block. No (positions, t*k) window matrix is ever built.

The backward pass needs only the window at each pooled position: one einsum
over those windows' columns gives each bank's filter gradient, and the
embedding gradient is a flat scatter of scalars, one 1-D np.add.at per chunk
of notes keyed by (table row * k + dimension), numpy's fast ufunc.at path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .exceptions import ConfigError
from .numeric import ParamTensor, SeededRng
from .text import PAD_ID, EmbeddingTable

# entries of the embeddings-times-filters product per chunk of notes (8 MB of
# float64, at least one note per chunk). It bounds the forward pass's memory
# at any batch size; chunks this small also ran faster than larger ones at
# both the benchmark and the paper size, as the shifted sums reread the product.
# The backward pass's embedding scatter uses the same bound per chunk of notes.
CHUNK_ENTRIES = 1 << 20


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
class BatchEncodeCache:
    """Per bank, the window ids at each pooled position and the pooled values."""

    ids_at: list[np.ndarray]  # (B, filters, window)
    pooled: list[np.ndarray]  # (B, filters), before dropout
    dropout_mask: np.ndarray | None
    keep_prob: float


def _offset_filters(banks: Sequence[FilterBank], k: int) -> np.ndarray:
    """(k, sum of t*F): each bank's (k, F) filter slice for offset 0, 1, ..., t-1."""
    return np.concatenate(
        [b.weights.value.reshape(b.n_filters, b.window, k).transpose(2, 1, 0).reshape(k, -1)
         for b in banks],
        axis=1,
    )


def encode_batch(
    ids: np.ndarray,
    valid_lens: np.ndarray,
    table: EmbeddingTable,
    banks: Sequence[FilterBank],
    train_mode: bool = False,
    dropout_rng: SeededRng | None = None,
    keep_prob: float = 0.5,
) -> tuple[np.ndarray, BatchEncodeCache]:
    """Encode a batch of id sequences; returns (x, cache).

    `ids` is (batch, width) with width at least valid_lens.max(). The batch
    is trimmed, or padded with PAD_ID, to max(valid_lens.max(), widest window)
    columns; positions that would read past a document's valid length are
    masked out of the pooling, which makes the result independent of how far
    the sequences are padded.
    Notes are encoded in chunks of at most CHUNK_ENTRIES product entries.
    """
    B = ids.shape[0]
    k = table.dim
    width = int(max(valid_lens.max(), max(b.window for b in banks)))
    ids = ids[:, :width]
    if ids.shape[1] < width:  # every note is shorter than the widest window
        ids = np.pad(ids, ((0, 0), (0, width - ids.shape[1])), constant_values=PAD_ID)
    filters = _offset_filters(banks, k)
    step = max(1, CHUNK_ENTRIES // (width * filters.shape[1]))
    pooled = [np.empty((B, b.n_filters)) for b in banks]
    argmax = [np.empty((B, b.n_filters), dtype=np.int64) for b in banks]
    for lo in range(0, B, step):
        part = slice(lo, min(lo + step, B))
        n = part.stop - lo
        prod = (table.weights.value[ids[part]].reshape(n * width, k) @ filters).reshape(n, width, -1)
        rows = np.arange(n)[:, None]
        col = 0
        for w_idx, bank in enumerate(banks):
            t, F = bank.window, bank.n_filters
            n_pos = np.maximum(valid_lens[part], t) - t + 1
            p_max = int(n_pos.max())
            g = prod[:, :p_max, col : col + F].copy()  # (n, p_max, filters)
            for o in range(1, t):
                g += prod[:, o : o + p_max, col + o * F : col + (o + 1) * F]
            col += t * F
            g += bank.bias.value
            np.tanh(g, out=g)
            g[np.arange(p_max)[None, :] >= n_pos[:, None]] = -np.inf
            idx = np.argmax(g, axis=1)  # (n, filters)
            pooled[w_idx][part] = g[rows, idx, np.arange(F)[None, :]]
            argmax[w_idx][part] = idx
    # the window's ids at each pooled position, all the backward pass needs
    ids_at = [ids[np.arange(B)[:, None, None], a[:, :, None] + np.arange(b.window)]
              for a, b in zip(argmax, banks)]
    cache = BatchEncodeCache(ids_at, pooled, None, keep_prob)
    x = np.concatenate(pooled, axis=1)
    if train_mode:
        mask = dropout_rng.bernoulli(keep_prob, x.shape).astype(np.float64)
        cache.dropout_mask = mask
        x = x * mask / keep_prob
    return x, cache


def encode_batch_backward(
    cache: BatchEncodeCache,
    dx: np.ndarray,
    table: EmbeddingTable,
    banks: Sequence[FilterBank],
) -> None:
    """Accumulate gradients into the filter banks and the embedding table.

    The window columns at each pooled position are gathered again from the
    embedding table, so call this before the parameters change.
    """
    if cache.dropout_mask is not None:
        dx = dx * cache.dropout_mask / cache.keep_prob
    offset = 0
    k = table.dim
    flat_grad = table.weights.grad.reshape(-1)  # a view: ParamTensor grads are C-ordered
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
        # one scalar per (note, filter, offset, dim), keyed by its flat index
        # in the table, in that order, so every entry gets its addends in the
        # order of a row-by-row scatter
        W = bank.weights.value
        step = max(1, CHUNK_ENTRIES // W.size)
        for lo in range(0, len(ds), step):
            part = slice(lo, lo + step)
            keys = ids_at[part][..., None] * k + np.arange(k)  # (n, filters, t, k)
            np.add.at(flat_grad, keys.reshape(-1), (ds[part, :, None] * W).reshape(-1))
