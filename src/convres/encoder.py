"""CNN sentence encoder: multi-window convolution, tanh, max-over-time pooling.

`encode_batch` is the one path, used for training, validation and scoring;
the slow per-document reference it is tested against lives in
tests/oracles.py. Filter weights for a window of t words are stored
row-per-filter, flattened time-major, i.e. filter row f is
[X[:,j] block, X[:,j+1] block, ..., X[:,j+t-1] block] against one position j.

The forward pass is kn2row (Vasudevan et al. 2017, arXiv 1704.04428): the
pre-activation of window t at position j is the sum over offsets o < t of
the product of the embedding at position j + o with offset o's (k, F)
filter slice. That product depends on the position's id alone, so it is
computed once per distinct id of the batch (a lone note uses its positions
as they are): the embeddings of those ids are multiplied, in blocks of rows,
by the offset slices of a run of banks. Then, bank by bank, the notes are
taken longest first in chunks whose sums fit in POOL_ENTRIES, and each
offset's columns are gathered at the chunk's positions straight into its
running sum. No (positions, t*k) window matrix, nor any (positions, t*F)
gather of the products, is ever built. Max-pooling takes the argmax of the
raw sums; as adding the bias and tanh are monotone, only the pooled sums take
them. The GEMM's rows and columns are padded to whole BLAS tiles (see
_ROW_TILE), so a note encodes to the same bytes in any batch.

The backward pass needs only the window at each pooled position, and runs
the same scheme in reverse over the distinct ids of those windows: one
bincount of the pooled slopes builds M, (distinct ids, F * t), whose entry
(id, f * t + o) sums the slope of filter f over the notes whose pooled
window holds that id at offset o. Then M.T @ emb[distinct] is the bank's
filter gradient and M @ W, with W viewed as (F * t, k), the gradient of each
distinct embedding row. A bank with more distinct ids per note than
GEMM_IDS_PER_NOTE (or whose M would pass 4 * CHUNK_ENTRIES) keeps the
scatter instead: an einsum over the windows' columns, gathered one offset's
(B, F, k) at a time, for the filter gradient, and for the embedding gradient
one 1-D np.add.at of scalars per chunk of notes, keyed by (table row * k +
dimension), numpy's fast ufunc.at path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .exceptions import ConfigError
from .numeric import ParamTensor, SeededRng
from .text import PAD_ID, EmbeddingTable

# Banks share one products matrix over the batch's distinct ids while it stays
# within CHUNK_ENTRIES entries (8 MB of float64); a bank past it has one of its
# own, of up to 4 * CHUNK_ENTRIES entries (32 MB: 128 paper-size notes have
# about 5000 distinct ids and the window of 5 has 500 columns), and a batch
# with more distinct ids than that allows is encoded in halves. So memory stays
# bounded at any batch size and vocabulary.
# The backward pass's embedding scatter uses the same bound per chunk of notes,
# and its GEMM path takes a bank whose M fits in 4 * CHUNK_ENTRIES entries.
CHUNK_ENTRIES = 1 << 20

# entries of one chunk's running sums, (notes, positions, filters): 512 KiB of
# float64, which stays in a core's L2 while each offset's products are added to
# it (at least one note per chunk). At the paper's size (400-600 tokens, 100
# filters) that is one note per chunk: a 128-note eval encode took 165 ms so,
# 196 ms at 2^17 entries and 243 ms at 2^20 (2-vCPU AVX-512 Xeon, 1 thread).
POOL_ENTRIES = 1 << 16

# OpenBLAS (scipy-openblas 0.3.31) rounds a GEMM element differently when it
# lies in a partial tile of the product, and which tiles those are depends on
# the CPU's kernel: the last N mod 8 columns, the last M mod 12 rows, or any
# M <= 8 have all been seen to move last bits. So the filter products are
# taken over rows padded (with the pad id) to a multiple of _ROW_TILE and
# columns padded (with zeros) to a multiple of _COL_TILE: every element comes
# from a full tile, and a note encodes to the same bytes alone as in any batch.
_ROW_TILE = 48
_COL_TILE = 8

# The backward's GEMMs cost in proportion to the distinct ids of a bank's pooled
# windows, the scatter in proportion to its notes, so their ratio picks the
# path. Alternating pairs of one 50-note backward (2-vCPU AVX-512 Xeon,
# scipy-openblas 0.3.31 SkylakeX kernel, 1 thread) put the crossover near 70 ids
# per note at the paper's size (300-d, 3 x 100 filters, 400-600 tokens; the
# GEMMs won 10/10 pairs at 59 ids per note and 9/10 at 68, lost 7/10 at 77 and
# 10/10 at 85) and near 40 at 48-d, 3 x 16 filters, 100-200 tokens (won 36/40 at
# 34 and 30/40 at 38, lost 38/40 at 42). The smaller size's notes (15-30 tokens
# in the benchmark) seldom reach 40, while the GEMMs save the most at the
# paper's, so the bound follows the latter.
GEMM_IDS_PER_NOTE = 64


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
    """(k, sum of t*F, then zero columns up to a multiple of _COL_TILE): each
    bank's (k, F) filter slice for offset 0, 1, ..., t-1."""
    cols = sum(b.window * b.n_filters for b in banks)
    filters = np.zeros((k, -(-cols // _COL_TILE) * _COL_TILE))
    col = 0
    for b in banks:
        t, F = b.window, b.n_filters
        filters[:, col : col + t * F].reshape(k, t, F)[...] = b.weights.value.reshape(F, t, k).T
        col += t * F
    return filters


def _bank_groups(banks: Sequence[FilterBank], n_rows: int) -> list[list[FilterBank]]:
    """Runs of consecutive banks whose products over n_rows rows fit in
    CHUNK_ENTRIES; a bank whose products alone do not is a run of its own."""
    groups, cols = [[]], 0
    for b in banks:
        cols += b.window * b.n_filters
        if groups[-1] and n_rows * cols > CHUNK_ENTRIES:
            groups.append([])
            cols = b.window * b.n_filters
        groups[-1].append(b)
    return groups


def _products(emb: np.ndarray, rows: np.ndarray, filters: np.ndarray) -> np.ndarray:
    """emb[rows] @ filters, filled in blocks of rows that gather at most
    CHUNK_ENTRIES / 8 embedding entries each; len(rows) is a multiple of _ROW_TILE."""
    block = _ROW_TILE * max(1, CHUNK_ENTRIES // (8 * _ROW_TILE * emb.shape[1]))
    if len(rows) <= block:
        return emb[rows] @ filters
    out = np.empty((len(rows), filters.shape[1]))
    for lo in range(0, len(rows), block):
        np.matmul(emb[rows[lo : lo + block]], filters, out=out[lo : lo + block])
    return out


def _pool(
    ids: np.ndarray,
    valid_lens: np.ndarray,
    emb: np.ndarray,
    banks: Sequence[FilterBank],
    pooled: list[np.ndarray],
    argmax: list[np.ndarray],
) -> None:
    """Write each bank's max-pooled values and their positions for the notes
    of `ids` into the rows of `pooled` and `argmax`."""
    B, width = ids.shape
    k = emb.shape[1]
    if B == 1:
        # a lone note repeats few ids, too few to pay for gathering them back:
        # its positions are the product rows
        distinct, at = ids[0], None
    else:
        distinct, at = np.unique(ids, return_inverse=True)
        at = at.reshape(B, width)  # each position's row in `distinct`
    rows = np.full(-(-len(distinct) // _ROW_TILE) * _ROW_TILE, PAD_ID)
    rows[: len(distinct)] = distinct
    if B > 1 and len(rows) * max(b.window * b.n_filters for b in banks) > 4 * CHUNK_ENTRIES:
        # too many distinct ids for one bank's products: since a note
        # encodes alike in any batch, the halves are pooled apart
        for half in (slice(0, B // 2), slice(B // 2, B)):
            _pool(ids[half], valid_lens[half], emb, banks,
                  [p[half] for p in pooled], [a[half] for a in argmax])
        return
    # longest notes first, so a chunk's first note sets how many positions
    # its sums cover and the rest of the chunk wastes few of them
    order, lens = slice(None), valid_lens
    if at is not None:
        order = np.argsort(-valid_lens, kind="stable")
        lens, at = valid_lens[order], at[order]
    w_idx = 0
    for group in _bank_groups(banks, len(rows)):
        filters = _offset_filters(group, k)
        products = _products(emb, rows, filters)
        col = 0
        for i, bank in enumerate(group, start=w_idx):
            t, F = bank.window, bank.n_filters
            n_pos = np.maximum(lens, t) - t + 1
            lo = 0
            while lo < B:
                p_max = int(n_pos[lo])
                hi = min(B, lo + max(1, POOL_ENTRIES // (p_max * F)))
                # g: (notes, p_max, filters), offset 0's columns at each
                # position plus offset o's at the position o further on
                if at is None:
                    g = products[None, :p_max, col : col + F].copy()
                    for o in range(1, t):
                        g += products[None, o : o + p_max, col + o * F : col + (o + 1) * F]
                else:
                    part = at[lo:hi]
                    g = products[part[:, :p_max], col : col + F]
                    for o in range(1, t):
                        g += products[part[:, o : o + p_max], col + o * F : col + (o + 1) * F]
                if hi - lo > 1:  # the chunk's later notes may end sooner than its first
                    g[np.arange(p_max) >= n_pos[lo:hi, None]] = -np.inf
                # x + bias and tanh are monotone, so the pooled position is
                # the max of the raw sums, and only the pooled sums take them
                idx = np.argmax(g, axis=1)  # (notes, filters)
                peak = g[np.arange(hi - lo)[:, None], idx, np.arange(F)]
                notes = order if at is None else order[lo:hi]
                pooled[i][notes] = np.tanh(peak + bank.bias.value)
                argmax[i][notes] = idx
                lo = hi
            col += t * F
        w_idx += len(group)
        del products  # before the next group's are made


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
    The filter products are computed once per distinct id of the batch (of
    each half, if a bank's products would pass 4 * CHUNK_ENTRIES), for a run
    of banks at a time, and summed at the positions of a chunk of notes, about
    POOL_ENTRIES sums per chunk.
    """
    B = ids.shape[0]
    width = int(max(valid_lens.max(), max(b.window for b in banks)))
    ids = ids[:, :width]
    if ids.shape[1] < width:  # every note is shorter than the widest window
        ids = np.pad(ids, ((0, 0), (0, width - ids.shape[1])), constant_values=PAD_ID)
    pooled = [np.empty((B, b.n_filters)) for b in banks]
    argmax = [np.empty((B, b.n_filters), dtype=np.int64) for b in banks]
    _pool(ids, valid_lens, table.weights.value, banks, pooled, argmax)
    # the window's ids at each pooled position, all the backward pass needs
    notes = np.arange(B)[:, None, None]
    ids_at = [ids[notes, a[:, :, None] + np.arange(b.window)] for a, b in zip(argmax, banks)]
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

    The embedding rows of the pooled windows are read again from the table,
    so call this before the parameters change. A bank whose pooled windows
    hold at most GEMM_IDS_PER_NOTE distinct ids per note takes both gradients
    as GEMMs over those ids, if its (distinct ids, t*F) gradient matrix and
    the (distinct ids, k) rows it meets each fit in 4 * CHUNK_ENTRIES; any
    other bank keeps the scatter.
    """
    if cache.dropout_mask is not None:
        dx = dx * cache.dropout_mask / cache.keep_prob
    offset = 0
    k = table.dim
    for w_idx, bank in enumerate(banks):
        ds_pool = dx[:, offset : offset + bank.n_filters]
        offset += bank.n_filters
        pooled = cache.pooled[w_idx]
        ds = ds_pool * (1.0 - pooled * pooled)  # (B, filters)
        bank.bias.grad += ds.sum(axis=0)
        ids_at = cache.ids_at[w_idx]
        distinct, at = np.unique(ids_at, return_inverse=True)
        cols = bank.window * bank.n_filters
        if (len(distinct) <= GEMM_IDS_PER_NOTE * len(ds)
                and len(distinct) * max(cols, k) <= 4 * CHUNK_ENTRIES):
            _backward_gemm(ds, distinct, at.reshape(ids_at.shape), table, bank)
        else:
            _backward_scatter(ds, ids_at, table, bank)


def _backward_gemm(
    ds: np.ndarray, distinct: np.ndarray, at: np.ndarray, table: EmbeddingTable, bank: FilterBank
) -> None:
    """Both gradients of one bank from M, (distinct ids, filters * t): M's
    entry (id, f * t + o) sums ds[b, f] over the notes whose filter f pooled
    a window holding that id at offset o. So M.T @ emb[distinct] is the
    filter gradient in the bank's (F, t*k) layout, and M @ W, with W viewed
    as (F*t, k), is the gradient of each distinct row."""
    cols, k = bank.window * bank.n_filters, table.dim
    keys = at * cols + np.arange(cols).reshape(bank.n_filters, bank.window)  # (B, filters, t)
    M = np.bincount(keys.reshape(-1), np.broadcast_to(ds[:, :, None], keys.shape).reshape(-1),
                    minlength=len(distinct) * cols).reshape(len(distinct), cols)
    bank.weights.grad += (M.T @ table.weights.value[distinct]).reshape(bank.n_filters, -1)
    table.weights.grad[distinct] += M @ bank.weights.value.reshape(cols, k)


def _backward_scatter(
    ds: np.ndarray, ids_at: np.ndarray, table: EmbeddingTable, bank: FilterBank
) -> None:
    """Both gradients of one bank as an einsum over the pooled windows'
    columns, gathered one offset's (B, filters, k) at a time, and a flat
    scatter of scalars into the embedding gradient, one 1-D np.add.at per
    chunk of notes keyed by (table row * k + dimension)."""
    t, k = bank.window, table.dim
    # With one filter over 1-d embeddings an offset's einsum would sum its lone
    # note axis in another order than the whole window's, so such a bank takes
    # its t offsets at once
    span = t if bank.n_filters * k == 1 else 1
    for o in range(0, t, span):
        cols = table.weights.value[ids_at[:, :, o : o + span]].reshape(*ds.shape, -1)
        bank.weights.grad[:, o * k : (o + span) * k] += np.einsum("bf,bfc->fc", ds, cols)
    del cols  # before the scatter's keys are made
    # one scalar per (note, filter, offset, dim), keyed by its flat index in
    # the table, in that order, so every entry gets its addends in the order
    # of a row-by-row scatter
    flat_grad = table.weights.grad.reshape(-1)  # a view: ParamTensor grads are C-ordered
    W = bank.weights.value
    step = max(1, CHUNK_ENTRIES // W.size)
    for lo in range(0, len(ds), step):
        part = slice(lo, lo + step)
        keys = ids_at[part][..., None] * k + np.arange(k)  # (n, filters, t, k)
        np.add.at(flat_grad, keys.reshape(-1), (ds[part, :, None] * W).reshape(-1))
