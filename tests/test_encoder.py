import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from convres import encoder
from convres.encoder import EncoderConfig, encode_batch, encode_batch_backward, make_banks
from convres.exceptions import ConfigError, ShapeError
from convres.numeric import ParamTensor, SeededRng
from convres.text import EmbeddingTable
from oracles import (
    ConvFilter,
    conv_feature_map,
    encode,
    encode_backward,
    encode_batch_backward_rows,
    encode_forward,
    finite_diff_check,
    max_over_time,
)


def _filter(k, t, weights=None, bias=0.0):
    w = np.zeros((k, t)) if weights is None else np.asarray(weights, dtype=np.float64)
    return ConvFilter(t, ParamTensor("w", w), ParamTensor("b", np.array([bias])))


def _random_banks(config, seed, scale=0.6):
    banks = make_banks(config, SeededRng(seed))
    r = SeededRng(seed + 1)
    for b in banks:
        b.weights.value[...] = r.uniform(-scale, scale, b.weights.value.shape)
        b.bias.value[...] = r.uniform(-0.2, 0.2, b.bias.value.shape)
    return banks


class TestEncoderConfig:
    def test_default_output_dim(self):
        assert EncoderConfig().output_dim == 300

    def test_rejects_unsorted_windows(self):
        with pytest.raises(ConfigError):
            EncoderConfig(windows=(4, 3))

    def test_rejects_zero_filters(self):
        with pytest.raises(ConfigError):
            EncoderConfig(filters_per_window=0)


class TestConvFeatureMap:
    def test_zero_filter_gives_zeros(self):
        X = SeededRng(0).uniform(-1, 1, (3, 6))
        g = conv_feature_map(X, _filter(3, 2), valid_len=6)
        assert np.array_equal(g, np.zeros(5))

    def test_length_is_valid_len_minus_window_plus_one(self):
        X = np.zeros((2, 5))
        g = conv_feature_map(X, _filter(2, 3), valid_len=5)
        assert g.shape == (3,)

    def test_hand_convolution(self):
        X = np.array([[1.0, 2.0, 3.0]])
        g = conv_feature_map(X, _filter(1, 2, weights=[[1.0, 1.0]]), valid_len=3)
        assert np.allclose(g, np.tanh([3.0, 5.0]), atol=1e-15)

    def test_short_document_padded_to_window(self):
        X = np.zeros((2, 6))
        X[:, 0] = 1.0
        g = conv_feature_map(X, _filter(2, 3, bias=0.25), valid_len=1)
        assert g.shape == (1,)  # never an error, one padded position
        assert g[0] == np.tanh(0.25)

    def test_mismatched_filter_dim(self):
        with pytest.raises(ShapeError):
            conv_feature_map(np.zeros((3, 5)), _filter(2, 2), valid_len=5)


class TestMaxOverTime:
    def test_tie_breaks_to_lowest_index(self):
        assert max_over_time(np.array([0.1, 0.9, 0.9])) == (0.9, 1)

    def test_singleton(self):
        assert max_over_time(np.array([-0.5])) == (-0.5, 0)

    def test_empty_rejected(self):
        with pytest.raises(ShapeError):
            max_over_time(np.array([]))

    @given(st.integers(0, 2**32), st.integers(1, 30))
    @settings(max_examples=60, deadline=None)
    def test_matches_linear_scan(self, seed, n):
        g = SeededRng(seed).uniform(-1, 1, (n,))
        val, idx = max_over_time(g)
        best_val, best_idx = g[0], 0
        for i in range(1, n):
            if g[i] > best_val:
                best_val, best_idx = g[i], i
        assert val == best_val and idx == best_idx


class TestEncode:
    def test_zero_everything_gives_zero_vector(self):
        config = EncoderConfig(windows=(3, 4, 5), filters_per_window=100, embedding_dim=4)
        banks = make_banks(config, SeededRng(0))
        for b in banks:
            b.weights.value[...] = 0.0
        enc = encode(np.zeros((4, 10)), 10, banks)
        assert enc.x.shape == (300,)
        assert np.array_equal(enc.x, np.zeros(300))

    def test_eval_mode_deterministic(self):
        config = EncoderConfig(windows=(2, 3), filters_per_window=4, embedding_dim=3)
        banks = _random_banks(config, 7)
        X = SeededRng(5).uniform(-1, 1, (3, 9))
        a = encode(X, 7, banks)
        b = encode(X, 7, banks)
        assert np.array_equal(a.x, b.x)

    def test_tanh_open_interval(self):
        config = EncoderConfig(windows=(2,), filters_per_window=8, embedding_dim=3)
        banks = _random_banks(config, 3)
        enc = encode(SeededRng(1).uniform(-1, 1, (3, 8)), 8, banks)
        assert (np.abs(enc.x) < 1.0).all()

    def test_padding_invariance_exact(self):
        config = EncoderConfig(windows=(2, 3), filters_per_window=5, embedding_dim=4)
        banks = _random_banks(config, 11)
        body = SeededRng(2).uniform(-1, 1, (4, 6))
        short = np.hstack([body, np.zeros((4, 2))])
        long = np.hstack([body, np.zeros((4, 30))])
        a = encode(short, 6, banks)
        b = encode(long, 6, banks)
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.argmax_positions, b.argmax_positions)

    def test_dropout_keep_rate(self):
        config = EncoderConfig(windows=(2,), filters_per_window=10, embedding_dim=3)
        banks = _random_banks(config, 9)
        X = SeededRng(4).uniform(-1, 1, (3, 8))
        rng = SeededRng(100)
        kept = 0
        trials = 1000
        for _ in range(trials):
            enc = encode(X, 8, banks, train_mode=True, dropout_rng=rng)
            kept += np.count_nonzero(enc.x)
        rate = kept / (trials * 10)
        assert abs(rate - 0.5) < 0.02

    def test_dropout_scales_survivors(self):
        config = EncoderConfig(windows=(2,), filters_per_window=10, embedding_dim=3)
        banks = _random_banks(config, 9)
        X = SeededRng(4).uniform(-1, 1, (3, 8))
        base = encode(X, 8, banks).x
        enc = encode(X, 8, banks, train_mode=True, dropout_rng=SeededRng(0))
        surv = enc.x != 0.0
        assert np.allclose(enc.x[surv], 2.0 * base[surv], atol=1e-15)


class TestEncoderBackward:
    def test_gradients_match_finite_differences(self):
        config = EncoderConfig(windows=(2, 3), filters_per_window=3, embedding_dim=4)
        banks = _random_banks(config, 21)
        X = SeededRng(22).uniform(-1, 1, (4, 8))
        probe = SeededRng(23).uniform(-1, 1, (config.output_dim,))

        def loss():
            return float(encode(X, 8, banks).x @ probe)

        params = [p for b in banks for p in b.params()]
        for p in params:
            p.zero_grad()
        _, cache = encode_forward(X, 8, banks)
        dX = encode_backward(cache, probe, banks)
        assert finite_diff_check(loss, params) < 1e-4

        num = np.zeros_like(X)
        d = 1e-6
        for i in range(X.shape[0]):
            for j in range(X.shape[1]):
                orig = X[i, j]
                X[i, j] = orig + d
                up = loss()
                X[i, j] = orig - d
                down = loss()
                X[i, j] = orig
                num[i, j] = (up - down) / (2 * d)
        assert np.abs(dX - num).max() < 1e-6

    def test_pool_gradient_routes_only_to_argmax(self):
        # window of 1 keeps positions disjoint, exposing the routing directly
        config = EncoderConfig(windows=(1,), filters_per_window=1, embedding_dim=2)
        banks = _random_banks(config, 31)
        X = SeededRng(32).uniform(-1, 1, (2, 6))
        _, cache = encode_forward(X, 6, banks)
        dX = encode_backward(cache, np.array([1.0]), banks)
        j_star = cache.argmax[0][0]
        nonzero_cols = np.flatnonzero(np.abs(dX).sum(axis=0))
        assert list(nonzero_cols) == [j_star]


class TestEncodeBatch:
    def _setup(self):
        k = 4
        config = EncoderConfig(windows=(2, 3), filters_per_window=3, embedding_dim=k)
        banks = _random_banks(config, 41)
        emb = EmbeddingTable(
            ParamTensor("embedding", SeededRng(42).uniform(-0.5, 0.5, (12, k))), k
        )
        emb.freeze_pad()
        ids = np.array(
            [
                [2, 3, 4, 5, 6, 7, 0, 0],
                [8, 9, 2, 0, 0, 0, 0, 0],
                [4, 0, 0, 0, 0, 0, 0, 0],  # single-token document
            ]
        )
        lens = np.array([6, 3, 1])
        return config, banks, emb, ids, lens

    def test_matches_reference_per_doc(self):
        config, banks, emb, ids, lens = self._setup()
        x, cache = encode_batch(ids, lens, emb, banks)
        ref_x, ref_ids_at = _per_doc_x(emb, banks, ids, lens)
        assert np.allclose(x, ref_x, atol=1e-12)
        for ids_at, ref in zip(cache.ids_at, ref_ids_at):
            assert np.array_equal(ids_at, ref)

    def test_result_independent_of_batch_padding_width(self):
        config, banks, emb, ids, lens = self._setup()
        x, _ = encode_batch(ids, lens, emb, banks)
        wide = np.hstack([ids, np.zeros((3, 5), dtype=ids.dtype)])
        x2, _ = encode_batch(wide, lens, emb, banks)
        assert np.array_equal(x, x2)

    def test_batch_narrower_than_the_widest_window_is_padded(self):
        config, banks, emb, ids, lens = self._setup()
        # the single-token note, one column wide, against windows of 2 and 3
        x, cache = encode_batch(ids[2:, :1], lens[2:], emb, banks)
        x_ref, cache_ref = encode_batch(ids[2:], lens[2:], emb, banks)
        assert np.array_equal(x, x_ref)
        for a, b in zip(cache.ids_at, cache_ref.ids_at):
            assert np.array_equal(a, b)

    def test_batch_gradients_match_finite_differences(self):
        config, banks, emb, ids, lens = self._setup()
        probe = SeededRng(43).uniform(-1, 1, (3, config.output_dim))

        def loss():
            xx, _ = encode_batch(ids, lens, emb, banks)
            return float((xx * probe).sum())

        params = [emb.weights] + [p for b in banks for p in b.params()]
        for p in params:
            p.zero_grad()
        _, cache = encode_batch(ids, lens, emb, banks)
        encode_batch_backward(cache, probe, emb, banks)
        assert finite_diff_check(loss, params) < 1e-4

    def test_untouched_embedding_rows_get_no_gradient(self):
        config, banks, emb, ids, lens = self._setup()
        emb.weights.zero_grad()
        for b in banks:
            b.weights.zero_grad()
            b.bias.zero_grad()
        _, cache = encode_batch(ids, lens, emb, banks)
        encode_batch_backward(cache, np.ones((3, config.output_dim)), emb, banks)
        # rows 10 and 11 appear in no document
        assert np.array_equal(emb.weights.grad[10], np.zeros(4))
        assert np.array_equal(emb.weights.grad[11], np.zeros(4))


def _batch_case(windows, filters, k, lens, seed, vocab=12, width=None, scale=0.3):
    """Random banks, embedding table and pad-filled ids for notes of `lens`."""
    config = EncoderConfig(windows=windows, filters_per_window=filters, embedding_dim=k)
    banks = _random_banks(config, seed, scale=scale)
    emb = EmbeddingTable(
        ParamTensor("embedding", SeededRng(seed + 2).uniform(-0.5, 0.5, (vocab, k))), k
    )
    emb.freeze_pad()
    lens = np.asarray(lens, dtype=np.int64)
    width = width or int(max(lens.max(), max(windows)))
    ids = 1 + SeededRng(seed + 3).integers(vocab - 1, size=(len(lens), width))
    ids[np.arange(width)[None, :] >= lens[:, None]] = 0
    return config, banks, emb, ids, lens


def _per_doc_x(emb, banks, ids, lens):
    """Reference pooled vectors, one document at a time, and per bank the
    (notes, filters, window) ids of the window at each reference argmax."""
    refs = [encode(emb.weights.value[row].T.copy(), int(n), banks) for row, n in zip(ids, lens)]
    argmax = np.stack([r.argmax_positions for r in refs])
    ids_at, col = [], 0
    for bank in banks:
        for_bank = argmax[:, col : col + bank.n_filters]
        col += bank.n_filters
        ids_at.append(np.stack([
            [row[j : j + bank.window] for j in positions]
            for row, positions in zip(ids, for_bank)
        ]))
    return np.stack([r.x for r in refs]), ids_at


class TestKn2rowAgainstReference:
    @given(
        windows=st.sets(st.integers(1, 5), min_size=1, max_size=3).map(sorted).map(tuple),
        filters=st.integers(1, 5),
        k=st.integers(1, 6),
        lens=st.lists(st.integers(1, 9), min_size=1, max_size=7),
        notes_per_chunk=st.sampled_from([1, 2, 3, None]),
        extra_pad=st.integers(0, 4),
        seed=st.integers(0, 2**32),
    )
    @example(windows=(3, 4, 5), filters=3, k=4, lens=[1, 2, 9, 4], notes_per_chunk=1,
             extra_pad=3, seed=0)
    @settings(max_examples=150, deadline=None)
    def test_x_and_argmax_match_the_per_document_encoder(
        self, windows, filters, k, lens, notes_per_chunk, extra_pad, seed
    ):
        # notes shorter than the widest window and single-token notes are in
        # range; a small chunk constant makes one batch span several chunks
        _, banks, emb, ids, lens = _batch_case(windows, filters, k, lens, seed)
        chunk = encoder.CHUNK_ENTRIES
        if notes_per_chunk is not None:
            chunk = notes_per_chunk * ids.shape[1] * sum(windows) * filters
        with mock.patch.object(encoder, "CHUNK_ENTRIES", chunk):
            x, cache = encode_batch(ids, lens, emb, banks)
            wide = np.hstack([ids, np.zeros((len(lens), extra_pad), dtype=ids.dtype)])
            x_wide, cache_wide = encode_batch(wide, lens, emb, banks)
        ref_x, ref_ids_at = _per_doc_x(emb, banks, ids, lens)
        assert np.abs(x - ref_x).max() <= 1e-12
        assert np.array_equal(x_wide, x)
        for ids_at, ids_at_wide, ref in zip(cache.ids_at, cache_wide.ids_at, ref_ids_at):
            assert np.array_equal(ids_at, ref) and np.array_equal(ids_at_wide, ids_at)

    @pytest.mark.parametrize("train_mode", [False, True])
    def test_gradients_match_the_per_document_backward(self, train_mode):
        config, banks, emb, ids, lens = _batch_case((2, 3, 5), 4, 5, [7, 1, 3, 9, 5, 2], 61)
        ref_banks = _random_banks(config, 61, scale=0.3)
        dx = SeededRng(62).uniform(-1, 1, (len(lens), config.output_dim))
        params = [emb.weights] + [p for b in banks + ref_banks for p in b.params()]
        for p in params:
            p.zero_grad()
        two_notes = 2 * ids.shape[1] * sum(config.windows) * config.filters_per_window
        with mock.patch.object(encoder, "CHUNK_ENTRIES", two_notes):
            _, cache = encode_batch(ids, lens, emb, banks, train_mode, SeededRng(63))
        encode_batch_backward(cache, dx, emb, banks)

        ref_emb_grad = np.zeros_like(emb.weights.value)
        for d in range(len(lens)):
            X = emb.weights.value[ids[d]].T.copy()
            _, ref_cache = encode_forward(X, int(lens[d]), ref_banks)
            if train_mode:
                ref_cache.dropout_mask = cache.dropout_mask[d]
            dX = encode_backward(ref_cache, dx[d], ref_banks)
            np.add.at(ref_emb_grad, ids[d], dX.T)
        assert (cache.dropout_mask is not None) == train_mode
        for b, ref in zip(banks, ref_banks):
            assert np.abs(b.weights.grad - ref.weights.grad).max() <= 1e-12
            assert np.abs(b.bias.grad - ref.bias.grad).max() <= 1e-12
        assert np.abs(emb.weights.grad - ref_emb_grad).max() <= 1e-12


_BACKWARD_CASES = dict(
    windows=st.sets(st.integers(1, 5), min_size=1, max_size=3).map(sorted).map(tuple),
    filters=st.integers(1, 5),
    k=st.integers(1, 6),
    lens=st.lists(st.integers(1, 9), min_size=1, max_size=7),
    vocab=st.integers(2, 6),
    train_mode=st.booleans(),
    n_chunks=st.integers(1, 3),
    seed=st.integers(0, 2**32),
)


def _backward_against_rows(windows, filters, k, lens, vocab, train_mode, n_chunks, seed,
                           ids_per_note):
    """encode_batch_backward, with GEMM_IDS_PER_NOTE set to `ids_per_note`, and
    the row-by-row reference, from the same non-zero starting gradients: per
    tensor (its gradient, the reference's, their starting value, and the
    reference's gradient on the absolute values of every factor from zero).

    A vocabulary this small repeats ids within and across notes, notes shorter
    than the widest window put pad ids in the pooled windows, and the chunk
    constant makes the widest bank's scatter span n_chunks chunks."""
    config, banks, emb, ids, lens = _batch_case(windows, filters, k, lens, seed, vocab=vocab)
    ref_banks = _random_banks(config, seed, scale=0.3)
    abs_banks = _random_banks(config, seed, scale=0.3)
    ref_emb = EmbeddingTable(ParamTensor("embedding", emb.weights.value.copy()), k)
    abs_emb = EmbeddingTable(ParamTensor("embedding", np.abs(emb.weights.value)), k)
    for b in abs_banks:
        np.abs(b.weights.value, out=b.weights.value)
    rng = SeededRng(seed + 4)

    def tensors(table, bank_list):
        return [table.weights] + [p for b in bank_list for p in b.params()]

    starts = []
    # the same non-zero starting gradients, so the order of additions shows
    for p, q in zip(tensors(emb, banks), tensors(ref_emb, ref_banks)):
        p.grad[...] = q.grad[...] = rng.uniform(-1, 1, p.value.shape)
        starts.append(p.grad.copy())
    dx = rng.uniform(-1, 1, (len(lens), config.output_dim)) * 10.0 ** rng.uniform(
        -4, 4, (len(lens), config.output_dim))
    chunk = -(-len(lens) // n_chunks) * filters * windows[-1] * k
    with mock.patch.object(encoder, "CHUNK_ENTRIES", chunk):
        _, cache = encode_batch(ids, lens, emb, banks, train_mode, SeededRng(seed + 5))
    # a chunk this small would also keep M off the GEMM path
    backward_chunk = chunk if ids_per_note == 0 else encoder.CHUNK_ENTRIES
    with mock.patch.object(encoder, "CHUNK_ENTRIES", backward_chunk), \
            mock.patch.object(encoder, "GEMM_IDS_PER_NOTE", ids_per_note), \
            mock.patch.object(np, "add", wraps=np.add) as add:
        encode_batch_backward(cache, dx, emb, banks)
    encode_batch_backward_rows(cache, dx, ref_emb, ref_banks)
    encode_batch_backward_rows(cache, np.abs(dx), abs_emb, abs_banks)
    assert (cache.dropout_mask is not None) == train_mode
    return add.at.call_count, list(zip(
        [p.grad for p in tensors(emb, banks)], [p.grad for p in tensors(ref_emb, ref_banks)],
        starts, [p.grad for p in tensors(abs_emb, abs_banks)]))


class TestFlatScatterAgainstRowScatter:
    @given(**_BACKWARD_CASES)
    @example(windows=(3, 4, 5), filters=3, k=4, lens=[1, 2, 9, 4, 2], vocab=3,
             train_mode=True, n_chunks=3, seed=0)
    @settings(max_examples=150, deadline=None)
    def test_gradients_equal_the_row_scatter_bit_for_bit(self, **case):
        # pinned to the scatter path: no bank has at most 0 distinct ids per note
        scatters, grads = _backward_against_rows(**case, ids_per_note=0)
        assert scatters >= 1
        for grad, ref, _, _ in grads:
            assert np.array_equal(grad, ref)


class TestGemmBackwardAgainstRowScatter:
    @given(**_BACKWARD_CASES)
    @example(windows=(3, 4, 5), filters=3, k=4, lens=[1, 2, 9, 4, 2], vocab=3,
             train_mode=True, n_chunks=3, seed=0)
    @settings(max_examples=150, deadline=None)
    def test_gradients_match_the_row_scatter(self, **case):
        # every bank on the GEMM path. Its sums run in another order than the
        # row scatter's, so each entry is held within 1e-12 of the sum of the
        # absolute values of its addends, its starting value among them
        scatters, grads = _backward_against_rows(**case, ids_per_note=10**9)
        assert scatters == 0
        for grad, ref, start, magnitude in grads:
            assert np.all(np.abs(grad - ref) <= 1e-12 * (np.abs(start) + magnitude))

    def test_the_scatter_runs_only_past_the_threshold(self):
        # each bank's pooled windows hold 10 distinct ids over 6 notes, below a
        # bound of 2 per note and above one of 1
        config, banks, emb, ids, lens = _batch_case((2, 3), 3, 4, [8, 3, 6, 7, 2, 8], 91)
        dx = SeededRng(92).uniform(-1, 1, (len(lens), config.output_dim))
        _, cache = encode_batch(ids, lens, emb, banks)
        assert [len(np.unique(a)) for a in cache.ids_at] == [10, 10]
        for ids_per_note, scatters in ((2, 0), (1, len(banks))):
            with mock.patch.object(encoder, "GEMM_IDS_PER_NOTE", ids_per_note), \
                    mock.patch.object(np, "add", wraps=np.add) as add:
                encode_batch_backward(cache, dx, emb, banks)
            assert add.at.call_count == scatters


def _assert_split_invariant(emb, banks, ids, lens, split):
    """Encoding the batch, each note alone and the two halves at `split`
    gives the same bytes and the same pooled windows."""
    x, cache = encode_batch(ids, lens, emb, banks)
    splits = [[encode_batch(ids[i : i + 1], lens[i : i + 1], emb, banks) for i in range(len(lens))]]
    if 0 < split < len(lens):
        splits.append([encode_batch(ids[:split], lens[:split], emb, banks),
                       encode_batch(ids[split:], lens[split:], emb, banks)])
    for pieces in splits:
        assert np.array_equal(np.concatenate([xx for xx, _ in pieces]), x)
        for w, ids_at in enumerate(cache.ids_at):
            assert np.array_equal(np.concatenate([c.ids_at[w] for _, c in pieces]), ids_at)
    return x, cache


class TestDistinctIdProducts:
    """The filter products are taken once per distinct id of a batch; a
    note's encoding must not depend on which notes share its batch."""

    @given(
        lens=st.lists(st.integers(1, 30), min_size=1, max_size=12),
        split=st.integers(0, 12),
        seed=st.integers(0, 2**32),
    )
    @settings(max_examples=40, deadline=None)
    def test_benchmark_width_batch_alone_and_halves_agree(self, lens, split, seed):
        _, banks, emb, ids, lens = _batch_case((3, 4, 5), 16, 48, lens, seed, vocab=500)
        _assert_split_invariant(emb, banks, ids, lens, split)

    @given(
        lens=st.lists(st.integers(1, 600), min_size=1, max_size=5),
        split=st.integers(0, 5),
        vocab=st.sampled_from([500, 5000]),
        seed=st.integers(0, 2**32),
    )
    @settings(max_examples=8, deadline=None)
    def test_paper_width_batch_alone_and_halves_agree(self, lens, split, vocab, seed):
        _, banks, emb, ids, lens = _batch_case((3, 4, 5), 100, 300, lens, seed, vocab=vocab,
                                               scale=0.01)
        _assert_split_invariant(emb, banks, ids, lens, split)

    def _check(self, emb, banks, ids, lens):
        x, cache = _assert_split_invariant(emb, banks, ids, lens, len(lens) // 2)
        ref_x, ref_ids_at = _per_doc_x(emb, banks, ids, lens)
        assert np.abs(x - ref_x).max() <= 1e-12
        for ids_at, ref in zip(cache.ids_at, ref_ids_at):
            assert np.array_equal(ids_at, ref)

    def test_a_note_of_one_repeated_token(self):
        _, banks, emb, ids, lens = _batch_case((3, 4, 5), 16, 48, [20, 9, 20], 81, vocab=500)
        ids[0, :20] = ids[2, :20] = 7
        self._check(emb, banks, ids, lens)

    def test_notes_shorter_than_the_widest_window(self):
        _, banks, emb, ids, lens = _batch_case((3, 4, 5), 16, 48, [1, 2, 4, 3, 12], 82, vocab=500)
        self._check(emb, banks, ids, lens)
        self._check(emb, banks, ids[:3], lens[:3])  # every note shorter than 5
        x, _ = encode_batch(ids[:3], lens[:3], emb, banks)
        assert np.array_equal(_assert_split_invariant(emb, banks, ids[:3, :4], lens[:3], 1)[0], x)

    def test_pad_only_tails(self):
        _, banks, emb, ids, lens = _batch_case((2, 3), 5, 6, [4, 9, 2], 83, vocab=40)
        wide = np.hstack([ids, np.zeros((3, 11), dtype=ids.dtype)])
        self._check(emb, banks, wide, lens)
        x, _ = encode_batch(ids, lens, emb, banks)
        assert np.array_equal(encode_batch(wide, lens, emb, banks)[0], x)

    def test_several_filter_groups_row_blocks_and_halves(self):
        # 49 to 96 distinct ids pad to 96 rows. A chunk bound of 960 entries
        # puts each bank in a group of its own and fills its products 48 rows
        # at a time; one of 300 pools the batch in halves, as 96 rows of the
        # widest bank's 15 columns pass 4 * 300 entries
        _, banks, emb, ids, lens = _batch_case((2, 3, 5), 3, 4, [30, 17, 2, 25, 30], 84, vocab=81)
        assert 48 < len(np.unique(ids)) <= 96
        x, _ = encode_batch(ids, lens, emb, banks)
        for bound, gemms, uniques in ((960, 3 * 2, 1), (300, None, 3)):
            with mock.patch.object(encoder, "CHUNK_ENTRIES", bound):
                self._check(emb, banks, ids, lens)
                with mock.patch.object(np, "matmul", wraps=np.matmul) as matmul, \
                        mock.patch.object(np, "unique", wraps=np.unique) as unique:
                    assert np.array_equal(encode_batch(ids, lens, emb, banks)[0], x)
            assert gemms is None or matmul.call_count == gemms
            assert unique.call_count == uniques


class TestPaperSizeMemory:
    """300-d embeddings, 100 filters per window 3/4/5, 600-token notes."""

    def _case(self, n_notes, vocab=2000):
        lens = 400 + SeededRng(70).integers(201, size=n_notes)
        return _batch_case((3, 4, 5), 100, 300, lens, 71, vocab=vocab, width=600, scale=0.01)

    def _peak_mib(self, fn) -> float:
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()

    def test_eval_encode_of_64_notes_peaks_below_128_mib(self):
        _, banks, emb, ids, lens = self._case(64)
        peak = self._peak_mib(lambda: encode_batch(ids, lens, emb, banks))
        assert peak < 128, f"peak {peak:.0f} MiB"

    def test_eval_encode_of_256_notes_peaks_below_128_mib(self):
        # four times as many notes as the 64-note case, under the same bound
        _, banks, emb, ids, lens = self._case(256)
        peak = self._peak_mib(lambda: encode_batch(ids, lens, emb, banks))
        assert peak < 128, f"peak {peak:.0f} MiB"

    def test_eval_encode_over_a_20000_id_vocabulary_peaks_below_64_mib(self):
        # about 19000 distinct ids: one products matrix for the window of 5
        # would take 77 MB, so the batch is encoded in parts
        _, banks, emb, ids, lens = self._case(128, vocab=20000)
        peak = self._peak_mib(lambda: encode_batch(ids, lens, emb, banks))
        assert peak < 64, f"peak {peak:.0f} MiB"

    def _train_step_peak_mib(self, n_notes, vocab) -> tuple[float, list[int]]:
        """Peak MiB of one training forward and backward, and the windows of
        the banks whose backward took the scatter."""
        _, banks, emb, ids, lens = self._case(n_notes, vocab)

        def step():
            x, cache = encode_batch(ids, lens, emb, banks, True, SeededRng(72))
            encode_batch_backward(cache, np.ones_like(x), emb, banks)

        with mock.patch.object(encoder, "_backward_scatter",
                               wraps=encoder._backward_scatter) as scatter:
            peak = self._peak_mib(step)
        return peak, [c.args[3].window for c in scatter.call_args_list]

    def test_train_forward_and_backward_of_50_notes_peak_below_256_mib(self):
        # about 40 distinct ids per note: every bank takes the GEMM path
        peak, scattered = self._train_step_peak_mib(50, 2000)
        assert scattered == []
        assert peak < 256, f"peak {peak:.0f} MiB"

    @pytest.mark.parametrize("vocab, scattered", [(2000, []), (10000, [5])])
    def test_train_forward_and_backward_of_200_notes_peak_below_256_mib(self, vocab, scattered):
        # 2000 ids: M is at most (2000, 500), within 4 * CHUNK_ENTRIES. 10000
        # ids: about 50 per note, but the window of 5 has about 9980 of them,
        # and its (9980, 500) M would pass the bound, so that bank scatters
        peak, banks_scattered = self._train_step_peak_mib(200, vocab)
        assert banks_scattered == scattered
        assert peak < 256, f"peak {peak:.0f} MiB"
