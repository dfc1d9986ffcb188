import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convres.exceptions import MetricError, ShapeError
from convres.metrics import (
    label_auc,
    macro_auc,
    metric_report,
    ndcg_at_k,
    precision_at_k,
    top_k,
)
from oracles import auc_pair_oracle, ndcg_oracle, precision_oracle, rank_by_full_sort
from convres.numeric import SeededRng


def rows(*vectors):
    """Each 1-D vector as a one-note (1, labels) float array."""
    return [np.asarray(v, dtype=np.float64)[None, :] for v in vectors]


def top_k_list(scores, k):
    return top_k(*rows(scores), k)[0].tolist()


class TestRankK:
    def test_basic(self):
        assert top_k_list(np.array([0.1, 0.9, 0.5]), 2) == [1, 2]

    def test_tie_break_by_index(self):
        assert top_k_list(np.array([0.3, 0.3, 0.3]), 2) == [0, 1]

    def test_k_larger_than_l(self):
        assert top_k_list(np.array([0.2, 0.8]), 5) == [1, 0]

    @given(st.integers(0, 2**32), st.integers(1, 8), st.integers(1, 10))
    @settings(max_examples=100, deadline=None)
    def test_agrees_with_full_sort(self, seed, L, k):
        scores = SeededRng(seed).uniform(size=(L,))
        assert top_k_list(scores, k) == rank_by_full_sort(list(scores), k)


class TestPrecisionAtK:
    def test_top2_all_true(self):
        s, t = rows([0.9, 0.1, 0.8, 0.2], [1, 0, 1, 0])
        assert precision_at_k(s, t, 2)[0] == 1.0

    def test_top4_half_true(self):
        s, t = rows([0.9, 0.1, 0.8, 0.2], [1, 0, 1, 0])
        assert precision_at_k(s, t, 4)[0] == 0.5

    def test_no_true_labels(self):
        s, t = rows([0.9, 0.1], [0, 0])
        for k in (1, 2, 5):
            assert precision_at_k(s, t, k)[0] == 0.0


class TestNdcgAtK:
    def test_single_true_ranked_first(self):
        s, t = rows([0.9, 0.1, 0.2], [1, 0, 0])
        assert ndcg_at_k(s, t, 5)[0] == 1.0

    def test_single_true_ranked_second(self):
        s, t = rows([0.5, 0.9, 0.2], [1, 0, 0])
        expected = (1.0 / np.log2(3)) / (1.0 / np.log2(2))
        assert abs(ndcg_at_k(s, t, 5)[0] - expected) < 1e-12
        assert abs(ndcg_at_k(s, t, 5)[0] - 0.6309) < 1e-4

    def test_two_true_perfect(self):
        s, t = rows([0.9, 0.8, 0.1], [1, 1, 0])
        assert ndcg_at_k(s, t, 2)[0] == 1.0

    def test_ideal_prefix_is_one(self):
        # all true labels in the top ranks and fewer of them than k
        s, t = rows([0.9, 0.8, 0.3, 0.2, 0.1], [1, 1, 0, 0, 0])
        assert ndcg_at_k(s, t, 4)[0] == 1.0


class TestMacroAuc:
    def test_perfectly_separated(self):
        scores = np.array([[0.9, 0.1], [0.2, 0.8]])
        truth = np.array([[1, 0], [0, 1]])
        auc, per_label = macro_auc(scores, truth)
        assert auc == 1.0
        assert per_label == [1.0, 1.0]

    def test_hand_pair_enumeration(self):
        scores = np.array([[0.9], [0.8], [0.3], [0.1]])
        truth = np.array([[1], [0], [1], [0]])
        auc, _ = macro_auc(scores, truth)
        assert auc == 0.75

    def test_random_scores_near_half(self):
        rng = SeededRng(11)
        n = 4000
        scores = rng.uniform(size=(n, 3))
        truth = (rng.uniform(size=(n, 3)) < 0.4).astype(float)
        auc, _ = macro_auc(scores, truth)
        assert abs(auc - 0.5) < 0.02

    def test_degenerate_labels_skipped(self):
        scores = np.array([[0.9, 0.4], [0.1, 0.6]])
        truth = np.array([[1, 0], [0, 0]])
        auc, per_label = macro_auc(scores, truth)
        assert per_label[1] is None  # label 1 has no positives
        assert auc == per_label[0] == 1.0

    def test_error_when_nothing_evaluable(self):
        with pytest.raises(MetricError):
            macro_auc(*rows([0.9], [0]))
        with pytest.raises(MetricError):
            macro_auc(np.zeros((0, 3)), np.zeros((0, 3)))

    def test_ties_count_half(self):
        assert label_auc(np.array([0.5, 0.5]), np.array([1, 0])) == 0.5


class TestScoreTransformInvariance:
    @given(st.integers(0, 2**32), st.integers(2, 6), st.integers(1, 6))
    @settings(max_examples=60, deadline=None)
    def test_monotone_transform_preserves_ranking_metrics(self, seed, L, k):
        rng = SeededRng(seed)
        scores = rng.uniform(size=(L,))
        truth = (rng.uniform(size=(L,)) < 0.5).astype(float)
        s, w, t = rows(scores, np.exp(3.0 * scores) / (1 + np.exp(3.0 * scores)), truth)
        assert np.array_equal(top_k(s, k), top_k(w, k))
        assert precision_at_k(s, t, k)[0] == precision_at_k(w, t, k)[0]
        assert abs(ndcg_at_k(s, t, k)[0] - ndcg_at_k(w, t, k)[0]) < 1e-12

    @given(st.integers(0, 2**32))
    @settings(max_examples=30, deadline=None)
    def test_per_label_monotone_transform_preserves_auc(self, seed):
        rng = SeededRng(seed)
        scores = rng.uniform(size=(10, 3))
        truth = (rng.uniform(size=(10, 3)) < 0.5).astype(float)
        warped = scores.copy()
        warped[:, 0] = 2.0 * scores[:, 0] + 5.0
        warped[:, 1] = np.exp(scores[:, 1])
        warped[:, 2] = scores[:, 2] ** 3 + scores[:, 2]
        for l in range(3):
            a = label_auc(scores[:, l], truth[:, l])
            b = label_auc(warped[:, l], truth[:, l])
            assert a == b or (a is None and b is None)


class TestRangeAndMonotonicity:
    @given(st.integers(0, 2**32), st.integers(1, 8))
    @settings(max_examples=80, deadline=None)
    def test_metrics_in_unit_interval_and_hits_monotone(self, seed, L):
        rng = SeededRng(seed)
        s, t = rows(rng.uniform(size=(L,)), (rng.uniform(size=(L,)) < 0.5).astype(float))
        hits = []
        for k in range(1, L + 2):
            p = precision_at_k(s, t, k)[0]
            n = ndcg_at_k(s, t, k)[0]
            assert 0.0 <= p <= 1.0 and 0.0 <= n <= 1.0
            hits.append(p * k)
        # the top-k true-label count never decreases as k grows
        assert all(b >= a - 1e-12 for a, b in zip(hits, hits[1:]))


class TestBruteForceAgreement:
    def test_thousand_random_instances(self):
        rng = SeededRng(99)
        for trial in range(1000):
            L = 1 + rng.integers(6)
            scores = rng.uniform(size=(L,))
            truth = (rng.uniform(size=(L,)) < 0.5).astype(float)
            s, t = rows(scores, truth)
            k = 1 + rng.integers(6)
            assert top_k_list(scores, k) == rank_by_full_sort(list(scores), k)
            assert abs(precision_at_k(s, t, k)[0] - precision_oracle(scores, truth, k)) < 1e-12
            assert abs(ndcg_at_k(s, t, k)[0] - ndcg_oracle(scores, truth, k)) < 1e-12
            ours = label_auc(scores, truth)
            ref = auc_pair_oracle(list(scores), list(truth))
            if ref is None:
                assert ours is None
            else:
                assert abs(ours - ref) < 1e-12


class TestReport:
    def test_report_keys_and_ranges(self):
        rng = SeededRng(1)
        scores, truth = np.zeros((30, 6)), np.zeros((30, 6))
        for i in range(30):
            scores[i] = rng.uniform(size=(6,))
            truth[i] = (rng.uniform(size=(6,)) < 0.5).astype(float)
        rep = metric_report(scores, truth)
        assert list(rep) == [
            "p_at_1", "p_at_3", "p_at_5", "n_at_3", "n_at_5", "macro_auc", "per_label_auc",
        ]
        for key in ("p_at_1", "p_at_3", "p_at_5", "n_at_3", "n_at_5", "macro_auc"):
            assert 0.0 <= rep[key] <= 1.0

    def test_zero_label_documents_excluded_from_pk(self):
        scores = np.array([[0.9, 0.1]] * 3)
        truth = np.array([[1, 0], [0, 0], [0, 0]])  # one labeled note, two controls
        rep = metric_report(scores, truth)
        assert rep["p_at_1"] == 1.0  # controls do not drag the average down

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(ShapeError):
            metric_report(np.zeros((3, 2)), np.zeros((3, 4)))


def _report_oracle(scores: np.ndarray, truth: np.ndarray) -> dict:
    """metric_report rebuilt note by note and label by label from the brute-force oracles."""
    labeled = [i for i in range(len(truth)) if sum(truth[i]) > 0]

    def mean_over_labeled(metric, k):
        vals = [metric(list(scores[i]), list(truth[i]), k) for i in labeled]
        return sum(vals) / len(vals) if vals else 0.0

    per_label = [
        auc_pair_oracle(list(scores[:, l]), list(truth[:, l])) for l in range(truth.shape[1])
    ]
    usable = [a for a in per_label if a is not None]
    return {
        **{f"p_at_{k}": mean_over_labeled(precision_oracle, k) for k in (1, 3, 5)},
        **{f"n_at_{k}": mean_over_labeled(ndcg_oracle, k) for k in (3, 5)},
        "macro_auc": sum(usable) / len(usable) if usable else None,
        "per_label_auc": per_label,
    }


class TestArrayReportAgainstOracles:
    # scores on a coarse grid so that ties within a note and within a label are common
    @given(st.integers(1, 12).flatmap(lambda L: st.lists(
        st.lists(st.tuples(st.integers(0, 4), st.booleans()), min_size=L, max_size=L),
        min_size=1, max_size=25,
    )))
    @settings(max_examples=200, deadline=None)
    def test_matches_per_note_brute_force(self, notes):
        scores = np.array([[s / 4.0 for s, _ in note] for note in notes])
        truth = np.array([[float(t) for _, t in note] for note in notes])
        ref = _report_oracle(scores, truth)
        if ref["macro_auc"] is None:
            with pytest.raises(MetricError):
                metric_report(scores, truth)
            return
        rep = metric_report(scores, truth)
        assert list(rep) == list(ref)
        for key in ("p_at_1", "p_at_3", "p_at_5", "n_at_3", "n_at_5", "macro_auc"):
            assert abs(rep[key] - ref[key]) < 1e-12, key
        for ours, theirs in zip(rep["per_label_auc"], ref["per_label_auc"], strict=True):
            assert (ours is None and theirs is None) or abs(ours - theirs) < 1e-12

    @given(st.integers(0, 2**32), st.integers(1, 30), st.integers(1, 10), st.integers(1, 12))
    @settings(max_examples=60, deadline=None)
    def test_rows_are_independent_notes(self, seed, N, L, k):
        rng = SeededRng(seed)
        scores = np.round(rng.uniform(size=(N, L)) * 3) / 3
        truth = (rng.uniform(size=(N, L)) < 0.4).astype(float)
        top = top_k(scores, k)
        assert top.shape == (N, min(k, L))
        p, n = precision_at_k(scores, truth, k), ndcg_at_k(scores, truth, k)
        for i in range(N):
            assert top[i].tolist() == rank_by_full_sort(list(scores[i]), k)
            assert abs(p[i] - precision_oracle(scores[i], truth[i], k)) < 1e-12
            assert abs(n[i] - ndcg_oracle(scores[i], truth[i], k)) < 1e-12
