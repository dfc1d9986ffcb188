"""Ranking metrics for multi-label prediction: P@k, nDCG@k, macro AUC.

Scores and 0/1 truth are (notes, labels) float arrays; per-note metrics
return one value per note.
"""

from __future__ import annotations

import numpy as np

from .exceptions import MetricError, ShapeError


def _pair(scores, truth) -> tuple[np.ndarray, np.ndarray]:
    scores = np.asarray(scores, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if scores.shape != truth.shape:
        raise ShapeError(f"scores {scores.shape} and truth {truth.shape} differ in shape")
    return scores, truth


def top_k(scores: np.ndarray, k: int) -> np.ndarray:
    """Each note's k highest-scoring labels, descending; ties go to the lower index."""
    return np.argsort(-np.asarray(scores, dtype=np.float64), axis=-1, kind="stable")[..., :k]


def precision_at_k(scores: np.ndarray, truth: np.ndarray, k: int) -> np.ndarray:
    """Fraction of true labels among the top k; the denominator is always k."""
    scores, truth = _pair(scores, truth)
    return np.take_along_axis(truth, top_k(scores, k), axis=-1).sum(axis=-1) / k


def ndcg_at_k(scores: np.ndarray, truth: np.ndarray, k: int) -> np.ndarray:
    """Rank-discounted gain of the top k, normalized by the ideal ranking.

    Gains are discounted by log2(rank position + 1) and summed in rank order.
    Notes with no true labels get 0 here and are excluded from corpus
    averages by `labeled_mean`.
    """
    scores, truth = _pair(scores, truth)
    hits = np.take_along_axis(truth, top_k(scores, k), axis=-1)  # truth in rank order
    discount = np.log2(np.arange(hits.shape[-1]) + 2.0)
    dcg = np.cumsum(hits / discount, axis=-1)[..., -1]
    ideal = np.cumsum(1.0 / discount)  # entry r: the gain of r + 1 true labels on top
    n_pos = truth.sum(axis=-1).astype(np.int64)
    labeled = n_pos > 0
    out = np.zeros(n_pos.shape)
    out[labeled] = dcg[labeled] / ideal[np.minimum(k, n_pos[labeled]) - 1]
    return out


def labeled_mean(per_note: np.ndarray, truth: np.ndarray) -> float:
    """Mean of a per-note metric over the notes with a true label; 0 if there are none."""
    vals = per_note[np.asarray(truth).sum(axis=-1) > 0]
    return float(np.mean(vals)) if vals.size else 0.0


def label_auc(scores: np.ndarray, truth: np.ndarray) -> float | None:
    """Rank-statistic AUC for one label; None when positives or negatives are absent.

    Equivalent to the Mann-Whitney statistic with ties counting one half.
    """
    truth = np.asarray(truth, dtype=bool)
    n_pos = int(truth.sum())
    n_neg = truth.size - n_pos
    if n_pos == 0 or n_neg == 0:
        return None
    _, tie, counts = np.unique(
        np.asarray(scores, dtype=np.float64), return_inverse=True, return_counts=True
    )
    end = np.cumsum(counts)  # one past each run of tied scores, in sorted order
    ranks = (0.5 * (end - counts + end - 1) + 1.0)[tie]  # 1-based, ties averaged
    return float((ranks[truth].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def macro_auc(scores: np.ndarray, truth: np.ndarray) -> tuple[float, list[float | None]]:
    """Unweighted mean of per-label AUCs, skipping degenerate labels."""
    scores, truth = _pair(scores, truth)
    if scores.shape[0] == 0:
        raise MetricError("macro AUC needs at least one note")
    per_label = [label_auc(scores[:, l], truth[:, l]) for l in range(scores.shape[1])]
    usable = [a for a in per_label if a is not None]
    if not usable:
        raise MetricError("no label has both a positive and a negative instance")
    return float(np.mean(usable)), per_label


def metric_report(scores: np.ndarray, truth: np.ndarray) -> dict:
    """The standard report: P@{1,3,5}, N@{3,5}, macro AUC, per-label AUCs.

    P@k and N@k average only notes with at least one true label.
    """
    scores, truth = _pair(scores, truth)
    auc, per_label = macro_auc(scores, truth)
    report = {}
    for k in (1, 3, 5):
        report[f"p_at_{k}"] = labeled_mean(precision_at_k(scores, truth, k), truth)
    for k in (3, 5):
        report[f"n_at_{k}"] = labeled_mean(ndcg_at_k(scores, truth, k), truth)
    report["macro_auc"] = auc
    report["per_label_auc"] = per_label
    return report
