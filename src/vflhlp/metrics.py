"""Ranking metrics. Only depends on numpy so every stage can import it."""
from __future__ import annotations

import numpy as np

from .errors import TrainingError, UndefinedMetricError


def auc(labels: np.ndarray, scores: np.ndarray) -> float:
    """Area under the ROC curve via the rank-sum statistic.

    Tied scores get averaged ranks, which credits each tied positive/negative
    pair with exactly 0.5, the same convention as counting pairs directly.
    O(n log n); exact in float64 for any realistic n.

    Raises UndefinedMetricError (a DataError) when labels contain a single
    class, and TrainingError when a score is not finite (the scoring model
    diverged).
    """
    labels = np.asarray(labels, dtype=np.float64)
    scores = np.asarray(scores, dtype=np.float64)
    if labels.shape != scores.shape or labels.ndim != 1:
        raise ValueError(
            f"labels and scores must be matching 1-d arrays, got "
            f"{labels.shape} and {scores.shape}"
        )
    if not np.isfinite(scores).all():
        raise TrainingError("scores must be finite; the model has diverged")
    if not ((labels == 0.0) | (labels == 1.0)).all():
        raise ValueError("labels must be 0 or 1")
    n_pos = int(labels.sum())
    n_neg = labels.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetricError(
            f"AUC needs both classes, got {n_pos} positives and {n_neg} negatives"
        )
    # tie groups of the sorted scores, found by comparing neighbours: the
    # 0-based start of each, and one past its end. A group's average 1-based
    # rank, (start + 1 + end) / 2, is an exact half-integer, so the rank sum
    # has the same bits in any summation order, and the order within a group
    # does not matter: the sort need not be stable (a stable one is about 4x
    # slower on 2,000 rows).
    order = np.argsort(scores)
    ranked = scores[order]
    starts = np.flatnonzero(np.r_[True, ranked[1:] != ranked[:-1]])
    ends = np.r_[starts[1:], ranked.size]
    positives = np.add.reduceat(labels[order], starts)
    rank_sum = positives @ ((starts + 1 + ends) / 2.0)
    u = rank_sum - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))
