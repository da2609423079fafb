"""AUC tests against a brute-force pairwise oracle."""
import numpy as np
import pytest

from vflhlp.errors import TrainingError, UndefinedMetricError
from vflhlp.metrics import auc
from vflhlp.rng import stream


def pairwise_auc(labels: np.ndarray, scores: np.ndarray) -> float:
    """O(P*N) definition: P(score_pos > score_neg) + 0.5 * P(tie)."""
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                wins += 1.0
            elif p == q:
                wins += 0.5
    return wins / (len(pos) * len(neg))


def test_auc_matches_pairwise_oracle_continuous():
    rng = stream(100, "auc")
    for trial in range(10):
        labels = (rng.uniform(size=60) < 0.4).astype(np.int64)
        if labels.min() == labels.max():
            continue
        scores = rng.standard_normal(60)
        assert auc(labels, scores) == pairwise_auc(labels, scores)


def test_auc_matches_pairwise_oracle_with_heavy_ties():
    rng = stream(101, "auc-ties")
    for trial in range(10):
        labels = (rng.uniform(size=80) < 0.5).astype(np.int64)
        if labels.min() == labels.max():
            continue
        # few distinct score values forces large tie groups
        scores = rng.integers(0, 4, size=80).astype(np.float64)
        assert auc(labels, scores) == pairwise_auc(labels, scores)


@pytest.mark.parametrize("values", [
    (-0.0, 0.0), (-0.0, 0.0, 1.0), (-1.0, -0.0, 0.0, 2.5), (0.5,),
], ids=["signed-zeros", "signed-zeros-and-one", "signed-zeros-among-others", "all-tied"])
def test_auc_counts_pairs_exactly_whatever_the_row_order(values):
    # -0.0 and +0.0 are one tie group; the rank sum is a sum of half-integers,
    # so any row order gives the same bits as counting pairs
    rng = stream(103, "auc-order", len(values))
    for trial in range(20):
        n = int(rng.integers(2, 40))
        labels = np.r_[0, 1, rng.integers(0, 2, size=n - 2)]
        scores = rng.choice(np.array(values), size=n)
        expected = pairwise_auc(labels, scores)
        for perm in (np.arange(n), np.arange(n)[::-1], rng.permutation(n)):
            assert auc(labels[perm], scores[perm]) == expected
    with pytest.raises(UndefinedMetricError):
        auc(np.zeros(6, dtype=np.int64), np.array(values * 6)[:6])
    with pytest.raises(TrainingError):
        auc(np.array([0, 1, 1]), np.array([values[0], np.inf, values[-1]]))


def test_auc_reads_lists_and_boolean_labels_as_numbers():
    labels, scores = [0, 1, 1, 0, 1], [0.1, 0.4, 0.35, 0.4, 0.4]
    expected = pairwise_auc(np.array(labels), np.array(scores))
    assert expected == 4 / 6  # two ties among the six pairs
    assert auc(labels, scores) == expected
    assert auc(np.array(labels, dtype=bool), np.array(scores)) == expected
    assert auc(np.array(labels), np.array([1, 4, 3, 4, 4])) == expected


def test_auc_known_values():
    labels = np.array([0, 0, 1, 1])
    assert auc(labels, np.array([0.1, 0.2, 0.8, 0.9])) == 1.0
    assert auc(labels, np.array([0.9, 0.8, 0.2, 0.1])) == 0.0
    assert auc(labels, np.array([0.5, 0.5, 0.5, 0.5])) == 0.5
    # one inversion out of four pairs
    assert auc(labels, np.array([0.1, 0.8, 0.2, 0.9])) == 0.75


def test_auc_invariant_to_monotone_transform():
    rng = stream(102, "auc-mono")
    labels = (rng.uniform(size=50) < 0.5).astype(np.int64)
    scores = rng.standard_normal(50)
    assert auc(labels, scores) == auc(labels, 3.0 * scores + 7.0)


def test_auc_single_class_is_undefined():
    with pytest.raises(UndefinedMetricError):
        auc(np.ones(5, dtype=np.int64), np.linspace(0, 1, 5))
    with pytest.raises(UndefinedMetricError):
        auc(np.zeros(5, dtype=np.int64), np.linspace(0, 1, 5))


def test_auc_rejects_bad_inputs():
    with pytest.raises(ValueError):
        auc(np.array([0, 1, 2]), np.zeros(3))
    with pytest.raises(TrainingError):  # a diverged model, not a caller's bug
        auc(np.array([0, 1]), np.array([0.5, np.nan]))
    with pytest.raises(TrainingError):
        auc(np.array([0, 1]), np.array([-np.inf, 0.5]))
    with pytest.raises(ValueError):
        auc(np.array([0, 1]), np.zeros(3))


def test_auc_rejects_a_label_that_is_neither_class():
    # both classes are present, so only the label check can refuse this
    with pytest.raises(ValueError, match="labels must be 0 or 1"):
        auc(np.array([0.0, 1.0, 0.5, 0.0]), np.arange(4.0))
