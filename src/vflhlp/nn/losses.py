"""Binary cross-entropy on logits, numerically stable for large |logit|."""
from __future__ import annotations

import numpy as np

from ..errors import SchemaError

# 0-d float64 operands for the per-batch ufuncs: numpy turns a Python float
# operand into an array on every call, about 0.2 us more at batch 8
_ZERO, _ONE = np.zeros(()), np.ones(())


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Stable logistic function, exact for extreme logits."""
    x = np.asarray(x, dtype=np.float64)
    # exp(-|x|) never overflows. The numerator is 1 where x >= 0, else e:
    # 0 <= e <= 1, and a NaN propagates
    e = np.exp(-np.abs(x))
    return np.maximum(e, x >= _ZERO) / (_ONE + e)


def check_labels(labels) -> np.ndarray:
    """The labels as float64; SchemaError unless every one is 0 or 1."""
    labels = np.asarray(labels, dtype=np.float64)
    if not ((labels == 0.0) | (labels == 1.0)).all():
        raise SchemaError("labels must be 0 or 1")
    return labels


def bce_with_logits(logits: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean binary cross-entropy and its gradient w.r.t. the logits.

    Uses the max(l, 0) - l*y + log(1 + exp(-|l|)) form so logits of +-1000
    produce finite losses and gradients. Gradient is (sigmoid(l) - y) / n.

    Args:
        logits: [n] float64 logits, n >= 1.
        labels: [n] float64 labels in {0, 1}, which `check_labels` passed
            once where the run started; nothing is cast or checked here.

    Returns:
        (loss, dloss_dlogits) with dloss_dlogits shaped like logits.
    """
    n = logits.size
    e = np.exp(-np.abs(logits))  # once, for the loss and for sigmoid's two branches
    per = np.maximum(logits, _ZERO) - logits * labels + np.log1p(e)
    # sigmoid's numerator: 1 where logits >= 0, else e; 0 <= e <= 1 and NaN propagates
    grad = (np.maximum(e, logits >= _ZERO) / (_ONE + e) - labels) / n
    return float(np.add.reduce(per) / n), grad  # == per.mean(), without its wrappers
