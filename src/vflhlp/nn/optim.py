"""Plain SGD and Adam over one flat parameter vector.

A step updates `theta` in place from `grad`, laid out the same way, with a
learning rate that is one number or one per entry. Every operation works
element by element, so one step over a vector that concatenates several
models (a `ModelSet`) moves each of them exactly as a step of its own would.
Pass the vector's ParamLayout so a non-finite gradient is reported by the
tensor that holds it.
"""
from __future__ import annotations

import numpy as np

from ..errors import ConfigError, TrainingError
from .layers import ParamLayout


def _check_finite(
    g: np.ndarray, layout: ParamLayout | None, what: str = "gradient"
) -> None:
    if not np.logical_and.reduce(np.isfinite(g), axis=None):
        first = int(np.flatnonzero(~np.isfinite(g))[0])
        where = f"entry {first}" if layout is None else repr(layout.name_at(first))
        raise TrainingError(f"non-finite {what} for parameter {where}")


class SgdOptimizer:
    """theta <- theta - lr * grad. Stateless."""

    def step(
        self,
        theta: np.ndarray,
        grad: np.ndarray,
        lr: float | np.ndarray,
        layout: ParamLayout | None = None,
    ) -> None:
        _check_finite(grad, layout)
        theta -= lr * grad


class AdamOptimizer:
    """Adam with bias correction. The moments `m` and `v` are laid out like
    the vector it first steps."""

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self):
        self.t = 0
        self.m: np.ndarray | None = None
        self.v: np.ndarray | None = None

    def step(
        self,
        theta: np.ndarray,
        grad: np.ndarray,
        lr: float | np.ndarray,
        layout: ParamLayout | None = None,
    ) -> None:
        _check_finite(grad, layout)
        if self.m is None:
            self.m, self.v = np.zeros_like(theta), np.zeros_like(theta)
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        c1 = 1.0 - b1**self.t
        c2 = 1.0 - b2**self.t
        m, v = self.m, self.v
        m *= b1
        m += (1.0 - b1) * grad
        v *= b2
        v += (1.0 - b2) * grad * grad
        v_hat = v / c2
        # a finite gradient above about 1e154 squares past the float64 range;
        # no entry moves unless every one can
        _check_finite(v_hat, layout, "gradient square (gradient too large)")
        theta -= lr * (m / c1) / (np.sqrt(v_hat) + self.eps)


OPTIMIZERS = {"sgd": SgdOptimizer, "adam": AdamOptimizer}


def check_schedule(epochs: int, batch_size: int, **rates: float) -> None:
    """ConfigError unless epochs >= 0, batch_size >= 1 and each named rate (a
    learning rate, or the constraint weight beta) is >= 0; a NaN fails too."""
    for name, value, low in (("epochs", epochs, 0), ("batch_size", batch_size, 1),
                             *((name, rate, 0) for name, rate in rates.items())):
        if not value >= low:
            raise ConfigError(f"{name} must be >= {low}, got {value}")


def make_optimizer(name: str) -> SgdOptimizer | AdamOptimizer:
    if name not in OPTIMIZERS:
        raise ConfigError(f"unknown optimizer {name!r}; expected one of {list(OPTIMIZERS)}")
    return OPTIMIZERS[name]()
