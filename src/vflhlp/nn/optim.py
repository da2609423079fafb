"""Plain SGD and Adam over named parameter dicts.

Optimizers mutate the parameter arrays in place. State is keyed by
parameter name so the same optimizer instance can be checkpointed and the
update sequence replayed bit-for-bit. An entry may be a model's whole flat
parameter vector; pass its ParamLayout in `layouts` so a non-finite
gradient is reported by the tensor that holds it.
"""
from __future__ import annotations

import numpy as np

from ..errors import ConfigError, TrainingError
from .layers import ParamLayout


def _check_finite(
    grads: dict[str, np.ndarray],
    layouts: dict[str, ParamLayout] | None,
    what: str = "gradient",
) -> None:
    for name, g in grads.items():
        if not np.logical_and.reduce(np.isfinite(g), axis=None):
            layout = (layouts or {}).get(name)
            if layout is not None:
                first = int(np.flatnonzero(~np.isfinite(g))[0])
                name = f"{name}.{layout.name_at(first)}"
            raise TrainingError(f"non-finite {what} for parameter {name!r}")


class SgdOptimizer:
    """theta <- theta - lr * grad. Stateless."""

    def step(
        self,
        params: dict[str, np.ndarray],
        grads: dict[str, np.ndarray],
        lr: float,
        layouts: dict[str, ParamLayout] | None = None,
    ) -> None:
        _check_finite(grads, layouts)
        for name, p in params.items():
            p -= lr * grads[name]


class AdamOptimizer:
    """Adam with bias correction; defaults beta1=0.9, beta2=0.999, eps=1e-8."""

    def __init__(self, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}

    def step(
        self,
        params: dict[str, np.ndarray],
        grads: dict[str, np.ndarray],
        lr: float,
        layouts: dict[str, ParamLayout] | None = None,
    ) -> None:
        _check_finite(grads, layouts)
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        c1 = 1.0 - b1**self.t
        c2 = 1.0 - b2**self.t
        steps = []
        for name, p in params.items():
            g = grads[name]
            m = self.m.get(name)
            if m is None:
                m = self.m[name] = np.zeros_like(p)
                self.v[name] = np.zeros_like(p)
            v = self.v[name]
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            v_hat = v / c2
            # a finite gradient above about 1e154 squares past the float64 range
            _check_finite({name: v_hat}, layouts, "gradient square (gradient too large)")
            steps.append((p, m, v_hat))
        for p, m, v_hat in steps:  # no parameter moves unless every one can
            p -= lr * (m / c1) / (np.sqrt(v_hat) + self.eps)


OPTIMIZERS = {"sgd": SgdOptimizer, "adam": AdamOptimizer}


def check_schedule(epochs: int, batch_size: int, **rates: float) -> None:
    """ConfigError unless epochs >= 0, batch_size >= 1 and each named learning
    rate is >= 0; a NaN fails too."""
    for name, value, low in (("epochs", epochs, 0), ("batch_size", batch_size, 1),
                             *((name, rate, 0) for name, rate in rates.items())):
        if not value >= low:
            raise ConfigError(f"{name} must be >= {low}, got {value}")


def make_optimizer(name: str) -> SgdOptimizer | AdamOptimizer:
    if name not in OPTIMIZERS:
        raise ConfigError(f"unknown optimizer {name!r}; expected one of {list(OPTIMIZERS)}")
    return OPTIMIZERS[name]()
