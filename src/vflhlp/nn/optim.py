"""Plain SGD and Adam over named parameter dicts.

Optimizers mutate the parameter arrays in place. State is keyed by
parameter name so the same optimizer instance can be checkpointed and the
update sequence replayed bit-for-bit. An entry may be a model's whole flat
parameter vector; pass its ParamLayout in `layouts` so a non-finite
gradient is reported by the tensor that holds it.
"""
from __future__ import annotations

import numpy as np

from ..errors import TrainingError
from .layers import ParamLayout


def _check_finite(
    grads: dict[str, np.ndarray], layouts: dict[str, ParamLayout] | None
) -> None:
    for name, g in grads.items():
        if not np.isfinite(g).all():
            layout = (layouts or {}).get(name)
            if layout is not None:
                first = int(np.flatnonzero(~np.isfinite(g))[0])
                name = f"{name}.{layout.name_at(first)}"
            raise TrainingError(f"non-finite gradient for parameter {name!r}")


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
            p -= lr * (m / c1) / (np.sqrt(v / c2) + self.eps)


def make_optimizer(name: str) -> SgdOptimizer | AdamOptimizer:
    if name == "sgd":
        return SgdOptimizer()
    if name == "adam":
        return AdamOptimizer()
    raise ValueError(f"unknown optimizer {name!r}")
