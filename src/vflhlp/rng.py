"""Deterministic named random streams.

Every random draw in the package comes from a stream derived from one root
seed plus a path of names, e.g. ``stream(seed, "downstream", "init", 2)``.
Streams with different paths are statistically independent, and the same
(seed, path) always yields the same generator state, which is what makes
byte-identical reruns possible.
"""
from __future__ import annotations

import hashlib
import sys

import numpy as np

from .errors import sigint_held


def _path_key(part: str | int) -> int:
    if isinstance(part, bool):  # bool is an int subclass, reject it
        raise TypeError("stream path parts must be str or int")
    if isinstance(part, int):
        if part < 0:
            raise ValueError("stream path ints must be non-negative")
        return part
    if isinstance(part, str):
        digest = hashlib.sha256(part.encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "little")
    raise TypeError(f"stream path parts must be str or int, got {type(part)!r}")


def stream(root_seed: int, *path: str | int) -> np.random.Generator:
    """Return a Generator for the named substream of ``root_seed``."""
    if root_seed < 0:
        raise ValueError("root seed must be non-negative")
    entropy = [int(root_seed)] + [_path_key(p) for p in path]
    if "numpy.random" not in sys.modules:  # the first stream imports it
        with sigint_held():  # a KeyboardInterrupt raised in its Cython import can be lost
            import numpy.random  # noqa: F401  (binds np.random)
    return np.random.default_rng(np.random.SeedSequence(entropy))
