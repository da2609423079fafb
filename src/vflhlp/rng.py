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


def _import_random() -> None:
    """Import numpy.random, holding back a SIGINT that comes meanwhile until the
    import is done: a KeyboardInterrupt raised inside its Cython import can be
    swallowed there. Python runs signal handlers in the main thread alone, so
    another thread's import needs nothing held back."""
    import signal
    import threading

    caught, handler = [], signal.getsignal(signal.SIGINT)
    defer = callable(handler) and threading.current_thread() is threading.main_thread()
    if defer:
        signal.signal(signal.SIGINT, lambda *args: caught.append(args))
    try:
        import numpy.random  # noqa: F401  (binds np.random)
    finally:
        if defer:
            signal.signal(signal.SIGINT, handler)
    if caught:
        handler(*caught[0])  # a KeyboardInterrupt, for Python's own handler


def stream(root_seed: int, *path: str | int) -> np.random.Generator:
    """Return a Generator for the named substream of ``root_seed``."""
    if root_seed < 0:
        raise ValueError("root seed must be non-negative")
    entropy = [int(root_seed)] + [_path_key(p) for p in path]
    if "numpy.random" not in sys.modules:  # the first stream imports it
        _import_random()
    return np.random.default_rng(np.random.SeedSequence(entropy))
