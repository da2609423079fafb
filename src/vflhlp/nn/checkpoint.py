"""Deterministic binary checkpoints.

Layout (all integers little-endian):

    magic   8 bytes  b"TBCKPT01"
    u32     metadata length, then canonical JSON (sorted keys, utf-8)
    u32     tensor count
    per tensor, in sorted name order:
        u16  name length, then utf-8 name
        u8   dtype code (0 = float64, 1 = int64)
        u8   ndim, then ndim * u32 dims
        raw  C-order little-endian data

Two checkpoints with equal tensors and metadata are byte-identical, which
is what the reproducibility criteria compare. A file that does not parse
exactly (cut short, an unknown dtype code, trailing bytes) is a DataError. The zip-based numpy formats
embed timestamps, so they are not used here.
"""
from __future__ import annotations

import json
import math
import struct
from pathlib import Path

import numpy as np

from ..errors import DataError

MAGIC = b"TBCKPT01"
_DTYPES = {0: np.dtype("<f8"), 1: np.dtype("<i8")}
_CODES = {np.dtype(np.float64): 0, np.dtype(np.int64): 1}


def save_checkpoint(path, tensors: dict[str, np.ndarray], meta: dict) -> None:
    path = Path(path)
    blob = bytearray()
    blob += MAGIC
    meta_bytes = json.dumps(meta, sort_keys=True, separators=(",", ":")).encode("utf-8")
    blob += struct.pack("<I", len(meta_bytes))
    blob += meta_bytes
    blob += struct.pack("<I", len(tensors))
    for name in sorted(tensors):
        arr = np.ascontiguousarray(tensors[name])
        if arr.dtype not in _CODES:
            raise ValueError(f"tensor {name!r} has unsupported dtype {arr.dtype}")
        name_bytes = name.encode("utf-8")
        blob += struct.pack("<H", len(name_bytes))
        blob += name_bytes
        blob += struct.pack("<BB", _CODES[arr.dtype], arr.ndim)
        blob += struct.pack(f"<{arr.ndim}I", *arr.shape)
        blob += arr.astype(_DTYPES[_CODES[arr.dtype]], copy=False).tobytes(order="C")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(bytes(blob))


def load_checkpoint(path) -> tuple[dict[str, np.ndarray], dict]:
    """Read a checkpoint; a truncated or corrupt file raises DataError naming it."""
    buf = Path(path).read_bytes()
    try:
        return _parse(buf, path)
    except (struct.error, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DataError(f"{path}: corrupt checkpoint: {exc}") from None


def _parse(buf: bytes, path) -> tuple[dict[str, np.ndarray], dict]:
    def need(nbytes: int, what: str) -> None:
        if off + nbytes > len(buf):
            raise DataError(f"{path}: {what} cut short")

    if buf[:8] != MAGIC:
        raise DataError(f"{path}: not a checkpoint file")
    off = 8
    (meta_len,) = struct.unpack_from("<I", buf, off)
    off += 4
    need(meta_len, "metadata")
    meta = json.loads(buf[off : off + meta_len].decode("utf-8"))
    if not isinstance(meta, dict):
        raise DataError(f"{path}: checkpoint metadata is not a JSON object")
    off += meta_len
    (count,) = struct.unpack_from("<I", buf, off)
    off += 4
    tensors: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = struct.unpack_from("<H", buf, off)
        off += 2
        need(name_len, "tensor name")
        name = buf[off : off + name_len].decode("utf-8")
        off += name_len
        code, ndim = struct.unpack_from("<BB", buf, off)
        off += 2
        if code not in _DTYPES:
            raise DataError(f"{path}: tensor {name!r} has unknown dtype code {code}")
        shape = struct.unpack_from(f"<{ndim}I", buf, off)
        off += 4 * ndim
        dtype = _DTYPES[code]
        n_items = math.prod(shape)
        need(n_items * dtype.itemsize, f"tensor {name!r}")
        arr = np.frombuffer(buf, dtype=dtype, count=n_items, offset=off)
        off += n_items * dtype.itemsize
        tensors[name] = arr.reshape(shape).copy()  # detach from the read-only buffer
    if off != len(buf):
        raise DataError(f"{path}: trailing bytes after last tensor")
    return tensors, meta
