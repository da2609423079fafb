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
exactly (cut short, an unknown dtype code, trailing bytes) is a DataError.
The reader checks each length against the file size before it allocates,
then reads each tensor straight into its own array. The zip-based numpy
formats embed timestamps, so they are not used here; model checkpoints and
the per-seed dataset cache both use this one format.
"""
from __future__ import annotations

import contextlib
import json
import math
import os
import struct
from pathlib import Path

import numpy as np

from ..errors import DataError, sigint_held

MAGIC = b"TBCKPT01"
_DTYPES = {0: np.dtype("<f8"), 1: np.dtype("<i8")}
_CODES = {np.dtype(np.float64): 0, np.dtype(np.int64): 1}


def save_checkpoint(path, tensors: dict[str, np.ndarray], meta: dict) -> None:
    blob = bytearray()
    blob += MAGIC
    meta_bytes = json.dumps(meta, sort_keys=True, separators=(",", ":")).encode("utf-8")
    blob += struct.pack("<I", len(meta_bytes))
    blob += meta_bytes
    blob += struct.pack("<I", len(tensors))
    for name in sorted(tensors):
        arr = np.asarray(tensors[name])  # ascontiguousarray would make a 0-d tensor 1-d
        if arr.dtype not in _CODES:
            raise ValueError(f"tensor {name!r} has unsupported dtype {arr.dtype}")
        name_bytes = name.encode("utf-8")
        blob += struct.pack("<H", len(name_bytes))
        blob += name_bytes
        blob += struct.pack("<BB", _CODES[arr.dtype], arr.ndim)
        blob += struct.pack(f"<{arr.ndim}I", *arr.shape)
        blob += arr.astype(_DTYPES[_CODES[arr.dtype]], copy=False).tobytes(order="C")
    write_file(path, bytes(blob))


def write_file(path, data: str | bytes) -> None:
    """Write `data` (text as utf-8) to `path` whole, creating its directory:
    the bytes go to a sibling temporary file that `os.replace` then moves
    over `path`, so a reader finds the previous file or the new one, never a
    cut one. An OSError (a directory at `path`, say) is a DataError naming it,
    a SIGINT waits for the write (`sigint_held`): neither leaves a temp file."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    with sigint_held():
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp.write_bytes(data.encode("utf-8") if isinstance(data, str) else data)
            os.replace(tmp, path)
        except OSError as exc:
            with contextlib.suppress(OSError):
                tmp.unlink()
            raise DataError(f"{path}: cannot write: {exc.strerror or exc}") from None


def load_checkpoint(path) -> tuple[dict[str, np.ndarray], dict]:
    """Read a checkpoint tensor by tensor; a missing, unreadable, truncated or
    corrupt file raises DataError naming it."""
    try:
        with open(path, "rb") as fh:
            return _read(fh, os.fstat(fh.fileno()).st_size, path)
    except OSError as exc:
        raise DataError(f"{path}: cannot read checkpoint: {exc.strerror or exc}") from None
    except (struct.error, ValueError, RecursionError) as exc:  # bad JSON or UTF-8 too
        raise DataError(f"{path}: corrupt checkpoint: {exc}") from None


def _read(fh, size: int, path) -> tuple[dict[str, np.ndarray], dict]:
    def fits(nbytes: int, what: str) -> int:
        # every length is checked against the file before anything is allocated
        if nbytes > size - fh.tell():
            raise DataError(f"{path}: {what} cut short")
        return nbytes

    def unpack(fmt: str, what: str) -> tuple:
        return struct.unpack(fmt, fh.read(fits(struct.calcsize(fmt), what)))

    if fh.read(len(MAGIC)) != MAGIC:
        raise DataError(f"{path}: not a checkpoint file")
    (meta_len,) = unpack("<I", "metadata length")
    meta = json.loads(fh.read(fits(meta_len, "metadata")).decode("utf-8"))
    if not isinstance(meta, dict):
        raise DataError(f"{path}: checkpoint metadata is not a JSON object")
    (count,) = unpack("<I", "tensor count")
    tensors: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = unpack("<H", "tensor name length")
        name = fh.read(fits(name_len, "tensor name")).decode("utf-8")
        code, ndim = unpack("<BB", f"tensor {name!r} header")
        if code not in _DTYPES:
            raise DataError(f"{path}: tensor {name!r} has unknown dtype code {code}")
        shape = unpack(f"<{ndim}I", f"tensor {name!r} shape")
        dtype = _DTYPES[code]
        fits(math.prod(shape) * dtype.itemsize, f"tensor {name!r}")
        tensors[name] = np.empty(shape, dtype=dtype)
        fh.readinto(tensors[name])
    if fh.tell() != size:
        raise DataError(f"{path}: trailing bytes after last tensor")
    return tensors, meta
