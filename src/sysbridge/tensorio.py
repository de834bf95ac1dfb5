"""Flat binary tensor files plus CSV import for small matrices.

File layout: magic bytes ``SDBT``, a little-endian u32 rank, ``rank``
little-endian u32 dimensions, then the row-major float64 payload,
little-endian.  The format is self-describing, so multiple tensors can be
concatenated into one stream (used by model checkpoints).
"""

from __future__ import annotations

import struct

import numpy as np

from .errors import DimensionError

MAGIC = b"SDBT"
_MAX_RANK = 32


def write_tensor(fh, array) -> None:
    """Append one tensor record to an open binary stream."""
    arr = np.ascontiguousarray(array, dtype=np.float64)
    fh.write(MAGIC)
    fh.write(struct.pack("<I", arr.ndim))
    for dim in arr.shape:
        fh.write(struct.pack("<I", dim))
    fh.write(arr.astype("<f8", copy=False).tobytes(order="C"))


def _read_exact(fh, n: int) -> bytes:
    data = fh.read(n)
    if len(data) != n:
        raise DimensionError("truncated tensor record")
    return data


def read_tensor(fh, shape=None) -> np.ndarray:
    """Read one tensor record from an open binary stream.

    With ``shape`` given, a record of any other shape is refused before its
    payload is read.
    """
    magic = _read_exact(fh, 4)
    if magic != MAGIC:
        raise DimensionError(f"bad tensor magic {magic!r}, expected {MAGIC!r}")
    (rank,) = struct.unpack("<I", _read_exact(fh, 4))
    if rank > _MAX_RANK:
        raise DimensionError(f"tensor rank {rank} exceeds limit {_MAX_RANK}")
    found = struct.unpack(f"<{rank}I", _read_exact(fh, 4 * rank))
    if shape is not None and found != tuple(shape):
        raise DimensionError(f"tensor has shape {found}, expected {tuple(shape)}")
    count = int(np.prod(found, dtype=np.int64)) if rank else 1
    payload = _read_exact(fh, 8 * count)
    return np.frombuffer(payload, dtype="<f8").astype(np.float64).reshape(found)


def save_tensor(path, array) -> None:
    with open(path, "wb") as fh:
        write_tensor(fh, array)


def load_tensor(path) -> np.ndarray:
    with open(path, "rb") as fh:
        return read_tensor(fh)


def load_matrix_csv(path) -> np.ndarray:
    """Import a small dense matrix from comma-separated text.

    One row per line, '.' decimal separator, no header.
    """
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            rows.append([float(tok) for tok in line.split(",")])
    if not rows:
        raise DimensionError(f"empty CSV matrix file: {path}")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise DimensionError(f"ragged CSV matrix file: {path}")
    return np.asarray(rows, dtype=np.float64)


def save_matrix_csv(path, array) -> None:
    arr = np.atleast_2d(np.asarray(array, dtype=np.float64))
    with open(path, "w", encoding="utf-8") as fh:
        for row in arr:
            fh.write(",".join(repr(float(v)) for v in row))
            fh.write("\n")
