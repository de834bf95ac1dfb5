"""Flat binary tensor files.

File layout: magic bytes ``SDBT``, a little-endian u32 rank, ``rank``
little-endian u32 dimensions, then the row-major float64 payload,
little-endian.  The format is self-describing, so multiple tensors can be
concatenated into one stream (used by model checkpoints).
"""

from __future__ import annotations

import io
import math
import struct

import numpy as np

from .errors import DimensionError

MAGIC = b"SDBT"
_MAX_RANK = 32
_CHUNK = 1 << 24  # largest single read: a short stream fails before more is held


def write_tensor(fh, array) -> None:
    """Append one tensor record to an open binary stream."""
    arr = np.asarray(array, dtype=np.float64)
    fh.write(MAGIC)
    fh.write(struct.pack("<I", arr.ndim))
    for dim in arr.shape:
        fh.write(struct.pack("<I", dim))
    fh.write(arr.astype("<f8", copy=False).tobytes(order="C"))


def _read_exact(fh, n: int) -> bytes:
    chunks = []
    while n > 0:
        data = fh.read(min(n, _CHUNK))
        if not data:
            raise DimensionError("truncated tensor record")
        chunks.append(data)
        n -= len(data)
    return b"".join(chunks)


def _bytes_left(fh):
    """Bytes from the position to the end of a seekable stream, else None."""
    if not fh.seekable():
        return None
    here = fh.tell()
    end = fh.seek(0, io.SEEK_END)
    fh.seek(here)
    return end - here


def read_tensor(fh, shape=None) -> np.ndarray:
    """Read one tensor record from an open binary stream.

    With ``shape`` given, a record of any other shape is refused before its
    payload is read.  On a seekable stream, so is a record claiming more
    payload than the stream holds; on any other, the payload is read in
    bounded chunks, so a short stream fails having held no more than it had.
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
    size = 8 * math.prod(found)
    left = _bytes_left(fh)
    if left is not None and size > left:
        raise DimensionError(
            f"truncated tensor record: shape {found} needs {size} payload bytes, {left} left"
        )
    flat = np.frombuffer(_read_exact(fh, size), dtype="<f8").astype(np.float64)
    try:
        return flat.reshape(found)
    except ValueError as exc:  # a zero-size shape whose other dimensions overflow numpy's size
        raise DimensionError(f"tensor shape {found}: {exc}") from exc


def save_tensor(path, array) -> None:
    with open(path, "wb") as fh:
        write_tensor(fh, array)


def load_tensor(path) -> np.ndarray:
    with open(path, "rb") as fh:
        return read_tensor(fh)
