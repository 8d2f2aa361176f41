"""Matrix container formats: a small binary format (bit-exact) and CSV."""

from __future__ import annotations

import os
import struct

import numpy as np

_MAGIC = b"SPKD"
_VERSION = 1
_HEADER = struct.Struct("<IQQ")   # version, rows, cols


def save_matrix(path, arr: np.ndarray) -> None:
    """Binary container: magic, version, dims, row-major float64 (little endian)."""
    a = np.ascontiguousarray(arr, dtype="<f8")
    if a.ndim == 1:
        a = a.reshape(1, -1)
    if a.ndim != 2:
        raise ValueError("only 1-D or 2-D arrays are supported")
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(_HEADER.pack(_VERSION, a.shape[0], a.shape[1]))
        fh.write(a.tobytes(order="C"))


def load_matrix(path) -> np.ndarray:
    """Read a binary container; the header's size is checked against the file first."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != _MAGIC:
            raise ValueError(f"not a matrix container (magic {magic!r})")
        header = fh.read(_HEADER.size)
        if len(header) != _HEADER.size:
            raise ValueError("truncated matrix container header")
        version, rows, cols = _HEADER.unpack(header)
        if version != _VERSION:
            raise ValueError(f"unsupported container version {version}")
        if rows * cols * 8 > os.fstat(fh.fileno()).st_size - fh.tell():
            raise ValueError(f"truncated matrix container ({rows} x {cols} "
                             "float64 does not fit the file)")
        data = np.frombuffer(fh.read(rows * cols * 8), dtype="<f8")
    return data.reshape(rows, cols).copy()


def save_matrix_csv(path, arr: np.ndarray) -> None:
    np.savetxt(path, np.atleast_2d(arr), delimiter=",", fmt="%.17g")


def load_matrix_csv(path) -> np.ndarray:
    return np.atleast_2d(np.loadtxt(path, delimiter=",", dtype=float))


def load_any_matrix(path) -> np.ndarray:
    """Binary container if the magic matches, CSV otherwise."""
    with open(path, "rb") as fh:
        head = fh.read(4)
    if head == _MAGIC:
        return load_matrix(path)
    return load_matrix_csv(path)
