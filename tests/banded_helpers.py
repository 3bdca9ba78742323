"""Entry-wise access to BandedMatrix for tests: dense oracles and direct
diagonal assembly, kept out of the library because only tests use them."""

from __future__ import annotations

import numpy as np

from beclab import BandedMatrix


def get_entry(a: BandedMatrix, i: int, j: int) -> float:
    if abs(i - j) > a.bandwidth:
        return 0.0
    return float(a.data[a.bandwidth + i - j, j])


def add_diagonal(a: BandedMatrix, offset: int, values: np.ndarray) -> None:
    """Add `values` along diagonal j - i = offset (column-indexed)."""
    if abs(offset) > a.bandwidth:
        raise ValueError(f"offset {offset} outside bandwidth {a.bandwidth}")
    col0 = max(0, offset)
    length = a.dim - abs(offset)
    if len(values) != length:
        raise ValueError(f"diagonal length {len(values)} != {length}")
    a.data[a.bandwidth - offset, col0 : col0 + length] += values


def to_dense(a: BandedMatrix) -> np.ndarray:
    bw, dim = a.bandwidth, a.dim
    dense = np.zeros((dim, dim))
    for offset in range(-bw, bw + 1):
        col0 = max(0, offset)
        row0 = max(0, -offset)
        length = dim - abs(offset)
        idx = np.arange(length)
        dense[row0 + idx, col0 + idx] = a.data[bw - offset, col0 : col0 + length]
    return dense


def symmetry_defect(a: BandedMatrix) -> float:
    """max |A - A^T| over stored entries."""
    defect = 0.0
    for offset in range(1, a.bandwidth + 1):
        upper = a.data[a.bandwidth - offset, offset:]
        lower = a.data[a.bandwidth + offset, : a.dim - offset]
        defect = max(defect, float(np.max(np.abs(upper - lower), initial=0.0)))
    return defect
