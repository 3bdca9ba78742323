"""Banded linear algebra on LAPACK band storage.

A square matrix with equal lower and upper bandwidth bw is held as a
(2*bw+1, dim) array `data` with A[i, j] = data[bw + i - j, j]; row bw is the
main diagonal. Factorisation and solves go through LAPACK's gbtrf/gbtrs
(gttrf/gttrs when bw = 1) so that a singular or near-singular pivot is
reported with its index. For a symmetric matrix, rows data[:bw+1] are
LAPACK's upper band, for pbtrf/pbtrs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import get_lapack_funcs

__all__ = [
    "SingularSystemError",
    "BandedMatrix",
    "BandedLU",
    "BandedCholesky",
]


class SingularSystemError(RuntimeError):
    """Singular or near-singular pivot encountered at `index`."""

    def __init__(self, index: int, message: str | None = None):
        self.index = index
        super().__init__(message or f"singular pivot at index {index}")


@dataclass
class BandedMatrix:
    bandwidth: int
    data: np.ndarray  # shape (2*bandwidth+1, dim)

    @classmethod
    def zeros(cls, dim: int, bandwidth: int) -> "BandedMatrix":
        if not 0 <= bandwidth < dim:
            raise ValueError(f"need 0 <= bandwidth < dim, got {bandwidth} and {dim}")
        return cls(bandwidth=bandwidth, data=np.zeros((2 * bandwidth + 1, dim)))

    @property
    def dim(self) -> int:
        return self.data.shape[1]

    def set_entry(self, i: int, j: int, value: float) -> None:
        if abs(i - j) > self.bandwidth:
            raise ValueError(f"entry ({i}, {j}) outside bandwidth {self.bandwidth}")
        self.data[self.bandwidth + i - j, j] = value

    def diagonals(self):
        """Each stored diagonal as (offset, rows, cols, band), offset = j - i:
        band[k] is the entry at row rows.start + k and column cols.start + k,
        and band is a writable view into data."""
        bw, dim = self.bandwidth, self.dim
        for offset in range(-bw, bw + 1):
            cols = slice(max(0, offset), dim - max(0, -offset))
            rows = slice(max(0, -offset), dim - max(0, offset))
            yield offset, rows, cols, self.data[bw - offset, cols]

    def matvec(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        y = np.zeros_like(x)
        for _, rows, cols, band in self.diagonals():
            y[rows] += band * x[cols]
        return y


class BandedLU:
    """LU factorisation of a BandedMatrix, reusable for repeated solves.

    Rows are equilibrated (scaled to unit max) before factorisation: the
    assemblies here mix O(1/h^2) stencil rows with O(1) boundary rows, and
    pivot-size diagnostics are meaningless without a common row scale.
    A zero or machine-scale pivot raises SingularSystemError with its index.
    """

    def __init__(self, matrix: BandedMatrix):
        bw, dim = matrix.bandwidth, matrix.dim
        row_max = np.zeros(dim)
        for _, rows, _, band in matrix.diagonals():
            np.maximum(row_max[rows], np.abs(band), out=row_max[rows])
        if float(np.min(row_max)) == 0.0:
            raise SingularSystemError(int(np.argmin(row_max)), "zero row")
        row_scale = 1.0 / row_max
        if bw == 1 and dim > 2:  # SciPy's gttrf wrapper rejects dim <= 2
            # tridiagonal: gttrf pivots as gbtrf does, at a fraction of the
            # per-column cost that dominates gbtrf and gbtrs on one band
            sub, diag, sup = (
                band * row_scale[rows] for _, rows, _, band in matrix.diagonals()
            )
            gttrf, gttrs = get_lapack_funcs(("gttrf", "gttrs"), (diag,))
            *lu, info = gttrf(sub, diag, sup)
            udiag = lu[1]
            self._solve = lambda b: gttrs(*lu, b)
        else:
            # gbtrf wants kl extra rows on top for fill-in: ab[kl+ku+i-j, j].
            ab = np.zeros((3 * bw + 1, dim))
            for offset, rows, cols, band in matrix.diagonals():
                ab[2 * bw - offset, cols] = band * row_scale[rows]
            gbtrf, gbtrs = get_lapack_funcs(("gbtrf", "gbtrs"), (ab,))
            lu, piv, info = gbtrf(ab, bw, bw)
            udiag = lu[2 * bw]
            self._solve = lambda b: gbtrs(lu, bw, bw, b, piv)
        if info > 0:
            raise SingularSystemError(info - 1)
        if info < 0:
            raise ValueError(f"LU factorisation: illegal argument {-info}")
        udiag = np.abs(udiag)
        threshold = dim * np.finfo(float).eps  # rows have unit max after scaling
        if float(np.min(udiag)) <= threshold:
            raise SingularSystemError(
                int(np.argmin(udiag)),
                f"near-singular pivot at index {int(np.argmin(udiag))}",
            )
        self._row_scale = row_scale

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        rhs = np.asarray(rhs, dtype=float)
        if rhs.shape != self._row_scale.shape:
            raise ValueError(f"rhs shape {rhs.shape} is not ({self._row_scale.shape[0]},)")
        x, info = self._solve(rhs * self._row_scale)
        if info != 0:
            raise ValueError(f"LU solve: illegal argument {-info}")
        return x


class BandedCholesky:
    """Cholesky factorisation of A - shift*I for a symmetric BandedMatrix
    A, read from its upper band alone, reusable for repeated solves. It
    exists exactly when A - shift*I is positive definite, so one that
    succeeds proves that A has no eigenvalue at or below shift; a pivot
    that is not positive raises SingularSystemError with its index.
    """

    def __init__(self, matrix: BandedMatrix, shift: float):
        bw = matrix.bandwidth
        ab = matrix.data[: bw + 1].copy(order="F")
        ab[bw] -= shift
        pbtrf, self._pbtrs = get_lapack_funcs(("pbtrf", "pbtrs"), (ab,))
        self._factor, info = pbtrf(ab, overwrite_ab=1)
        if info > 0:
            raise SingularSystemError(info - 1, f"A - {shift!r} I is not positive definite")
        if info < 0:
            raise ValueError(f"pbtrf: illegal argument {-info}")

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        if np.shape(rhs) != (self._factor.shape[1],):
            raise ValueError(f"rhs shape {np.shape(rhs)} is not ({self._factor.shape[1]},)")
        x, info = self._pbtrs(self._factor, rhs)
        if info != 0:
            raise ValueError(f"pbtrs: illegal argument {-info}")
        return x
