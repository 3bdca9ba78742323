"""Banded linear algebra on LAPACK band storage.

A square matrix with equal lower and upper bandwidth bw is held as a
(2*bw+1, dim) array `data` with A[i, j] = data[bw + i - j, j]; row bw is the
main diagonal. LU factorisation and solves go through LAPACK's
gbtrf/gbtrs, so that a singular, near-singular or non-finite pivot is
reported with its index; they serve Newton's Jacobians alone. For a
symmetric matrix, rows data[:bw+1] are LAPACK's upper band, for the
spectrum's pbtrf/pbtrs. These four are the only LAPACK routines beclab
calls.

The Cholesky factor is computed in LAPACK's lower band storage, copied
from the upper band, and laid back into the upper band for pbtrs. On the
upper storage OpenBLAS's unblocked dpbtf2, which pbtrf runs for narrow
bands, scales and updates each column along a vector of stride ldab - 1;
on the lower one the stride is 1, and a bandwidth-2 sector block of
dimension 8191 factors in about a third of the time. The lower factor is
the upper one transposed, entry by entry the same products, so factors
and solves are unchanged; only a zero entry can differ, in its sign, where
the BLAS update skips a zero multiplier on one side and not the other.

The routines come from the OpenBLAS that NumPy itself loaded: NumPy's
PyPI wheel bundles scipy-openblas64, which exports them with 64-bit
integers as scipy_dgbtrf_64_ and so on. They are found through NumPy's
core extension module, because the dynamic loader searches the libraries
it links, and are called through ctypes, so no SciPy module is imported.
Where a symbol is missing the import fails with an ImportError that
names it.
"""

from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass

import numpy as np
from numpy._core import _multiarray_umath

__all__ = [
    "SingularSystemError",
    "BandedMatrix",
    "BandedLU",
    "BandedCholesky",
]


_INT, _PTR = ctypes.POINTER(ctypes.c_int64), ctypes.c_void_p
_CHAR, _LEN = ctypes.c_char_p, ctypes.c_size_t


def _bind(name: str, argtypes: list):
    """LAPACK routine `name` (as "dgbtrf") from NumPy's OpenBLAS."""
    symbol = f"scipy_{name}_64_"
    try:
        routine = getattr(ctypes.CDLL(_multiarray_umath.__file__), symbol)
    except AttributeError:
        raise ImportError(
            f"LAPACK symbol {symbol} not found in NumPy's libraries: beclab needs "
            "a NumPy build that bundles scipy-openblas64"
        ) from None
    routine.argtypes, routine.restype = argtypes, None
    return routine


# Fortran arguments go by reference, INFO last, then the hidden length of
# each character argument.
# M N KL KU AB LDAB IPIV INFO
_GBTRF = _bind("dgbtrf", [_INT, _INT, _INT, _INT, _PTR, _INT, _PTR, _INT])
# TRANS N KL KU NRHS AB LDAB IPIV B LDB INFO
_GBTRS = _bind("dgbtrs", [_CHAR, _INT, _INT, _INT, _INT, _PTR, _INT, _PTR, _PTR, _INT, _INT, _LEN])
# UPLO N KD AB LDAB INFO
_PBTRF = _bind("dpbtrf", [_CHAR, _INT, _INT, _PTR, _INT, _INT, _LEN])
# UPLO N KD NRHS AB LDAB B LDB INFO
_PBTRS = _bind("dpbtrs", [_CHAR, _INT, _INT, _INT, _PTR, _INT, _PTR, _INT, _INT, _LEN])


def _pointer(a: np.ndarray) -> ctypes.c_void_p:
    """The data pointer of a float64 or int64 Fortran-contiguous array, for
    LAPACK to read and overwrite; the caller keeps `a` alive."""
    if a.dtype not in (np.float64, np.int64) or not a.flags.f_contiguous:
        raise TypeError("LAPACK needs a Fortran-contiguous float64 or int64 array")
    return ctypes.c_void_p(a.ctypes.data)


def _call(label: str, routine, *args) -> int:
    """Call a LAPACK routine with INFO appended and return INFO. An int
    goes as a 64-bit integer, an array by _pointer, a one-character bytes
    as itself and its hidden length, and a _pointer as it is. An illegal
    argument k (INFO = -k) raises ValueError."""
    refs = [
        ctypes.c_int64(a) if isinstance(a, (int, np.integer))
        else _pointer(a) if isinstance(a, np.ndarray)
        else a
        for a in args
    ]
    info = ctypes.c_int64()
    routine(*refs, info, *[len(a) for a in args if isinstance(a, bytes)])
    if info.value < 0:
        raise ValueError(f"{label}: illegal argument {-info.value}")
    return info.value


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

    def column(self, j: int) -> np.ndarray:
        """Column j of the matrix as a dense vector."""
        bw, dim = self.bandwidth, self.dim
        out = np.zeros(dim)
        lo, hi = max(0, j - bw), min(dim, j + bw + 1)
        out[lo:hi] = self.data[bw + lo - j : bw + hi - j, j]
        return out

    def matvec(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        y = np.zeros_like(x)
        for _, rows, cols, band in self.diagonals():
            y[rows] += band * x[cols]
        return y


class BandedLU:
    """LU factorisation of a BandedMatrix, reusable for repeated solves.

    Rows are equilibrated (scaled to unit max) before factorisation, since
    pivot-size diagnostics are meaningless without a common row scale:
    flux-form stencil rows scale like 1/h_local, which spreads over the
    cells of a graded mesh, and the core collocation adds O(1) Dirichlet
    rows.
    A row that is zero or holds a non-finite entry, and a zero,
    machine-scale or non-finite pivot, raise SingularSystemError with its
    index.
    """

    def __init__(self, matrix: BandedMatrix):
        bw, dim = matrix.bandwidth, matrix.dim
        row_max = np.zeros(dim)
        for _, rows, _, band in matrix.diagonals():
            np.maximum(row_max[rows], np.abs(band), out=row_max[rows])
        if not np.all(np.isfinite(row_max)):
            index = int(np.argmin(np.isfinite(row_max)))
            raise SingularSystemError(index, f"non-finite entry in row {index}")
        if float(np.min(row_max)) == 0.0:
            raise SingularSystemError(int(np.argmin(row_max)), "zero row")
        row_scale = 1.0 / row_max
        # gbtrf wants kl extra rows on top for fill-in: ab[kl+ku+i-j, j]
        ab = np.zeros((3 * bw + 1, dim), order="F")
        for offset, rows, cols, band in matrix.diagonals():
            np.multiply(band, row_scale[rows], out=ab[2 * bw - offset, cols])
        piv = np.empty(dim, dtype=np.int64)
        info = _call("LU factorisation", _GBTRF, dim, dim, bw, bw, ab, 3 * bw + 1, piv)
        if info > 0:
            raise SingularSystemError(info - 1)
        udiag = np.abs(ab[2 * bw])
        if not np.all(np.isfinite(udiag)):
            index = int(np.argmin(np.isfinite(udiag)))
            raise SingularSystemError(index, f"non-finite pivot at index {index}")
        threshold = dim * np.finfo(float).eps  # rows have unit max after scaling
        if float(np.min(udiag)) <= threshold:
            raise SingularSystemError(
                int(np.argmin(udiag)),
                f"near-singular pivot at index {int(np.argmin(udiag))}",
            )
        # gbtrs' arguments up to the right-hand side, converted once; self
        # holds ab and piv, so their pointers stay valid
        self._lu, self._piv, self._row_scale = ab, piv, row_scale
        self._solve_args = (b"N", dim, bw, bw, 1, _pointer(ab), 3 * bw + 1, _pointer(piv))

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        rhs = np.asarray(rhs, dtype=float)
        if rhs.shape != self._row_scale.shape:
            raise ValueError(f"rhs shape {rhs.shape} is not ({self._row_scale.shape[0]},)")
        x = rhs * self._row_scale  # a new array, which gbtrs overwrites
        _call("LU solve", _GBTRS, *self._solve_args, x, x.shape[0])
        return x


class BandedCholesky:
    """Cholesky factorisation of A - shift*I for a symmetric BandedMatrix
    A, read from its upper band alone, reusable for repeated solves. It
    exists exactly when A - shift*I is positive definite, so one that
    succeeds proves that A has no eigenvalue at or below shift; a pivot
    that is not positive raises SingularSystemError with its index. A
    non-finite shift, or a non-finite entry of the upper band, for which
    LAPACK's pivot test proves nothing, raises ValueError naming the row.
    """

    def __init__(self, matrix: BandedMatrix, shift: float):
        if not math.isfinite(shift):
            raise ValueError(f"shift {shift!r} is not finite")
        bw, dim, data = matrix.bandwidth, matrix.dim, matrix.data
        # low[d, j] = A[j + d, j] = data[bw - d, j + d]: LAPACK's lower band
        low = np.zeros((bw + 1, dim), order="F")
        for d in range(bw + 1):
            low[d, : dim - d] = data[bw - d, d:]
        low[0] -= shift
        if not np.isfinite(low).all():
            # an entry A[j + d, j] of the lower band is A[j, j + d], in row j
            row = int(np.argmin(np.isfinite(low).all(axis=0)))
            raise ValueError(f"non-finite entry in row {row} of A - {shift!r} I")
        info = _call("pbtrf", _PBTRF, b"L", dim, bw, low, bw + 1)
        if info > 0:
            raise SingularSystemError(info - 1, f"A - {shift!r} I is not positive definite")
        # U = L^T in the upper band, for pbtrs; data's unused corner is kept
        ab = data[: bw + 1].copy(order="F")
        for d in range(bw + 1):
            ab[bw - d, d:] = low[d, : dim - d]
        # pbtrs' arguments up to the right-hand side, converted once; self
        # holds ab, so its pointer stays valid
        self._factor = ab
        self._solve_args = (b"U", dim, bw, 1, _pointer(ab), bw + 1)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        dim = self._factor.shape[1]
        if np.shape(rhs) != (dim,):
            raise ValueError(f"rhs shape {np.shape(rhs)} is not ({dim},)")
        x = np.array(rhs, dtype=float)  # a copy, which pbtrs overwrites
        _call("pbtrs", _PBTRS, *self._solve_args, x, dim)
        return x
