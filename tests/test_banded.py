from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import get_lapack_funcs

from banded_helpers import add_diagonal, get_entry, symmetry_defect, to_dense
from beclab import (
    BandedLU,
    BandedMatrix,
    SingularSystemError,
    banded,
    newton,
    profiles,
    solve_blowup,
    solve_heteroclinic,
    spectrum,
)
from beclab.banded import BandedCholesky, FilledBand
from beclab.grids import make_grid


def dirichlet_laplacian(m: int, h: float) -> BandedMatrix:
    a = BandedMatrix.zeros(m, 1)
    add_diagonal(a, 0, np.full(m, 2.0 / h**2))
    add_diagonal(a, 1, np.full(m - 1, -1.0 / h**2))
    add_diagonal(a, -1, np.full(m - 1, -1.0 / h**2))
    return a


def test_identity_solve():
    a = BandedMatrix.zeros(8, 1)
    add_diagonal(a, 0, np.ones(8))
    rhs = np.arange(8.0)
    x = BandedLU(a).solve(rhs)
    assert np.allclose(x, rhs, atol=1e-15)


def test_poisson_closed_form():
    # -u'' = 1 on (0,1), u(0)=u(1)=0: the second difference is exact on
    # the quadratic solution x(1-x)/2, so the discrete answer is nodal-exact.
    m = 199
    h = 1.0 / (m + 1)
    x = BandedLU(dirichlet_laplacian(m, h)).solve(np.ones(m))
    nodes = h * np.arange(1, m + 1)
    assert np.allclose(x, nodes * (1.0 - nodes) / 2.0, atol=1e-12)


def test_zero_row_reports_index():
    a = dirichlet_laplacian(10, 0.1)
    a.data[:, 3] = 0.0
    a.data[a.bandwidth + 1, 2] = 0.0
    a.data[a.bandwidth - 1, 4] = 0.0  # row 3 now identically zero
    with pytest.raises(SingularSystemError) as exc:
        BandedLU(a).solve(np.ones(10))
    assert exc.value.index == 3


def test_dependent_rows_singular():
    # rows 0 and 1 are equal, so elimination meets an exactly zero pivot
    # at index 1: gbtrf reports it itself, before the near-singular pivot
    # check could
    for dim in (2, 3):
        a = BandedMatrix.zeros(dim, 1)
        add_diagonal(a, 0, np.ones(dim))
        add_diagonal(a, 1, np.eye(1, dim - 1)[0])
        add_diagonal(a, -1, np.eye(1, dim - 1)[0])
        with pytest.raises(SingularSystemError, match="^singular pivot at index 1$") as exc:
            BandedLU(a)
        assert exc.value.index == 1


def test_near_singular_pivot_is_rejected():
    # rows equal up to one ulp: elimination leaves a pivot of about eps,
    # below the threshold dim * eps
    a = BandedMatrix.zeros(2, 1)
    for i, j, value in ((0, 0, 1.0), (0, 1, 1.0), (1, 0, 1.0), (1, 1, 1.0 + 2.0**-52)):
        a.set_entry(i, j, value)
    with pytest.raises(SingularSystemError, match="^near-singular pivot at index 1$") as exc:
        BandedLU(a)
    assert exc.value.index == 1


@pytest.mark.parametrize("bw", [1, 2])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_entry_is_rejected(bw, bad):
    # a NaN pivot fails every comparison, so a size check alone would let
    # it through and every solve would return NaN; the row is rejected
    # before scaling, where an inf row would scale to 0 * inf
    rng = np.random.Generator(np.random.PCG64(2))
    a = BandedMatrix.zeros(6, bw)
    for offset in range(-bw, bw + 1):
        add_diagonal(a, offset, rng.uniform(-1.0, 1.0, 6 - abs(offset)))
    add_diagonal(a, 0, np.full(6, 2.0 * bw + 2.0))
    a.set_entry(3, 3, bad)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SingularSystemError, match="^non-finite entry in row 3$") as exc:
            BandedLU(a)
    assert exc.value.index == 3


@pytest.mark.parametrize("shift", [np.nan, -np.inf])
def test_cholesky_rejects_a_non_finite_shift(shift):
    # pbtrf's pivot test "ajj <= 0" is false for NaN, so A - nan I would
    # "factor" and certify nothing
    with pytest.raises(ValueError, match="^shift .* is not finite$"):
        BandedCholesky(dirichlet_laplacian(10, 0.1), shift)


@pytest.mark.parametrize("bw", [1, 2])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_cholesky_rejects_a_non_finite_upper_band_entry(bw, bad):
    # entry (2, 2 + bw) of the upper band, read as (2 + bw, 2) of LAPACK's
    # lower one, is in row 2; the same entry below the diagonal, which
    # BandedCholesky does not read, changes nothing
    a = dirichlet_laplacian(10, 0.1) if bw == 1 else BandedMatrix.zeros(10, 2)
    add_diagonal(a, 0, np.full(10, 10.0))
    rhs = np.arange(10.0)
    x = BandedCholesky(a, 0.0).solve(rhs)
    upper = (0, 2 + bw)  # data[bw + i - j, j] at (i, j) = (2, 2 + bw)
    kept, a.data[upper] = a.data[upper], bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"^non-finite entry in row 2 of A - 0\.0 I$"):
            BandedCholesky(a, 0.0)
    a.data[upper] = kept
    a.data[2 * bw, 2] = bad  # (i, j) = (2 + bw, 2)
    assert np.array_equal(BandedCholesky(a, 0.0).solve(rhs), x)


def test_dense_reference_agreement():
    rng = np.random.Generator(np.random.PCG64(7))
    dim, bw = 200, 3
    a = BandedMatrix.zeros(dim, bw)
    for offset in range(-bw, bw + 1):
        values = rng.uniform(-1.0, 1.0, dim - abs(offset))
        if offset == 0:
            values += 10.0  # diagonal dominance keeps the test well-posed
        add_diagonal(a, offset, values)
    rhs = rng.uniform(-1.0, 1.0, dim)
    x = BandedLU(a).solve(rhs)
    x_ref = np.linalg.solve(to_dense(a), rhs)
    assert float(np.max(np.abs(x - x_ref))) <= 1e-10


def test_solution_residual_bound():
    a = dirichlet_laplacian(50, 1.0 / 51.0)
    rhs = np.sin(np.arange(50.0))
    x = BandedLU(a).solve(rhs)
    res = float(np.max(np.abs(a.matvec(x) - rhs)))
    assert res <= 1e-10 * (1.0 + float(np.max(np.abs(rhs))))


def test_entry_access_respects_bandwidth():
    a = BandedMatrix.zeros(6, 1)
    a.set_entry(2, 3, 5.0)
    assert get_entry(a, 2, 3) == 5.0
    assert get_entry(a, 0, 5) == 0.0
    with pytest.raises(ValueError):
        a.set_entry(0, 5, 1.0)
    with pytest.raises(ValueError):
        add_diagonal(a, 2, np.ones(4))
    with pytest.raises(ValueError):
        add_diagonal(a, 0, np.ones(5))


def test_matvec_matches_dense():
    rng = np.random.Generator(np.random.PCG64(11))
    a = BandedMatrix.zeros(25, 2)
    for offset in range(-2, 3):
        add_diagonal(a, offset, rng.uniform(-1.0, 1.0, 25 - abs(offset)))
    x = rng.uniform(-1.0, 1.0, 25)
    assert np.allclose(a.matvec(x), to_dense(a) @ x, atol=1e-13)


@pytest.mark.parametrize(("dim", "bw"), [(1, 0), (6, 2), (7, 6)])
def test_column_matches_dense(dim, bw):
    rng = np.random.Generator(np.random.PCG64(3))
    a = BandedMatrix.zeros(dim, bw)
    a.data[:] = rng.uniform(-1.0, 1.0, a.data.shape)
    dense = to_dense(a)
    for j in range(dim):
        assert np.array_equal(a.column(j), dense[:, j])


@pytest.mark.parametrize(("dim", "bw"), [(1, 0), (6, 2), (7, 6)])
def test_diagonals_walk_the_band(dim, bw):
    # each (offset, rows, cols, band) is diagonal j - i = offset of the
    # dense matrix, and writing through band writes into the matrix
    rng = np.random.Generator(np.random.PCG64(5))
    a = BandedMatrix.zeros(dim, bw)
    a.data[:] = rng.uniform(-1.0, 1.0, a.data.shape)
    dense = to_dense(a)
    offsets = []
    for offset, rows, cols, band in a.diagonals():
        offsets.append(offset)
        i, j = np.arange(dim)[rows], np.arange(dim)[cols]
        assert np.array_equal(j - i, np.full(dim - abs(offset), offset))
        assert np.array_equal(band, dense[i, j])
        band *= 2.0
    assert offsets == list(range(-bw, bw + 1))
    assert np.array_equal(to_dense(a), 2.0 * dense)


def test_symmetry_defect():
    a = dirichlet_laplacian(10, 0.1)
    assert symmetry_defect(a) == 0.0
    a.set_entry(1, 2, -99.0)
    assert symmetry_defect(a) == pytest.approx(1.0, abs=1e-12)


def test_rhs_length_mismatch():
    a = dirichlet_laplacian(10, 0.1)
    for factor in (BandedLU(a), BandedCholesky(a, 0.0)):
        for rhs in (np.ones(9), np.ones(11), np.ones((10, 1)), np.ones(20)[::3], 1.0):
            with pytest.raises(ValueError):
                factor.solve(rhs)


def test_lu_reusable_across_right_hand_sides():
    a = dirichlet_laplacian(30, 1.0 / 31.0)
    lu = BandedLU(a)
    for seed in (0, 1):
        rng = np.random.Generator(np.random.PCG64(seed))
        rhs = rng.uniform(-1.0, 1.0, 30)
        x = lu.solve(rhs)
        assert float(np.max(np.abs(a.matvec(x) - rhs))) <= 1e-10


def test_bandwidth_must_fit_the_dimension():
    # offsets beyond dim - 1 have no entries; band storage for them is rejected
    BandedMatrix.zeros(5, 4)
    for dim, bw in ((5, 5), (2, 3), (0, 0), (3, -1)):
        with pytest.raises(ValueError):
            BandedMatrix.zeros(dim, bw)


@st.composite
def dominant_banded(draw):
    """Random strictly row-diagonally-dominant matrix, bandwidth 0-4, dim <= 40."""
    bw = draw(st.integers(0, 4))
    dim = draw(st.integers(bw + 1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = BandedMatrix.zeros(dim, bw)
    for offset in range(-bw, bw + 1):
        add_diagonal(a, offset, rng.uniform(-1.0, 1.0, dim - abs(offset)))
    # off-diagonal row sums stay below 2*bw, so every row is dominant by a
    # margin above 1 and the inverse has sup-norm below 1
    sign = np.where(rng.uniform(size=dim) < 0.5, -1.0, 1.0)
    add_diagonal(a, 0, sign * (2.0 * bw + 2.0))
    return a, rng.uniform(-1.0, 1.0, dim)


@settings(max_examples=150, deadline=None)
@given(case=dominant_banded())
def test_lu_and_matvec_match_dense_oracle(case):
    a, rhs = case
    dense = to_dense(a)
    assert np.allclose(a.matvec(rhs), dense @ rhs, rtol=0.0, atol=1e-13)
    x = BandedLU(a).solve(rhs)
    assert np.allclose(x, np.linalg.solve(dense, rhs), rtol=0.0, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(
    dim=st.integers(3, 40),
    bw=st.integers(1, 2),
    seed=st.integers(0, 2**32 - 1),
    gap=st.sampled_from([1e-9, 1e-3, 1.0]),
)
def test_cholesky_factors_exactly_below_the_bottom(dim, bw, seed, gap):
    # Cholesky of A - shift I exists exactly when shift lies below the
    # bottom eigenvalue, and its solve inverts A - shift I
    rng = np.random.default_rng(seed)
    a = BandedMatrix.zeros(dim, bw)
    for offset in range(1, bw + 1):
        band = rng.uniform(-1.0, 1.0, dim - offset)
        add_diagonal(a, offset, band)
        add_diagonal(a, -offset, band)
    add_diagonal(a, 0, rng.uniform(-1.0, 1.0, dim))
    dense = to_dense(a)
    bottom = np.linalg.eigvalsh(dense)[0]
    with pytest.raises(SingularSystemError, match="not positive definite"):
        BandedCholesky(a, bottom + gap)
    shift = bottom - gap
    rhs = rng.standard_normal(dim)
    x = BandedCholesky(a, shift).solve(rhs)
    shifted = dense - shift * np.eye(dim)
    assert np.linalg.norm(shifted @ x - rhs) <= 1e-12 * np.linalg.norm(shifted, 2) * np.linalg.norm(x)
    # the lower band is not read
    a.data[bw + 1 :] = np.nan
    assert np.array_equal(BandedCholesky(a, shift).solve(rhs), x)


@st.composite
def symmetric_banded(draw):
    """Random symmetric band, bandwidth 1-4, dim <= 40, with a shift below
    its bottom eigenvalue, and a right-hand side."""
    bw = draw(st.integers(1, 4))
    dim = draw(st.integers(bw + 1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = BandedMatrix.zeros(dim, bw)
    for offset in range(1, bw + 1):
        band = rng.uniform(-1.0, 1.0, dim - offset)
        add_diagonal(a, offset, band)
        add_diagonal(a, -offset, band)
    add_diagonal(a, 0, rng.uniform(-1.0, 1.0, dim))
    shift = np.linalg.eigvalsh(to_dense(a))[0] - 0.5
    return a, shift, rng.uniform(-1.0, 1.0, dim)


def _bits(x) -> bytes:
    return np.asarray(x).tobytes()


@settings(max_examples=60, deadline=None)
@given(case=dominant_banded(), sym=symmetric_banded())
def test_factor_and_solve_leave_caller_arrays_unchanged(case, sym):
    # LAPACK overwrites its band and right-hand side in place, and ctypes
    # passes whatever pointer it is given: neither may be the caller's, in
    # C or in Fortran order
    a, rhs = case
    sym_a, shift, sym_rhs = sym
    for matrix, factor, b in (
        (a, BandedLU, rhs),
        (sym_a, lambda m: BandedCholesky(m, shift), sym_rhs),
    ):
        for m in (matrix, BandedMatrix(matrix.bandwidth, np.asfortranarray(matrix.data))):
            before = (_bits(m.data), _bits(b))
            factor(m).solve(b)
            assert (_bits(m.data), _bits(b)) == before


def recording_fill(matrix: BandedMatrix, seen: list) -> FilledBand:
    """matrix as a FilledBand whose fill also records the band it wrote
    into and a copy of what it wrote."""

    def fill(band):
        matrix.write_to(band)
        seen.append((band.data, band.data.copy()))

    return FilledBand(matrix.dim, matrix.bandwidth, fill)


@settings(max_examples=60, deadline=None)
@given(case=dominant_banded())
def test_a_filled_band_is_written_once_into_the_factor_storage(case):
    # fill writes straight into the rows of gbtrf's own array, once, and
    # factors and solves as the plain band does, bit for bit
    a, rhs = case
    seen = []
    lu, plain = BandedLU(recording_fill(a, seen)), BandedLU(a)
    ((written, copy),) = seen
    assert np.shares_memory(written, lu._lu)
    assert _bits(copy) == _bits(a.data)
    assert _bits(lu._lu) == _bits(plain._lu) and np.array_equal(lu._piv, plain._piv)
    assert _bits(lu.solve(rhs)) == _bits(plain.solve(rhs))


def test_the_core_jacobian_fills_the_factor_storage_as_a_plain_band():
    # the one fill of the core Jacobian writes the same bits into
    # BandedLU's storage as into the plain band the hygiene check reads
    grid = make_grid(-10.0, 10.0, 129, 1.03)
    _, jacobian = profiles._core_residual_jacobian(grid)
    u = np.empty(2 * grid.n)
    u[0::2] = np.maximum(0.7 * grid.nodes, 0.1)
    u[1::2] = np.maximum(-0.7 * grid.nodes, 0.1)
    jac = jacobian(u)
    assert isinstance(jac, FilledBand) and jac.bandwidth == 4
    seen = []
    lu = BandedLU(recording_fill(jac, seen))
    ((written, copy),) = seen
    assert np.shares_memory(written, lu._lu)
    assert _bits(copy) == _bits(jac.data)


@settings(max_examples=60, deadline=None)
@given(case=dominant_banded(), sym=symmetric_banded(), seed=st.integers(0, 2**32 - 1))
def test_int_strided_and_fortran_inputs_match_dense_solve(case, sym, seed):
    # an int rhs, a strided view and a Fortran-ordered band all reach LAPACK
    # as the contiguous doubles it reads
    rng = np.random.default_rng(seed)
    sym_a, shift, _ = sym
    for a, dense, factor in (
        (case[0], to_dense(case[0]), BandedLU),
        (sym_a, to_dense(sym_a) - shift * np.eye(sym_a.dim), lambda m: BandedCholesky(m, shift)),
    ):
        ints = rng.integers(-5, 6, a.dim)
        wide = rng.uniform(-1.0, 1.0, 2 * a.dim)
        fortran = BandedMatrix(a.bandwidth, np.asfortranarray(a.data))
        for x, rhs in (
            (factor(a).solve(ints), ints.astype(float)),
            (factor(a).solve(wide[::2]), wide[::2].copy()),
            (factor(fortran).solve(wide[1::2]), wide[1::2].copy()),
        ):
            ref = np.linalg.solve(dense, rhs)
            assert np.allclose(x, ref, rtol=0.0, atol=1e-10 * (1.0 + np.max(np.abs(ref))))


# Bitwise parity with SciPy's wrappers of the same four routines, used as
# an oracle: the factors, pivots and solutions beclab computes through
# NumPy's OpenBLAS are the ones scipy.linalg computes through its own.


def _equilibrated_gbtrf_band(a: BandedMatrix) -> tuple[np.ndarray, np.ndarray]:
    """The row scale and gbtrf's input band (kl extra rows on top), built
    from the dense matrix rather than from BandedLU's own loop."""
    bw, dense = a.bandwidth, to_dense(a)
    scale = 1.0 / np.max(np.abs(dense), axis=1)
    ab = np.zeros((3 * bw + 1, a.dim))
    for i in range(a.dim):
        for j in range(max(0, i - bw), min(a.dim, i + bw + 1)):
            ab[2 * bw + i - j, j] = dense[i, j] * scale[i]
    return scale, ab


def assert_lu_matches_scipy(a: BandedMatrix, rhs: np.ndarray) -> None:
    bw = a.bandwidth
    scale, ab = _equilibrated_gbtrf_band(a)
    gbtrf, gbtrs = get_lapack_funcs(("gbtrf", "gbtrs"), (ab,))
    lu_ref, piv_ref, info = gbtrf(ab, bw, bw)
    assert info == 0
    x_ref, info = gbtrs(lu_ref, bw, bw, rhs * scale, piv_ref)
    assert info == 0
    lu = BandedLU(a)
    assert _bits(lu._lu) == _bits(lu_ref)
    assert np.array_equal(lu._piv - 1, piv_ref)  # LAPACK's pivots are 1-based, SciPy's 0-based
    assert _bits(lu.solve(rhs)) == _bits(x_ref)


def assert_cholesky_matches_scipy(a: BandedMatrix, shift: float, rhs: np.ndarray) -> None:
    ab = a.data[: a.bandwidth + 1].copy()
    ab[a.bandwidth] -= shift
    pbtrf, pbtrs = get_lapack_funcs(("pbtrf", "pbtrs"), (ab,))
    factor_ref, info = pbtrf(ab)
    assert info == 0
    x_ref, info = pbtrs(factor_ref, rhs)
    assert info == 0
    chol = BandedCholesky(a, shift)
    assert _bits(chol._factor) == _bits(factor_ref)
    assert _bits(chol.solve(rhs)) == _bits(x_ref)


@settings(max_examples=80, deadline=None)
@given(
    bw=st.sampled_from([1, 2, 4]),
    dim=st.integers(5, 300),
    seed=st.integers(0, 2**32 - 1),
)
def test_lu_matches_scipy_bitwise(bw, dim, seed):
    # no diagonal dominance, so gbtrf pivots
    rng = np.random.default_rng(seed)
    a = BandedMatrix.zeros(dim, bw)
    for offset in range(-bw, bw + 1):
        add_diagonal(a, offset, rng.uniform(-1.0, 1.0, dim - abs(offset)))
    assert_lu_matches_scipy(a, rng.uniform(-1.0, 1.0, dim))


@settings(max_examples=40, deadline=None)
@given(sym=symmetric_banded())
def test_cholesky_matches_scipy_bitwise(sym):
    assert_cholesky_matches_scipy(*sym)


def test_laplacian_matches_scipy_bitwise():
    a = dirichlet_laplacian(199, 1.0 / 200.0)
    rhs = np.sin(np.arange(199.0))
    assert_lu_matches_scipy(a, rhs)
    assert_cholesky_matches_scipy(a, 0.0, rhs)


def test_assembled_systems_match_scipy_bitwise(monkeypatch):
    # every band beclab factors: heteroclinic Jacobians (bandwidth 2), core
    # profile Jacobians (bandwidth 4) and the spectrum's sector blocks
    # (bandwidth 2) at each shift it tries
    jacobians, blocks = [], []

    class RecordingLU(BandedLU):
        def __init__(self, matrix):
            jacobians.append(BandedMatrix(matrix.bandwidth, matrix.data.copy()))
            super().__init__(matrix)

    class RecordingCholesky(BandedCholesky):
        def __init__(self, matrix, shift):
            blocks.append((BandedMatrix(matrix.bandwidth, matrix.data.copy()), shift))
            super().__init__(matrix, shift)

    monkeypatch.setattr(newton, "BandedLU", RecordingLU)
    monkeypatch.setattr(spectrum, "BandedCholesky", RecordingCholesky)
    sol = solve_heteroclinic(10.0, n=513)
    solve_blowup(X=10.0, n=2049)
    spectrum.nondegeneracy_report(sol)
    assert {m.bandwidth for m in jacobians} == {2, 4}
    assert blocks
    rng = np.random.default_rng(3)
    for a in jacobians:
        assert_lu_matches_scipy(a, rng.uniform(-1.0, 1.0, a.dim))
    factored = 0
    for a, shift in blocks:
        try:
            BandedCholesky(a, shift)
        except SingularSystemError as exc:
            # a shift the spectrum tried above the bottom: SciPy fails there too
            assert_not_positive_definite_like_scipy(a, shift, exc.index)
        else:
            assert_cholesky_matches_scipy(a, shift, rng.uniform(-1.0, 1.0, a.dim))
            factored += 1
    assert factored


def assert_not_positive_definite_like_scipy(a: BandedMatrix, shift: float, index: int) -> None:
    ab = a.data[: a.bandwidth + 1].copy()
    ab[a.bandwidth] -= shift
    (pbtrf,) = get_lapack_funcs(("pbtrf",), (ab,))
    _, info = pbtrf(ab)
    assert info == index + 1


@settings(max_examples=40, deadline=None)
@given(sym=symmetric_banded(), above=st.floats(0.6, 3.0))
def test_not_positive_definite_fails_at_scipys_pivot(sym, above):
    a, shift, _ = sym
    with pytest.raises(SingularSystemError, match="not positive definite") as exc:
        BandedCholesky(a, shift + above)
    assert_not_positive_definite_like_scipy(a, shift + above, exc.value.index)


def test_illegal_argument_raises_through_the_binder():
    # INFO = -k names argument k: here N = -1 (pbtrf's 2nd, gbtrf's 2nd)
    # and KL = -1 (gbtrf's 3rd)
    ab = np.zeros((3, 4), order="F")
    piv = np.zeros(4, dtype=np.int64)
    with pytest.raises(ValueError, match="^pbtrf: illegal argument 2$"):
        banded._call("pbtrf", banded._PBTRF, b"U", -1, 1, ab, 3)
    with pytest.raises(ValueError, match="^LU factorisation: illegal argument 2$"):
        banded._call("LU factorisation", banded._GBTRF, 4, -1, 0, 0, ab, 3, piv)
    with pytest.raises(ValueError, match="^LU factorisation: illegal argument 3$"):
        banded._call("LU factorisation", banded._GBTRF, 4, 4, -1, 0, ab, 3, piv)


def test_binder_rejects_arrays_lapack_cannot_read():
    for bad in (
        np.zeros((3, 4), dtype=np.float32, order="F"),
        np.zeros((3, 4)),  # C order
        np.zeros((3, 8), order="F")[:, ::2],
    ):
        with pytest.raises(TypeError, match="Fortran-contiguous float64 or int64"):
            banded._call("pbtrf", banded._PBTRF, b"U", 4, 1, bad, 3)


def test_missing_symbol_names_it():
    with pytest.raises(ImportError, match="scipy_dnosuch_64_.*scipy-openblas64"):
        banded._bind("dnosuch", [])
