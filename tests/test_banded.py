from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from banded_helpers import add_diagonal, get_entry, symmetry_defect, to_dense
from beclab import BandedLU, BandedMatrix, SingularSystemError
from beclab.banded import BandedCholesky


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
    # at index 1: LAPACK reports it itself (gbtrf at dim 2, gttrf at dim 3),
    # before the near-singular pivot check could
    for dim in (2, 3):
        a = BandedMatrix.zeros(dim, 1)
        add_diagonal(a, 0, np.ones(dim))
        add_diagonal(a, 1, np.eye(1, dim - 1)[0])
        add_diagonal(a, -1, np.eye(1, dim - 1)[0])
        with pytest.raises(SingularSystemError, match="^singular pivot at index 1$") as exc:
            BandedLU(a)
        assert exc.value.index == 1


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
    lu = BandedLU(dirichlet_laplacian(10, 0.1))
    for rhs in (np.ones(9), np.ones(11), np.ones((10, 1)), 1.0):
        with pytest.raises(ValueError):
            lu.solve(rhs)


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
