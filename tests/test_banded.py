from __future__ import annotations

import numpy as np
import pytest

from beclab import BandedLU, BandedMatrix, SingularSystemError


def dirichlet_laplacian(m: int, h: float) -> BandedMatrix:
    a = BandedMatrix.zeros(m, 1)
    a.add_diagonal(0, np.full(m, 2.0 / h**2))
    a.add_diagonal(1, np.full(m - 1, -1.0 / h**2))
    a.add_diagonal(-1, np.full(m - 1, -1.0 / h**2))
    return a


def test_identity_solve():
    a = BandedMatrix.zeros(8, 1)
    a.add_diagonal(0, np.ones(8))
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
    a = BandedMatrix.zeros(2, 1)
    a.add_diagonal(0, np.ones(2))
    a.add_diagonal(1, np.ones(1))
    a.add_diagonal(-1, np.ones(1))
    with pytest.raises(SingularSystemError):
        BandedLU(a).solve(np.ones(2))


def test_dense_reference_agreement():
    rng = np.random.Generator(np.random.PCG64(7))
    dim, bw = 200, 3
    a = BandedMatrix.zeros(dim, bw)
    for offset in range(-bw, bw + 1):
        values = rng.uniform(-1.0, 1.0, dim - abs(offset))
        if offset == 0:
            values += 10.0  # diagonal dominance keeps the test well-posed
        a.add_diagonal(offset, values)
    rhs = rng.uniform(-1.0, 1.0, dim)
    x = BandedLU(a).solve(rhs)
    x_ref = np.linalg.solve(a.to_dense(), rhs)
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
    assert a.get_entry(2, 3) == 5.0
    assert a.get_entry(0, 5) == 0.0
    with pytest.raises(ValueError):
        a.set_entry(0, 5, 1.0)
    with pytest.raises(ValueError):
        a.add_diagonal(2, np.ones(4))
    with pytest.raises(ValueError):
        a.add_diagonal(0, np.ones(5))


def test_matvec_matches_dense():
    rng = np.random.Generator(np.random.PCG64(11))
    a = BandedMatrix.zeros(25, 2)
    for offset in range(-2, 3):
        a.add_diagonal(offset, rng.uniform(-1.0, 1.0, 25 - abs(offset)))
    x = rng.uniform(-1.0, 1.0, 25)
    assert np.allclose(a.matvec(x), a.to_dense() @ x, atol=1e-13)


def test_symmetry_defect():
    a = dirichlet_laplacian(10, 0.1)
    assert a.symmetry_defect() == 0.0
    a.set_entry(1, 2, -99.0)
    assert a.symmetry_defect() == pytest.approx(1.0, abs=1e-12)


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
