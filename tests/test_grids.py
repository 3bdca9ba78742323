from __future__ import annotations

import math

import numpy as np
import pytest

from beclab import BandedMatrix, Graded, Uniform, differentiate, make_grid
from beclab.grids import (
    RATIO_CAP,
    beta_for_center_spacing,
    beta_for_half_window,
    flux_stencil,
    ratio_from_beta,
)


def test_uniform_nodes_closed_form():
    grid = make_grid(0.0, 1.0, 17)
    assert np.allclose(grid.nodes, np.arange(17) / 16.0, rtol=0.0, atol=1e-15)
    assert grid.nodes[0] == 0.0 and grid.nodes[-1] == 1.0
    assert grid.n == 17 and grid.a == 0.0 and grid.b == 1.0


def test_graded_min_spacing_at_center():
    grid = make_grid(-30.0, 30.0, 2049, Graded(center=0.0, ratio=1.02))
    h = grid.spacing()
    mid = int(np.argmin(h))
    assert abs(mid - (2049 - 1) // 2) <= 1
    quotient = np.maximum(h[1:] / h[:-1], h[:-1] / h[1:])
    assert float(np.max(quotient)) <= 1.02 + 1e-12
    # symmetric grading about 0
    assert np.allclose(grid.nodes, -grid.nodes[::-1], atol=1e-12)


def test_graded_ratio_cap_small_grid():
    grid = make_grid(0.0, 1.0, 33, Graded(center=0.5, ratio=1.2))
    h = grid.spacing()
    quotient = np.maximum(h[1:] / h[:-1], h[:-1] / h[1:])
    assert float(np.max(quotient)) <= 1.2 + 1e-12
    assert int(np.argmin(h)) in (15, 16)


def test_graded_off_center():
    grid = make_grid(0.0, 1.0, 65, Graded(center=0.25, ratio=1.1))
    h = grid.spacing()
    mid = int(np.argmin(h))
    cell_center = 0.5 * (grid.nodes[mid] + grid.nodes[mid + 1])
    assert abs(cell_center - 0.25) < 0.05
    quotient = np.maximum(h[1:] / h[:-1], h[:-1] / h[1:])
    assert float(np.max(quotient)) <= 1.1 + 1e-12


def test_make_grid_validation():
    with pytest.raises(ValueError):
        make_grid(1.0, 0.0, 17)
    with pytest.raises(ValueError):
        make_grid(0.0, 1.0, 15)
    with pytest.raises(ValueError):
        make_grid(0.0, 1.0, 17, Graded(center=2.0, ratio=1.1))
    with pytest.raises(ValueError):
        make_grid(0.0, 1.0, 17, Graded(center=0.5, ratio=1.0))
    with pytest.raises(ValueError):
        make_grid(0.0, 1.0, 17, Graded(center=0.5, ratio=1.5))
    with pytest.raises(ValueError):
        # per-cell ratio at large n would degenerate the sinh map
        make_grid(-30.0, 30.0, 2049, Graded(center=0.0, ratio=1.2))


def test_beta_for_half_window():
    # window already covering half the domain needs no grading
    assert beta_for_half_window(30.0, 15.0) == 0.0
    beta = beta_for_half_window(30.0, 3.0)
    assert beta == pytest.approx(4.0 * math.acosh(5.0), rel=1e-12)
    with pytest.raises(ValueError):
        beta_for_half_window(30.0, 0.0)


def test_beta_for_center_spacing_solves_defining_equation():
    length, n, h_center = 30.0, 2049, 5e-3
    beta = beta_for_center_spacing(length, n, h_center)
    achieved = length * beta / (math.sinh(0.5 * beta) * (n - 1))
    assert achieved == pytest.approx(h_center, rel=1e-6)
    # already-fine uniform spacing maps to zero strength
    assert beta_for_center_spacing(1.0, 2049, 1.0) == 0.0
    with pytest.raises(ValueError):
        beta_for_center_spacing(30.0, 2049, 0.0)


def test_ratio_from_beta_cap():
    assert ratio_from_beta(0.0, 17) == 1.0
    assert ratio_from_beta(1e3, 17) == RATIO_CAP
    assert ratio_from_beta(16.0, 17) == pytest.approx(min(math.e, RATIO_CAP))


def test_differentiate_exact_on_quadratics():
    # 3-point Lagrange differentiation reproduces polynomials of degree 2
    grid = make_grid(-2.0, 3.0, 41, Graded(center=0.5, ratio=1.1))
    x = grid.nodes
    d = differentiate(x**2 - 3.0 * x + 1.0, grid)
    assert np.allclose(d, 2.0 * x - 3.0, atol=1e-11)


def test_differentiate_second_order():
    def sup_error(n: int) -> float:
        grid = make_grid(0.0, math.pi, n)
        d = differentiate(np.sin(grid.nodes), grid)
        return float(np.max(np.abs(d - np.cos(grid.nodes))))

    e1, e2 = sup_error(101), sup_error(201)
    assert 3.4 <= e1 / e2 <= 4.6


def test_flux_stencil_exact_on_quadratics():
    # the flux difference of x^2 is hp + hm = 2w, i.e. w times (x^2)''
    grid = make_grid(-2.0, 3.0, 41, Graded(center=0.5, ratio=1.1))
    st = flux_stencil(grid)
    x = grid.nodes
    assert np.allclose(st.apply(x**2 - 3.0 * x + 1.0), 2.0 * st.w, rtol=1e-12)
    assert np.allclose(st.apply(x), 0.0, atol=1e-12)
    assert np.allclose(st.lo + st.mid + st.hi, 0.0, atol=1e-9)


def test_pair_rows_apply_the_stencil():
    rng = np.random.default_rng(5)
    grid = make_grid(-1.0, 2.0, 21, Graded(center=0.3, ratio=1.1))
    st = flux_stencil(grid)
    n, m = grid.n, grid.n - 2
    v1, v2 = rng.uniform(-1.0, 1.0, n), rng.uniform(-1.0, 1.0, n)
    d1, d2, cross = (rng.uniform(-1.0, 1.0, m) for _ in range(3))
    expect1 = st.apply(v1) + (d1 - st.mid) * v1[1:-1] + cross * v2[1:-1]
    expect2 = st.apply(v2) + (d2 - st.mid) * v2[1:-1] + cross * v1[1:-1]

    def interleave(a, b):
        u = np.empty(2 * a.shape[0])
        u[0::2], u[1::2] = a, b
        return u

    # boundary nodes are unknowns: interior rows start at row 2
    full = BandedMatrix.zeros(2 * n, 2)
    st.fill_pair_rows(full, 2, d1, d2, cross)
    r = full.matvec(interleave(v1, v2))
    assert np.allclose(r[2:-2:2], expect1, atol=1e-12)
    assert np.allclose(r[3:-2:2], expect2, atol=1e-12)
    assert np.all(full.to_dense()[[0, 1, -2, -1]] == 0.0)  # boundary rows untouched

    # boundary values eliminated: they enter as data, not as columns
    inner = BandedMatrix.zeros(2 * m, 2)
    st.fill_pair_rows(inner, 0, d1, d2, cross)
    r = inner.matvec(interleave(v1[1:-1], v2[1:-1]))
    r[:2] += st.lo[0] * np.array([v1[0], v2[0]])
    r[-2:] += st.hi[-1] * np.array([v1[-1], v2[-1]])
    assert np.allclose(r[0::2], expect1, atol=1e-12)
    assert np.allclose(r[1::2], expect2, atol=1e-12)
