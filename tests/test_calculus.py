from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import CubicSpline

from beclab import (
    fit_loglog,
    golden_minimize,
    make_grid,
    quadrature,
    resample,
)


def test_quadrature_constant_exact():
    grid = make_grid(0.0, 1.0, 17)
    assert quadrature(np.ones(17), grid) == 1.0


def test_quadrature_sine():
    grid = make_grid(0.0, math.pi, 2049)
    assert abs(quadrature(np.sin(grid.nodes), grid) - 2.0) <= 1e-6


def test_quadrature_front_energy_density():
    # integrand sech^4(z/sqrt(2))/2 decays exponentially: trapezoid error
    # drops to the Euler-Maclaurin floor and the half-line integral is
    # sqrt(2)/3 in closed form.
    grid = make_grid(0.0, 40.0, 4097)
    f = 0.5 / np.cosh(grid.nodes / math.sqrt(2.0)) ** 4
    assert abs(quadrature(f, grid) - math.sqrt(2.0) / 3.0) <= 1e-8


def test_quadrature_second_order_on_graded_grid():
    # fixed map strength: keep the grid shape n-independent so refinement
    # halves every spacing
    def err(n: int) -> float:
        ratio = math.exp(6.0 / (n - 1))
        grid = make_grid(0.0, 1.0, n, ratio)
        return abs(quadrature(grid.nodes**3, grid) - 0.25)

    assert 3.4 <= err(129) / err(257) <= 4.6


def test_quadrature_length_mismatch():
    grid = make_grid(0.0, 1.0, 17)
    with pytest.raises(ValueError):
        quadrature(np.ones(16), grid)


def test_fit_loglog_exact_square_law():
    slope = fit_loglog([(x, x**2) for x in (1.0, 2.0, 4.0, 8.0)])
    assert slope == pytest.approx(2.0, abs=1e-14)


def test_fit_loglog_negative_power():
    slope = fit_loglog([(x, 5.0 * x**-0.75) for x in (1e2, 1e3, 1e4, 1e5)])
    assert abs(slope - (-0.75)) <= 1e-12


def test_fit_loglog_constant_series():
    slope = fit_loglog([(x, 3.0) for x in (1.0, 2.0, 4.0)])
    assert slope == pytest.approx(0.0, abs=1e-14)


def test_fit_loglog_validation():
    with pytest.raises(ValueError):
        fit_loglog([(1.0, 1.0), (2.0, 4.0)])
    with pytest.raises(ValueError):
        fit_loglog([(1.0, 1.0), (2.0, -4.0), (3.0, 9.0)])
    with pytest.raises(ValueError):
        fit_loglog([(1.0, 1.0), (1.0, 2.0), (1.0, 3.0)])


def test_fit_loglog_logarithmic_tilt():
    # A pure power with a log factor is not a power law: over the decades
    # 1e2..1e6 the least-squares slope of (ln x) x^{-3/4} sits near -0.632,
    # tilted by +0.118 from -3/4. Order tests elsewhere budget for this.
    xs = (1e2, 1e3, 1e4, 1e5, 1e6)
    slope = fit_loglog([(x, math.log(x) * x**-0.75) for x in xs])
    assert slope == pytest.approx(-0.6324, abs=2e-3)


def test_resample_reproduces_cubics():
    nodes = np.linspace(-1.0, 2.0, 31)
    values = nodes**3 - 2.0 * nodes
    at = np.linspace(-1.0, 2.0, 101)
    out = resample(nodes, values, at)
    assert np.allclose(out, at**3 - 2.0 * at, atol=1e-12)


def test_resample_scalar_and_range_guard():
    nodes = np.linspace(0.0, 1.0, 21)
    values = np.sin(nodes)
    out = resample(nodes, values, np.array([0.5]))
    assert out.shape == (1,) and out[0] == pytest.approx(math.sin(0.5), abs=1e-6)
    with pytest.raises(ValueError, match="outside the data range"):
        resample(nodes, values, np.array([1.5]))


def test_resample_validation():
    nodes = np.linspace(0.0, 1.0, 21)
    values = np.sin(nodes)
    at = np.array([0.5])
    repeated = nodes.copy()
    repeated[7] = repeated[6]
    with pytest.raises(ValueError, match="strictly increasing"):
        resample(repeated, values, at)
    with pytest.raises(ValueError, match="strictly increasing"):
        resample(nodes[::-1], values, at)
    with pytest.raises(ValueError, match="at least 4 nodes"):
        resample(nodes[:3], values[:3], at)
    with pytest.raises(ValueError, match="values on nodes"):
        resample(nodes, values[:-1], at)
    with pytest.raises(ValueError, match="values on nodes"):
        resample(nodes, np.stack((values, values)), at)


def test_resample_writes_nothing_into_its_inputs():
    nodes = np.linspace(-1.0, 2.0, 31)
    values = np.exp(nodes)
    at = np.linspace(-1.0, 2.0, 101)
    copies = [a.copy() for a in (nodes, values, at)]
    for a in (nodes, values, at):
        a.flags.writeable = False
    resample(nodes, values, at)
    for a, copy in zip((nodes, values, at), copies):
        assert np.array_equal(a, copy)


def _assert_matches_scipy_spline(nodes, values):
    # at the nodes, the cell midpoints and the two ends: agreement to
    # rounding (the two solve the same slope system by different LU
    # routines and evaluate the cubic in different forms)
    at = np.concatenate((nodes, 0.5 * (nodes[:-1] + nodes[1:])))
    ours = resample(nodes, values, at)
    theirs = CubicSpline(nodes, values)(at)
    bound = 8.0 * np.finfo(float).eps * np.max(np.abs(values))
    assert np.max(np.abs(ours - theirs)) <= bound


@settings(max_examples=100, deadline=None)
@given(
    gaps=st.lists(st.floats(1.0, 2.0), min_size=3, max_size=299),
    width=st.floats(0.1, 100.0),
    start=st.floats(-50.0, 50.0),
    freq=st.floats(0.1, 3.0),
    phase=st.floats(0.0, 2.0 * math.pi),
    scale=st.floats(1e-3, 1e3),
)
def test_resample_matches_scipy_cubic_spline(gaps, width, start, freq, phase, scale):
    # smooth data on 4..300 strictly increasing nodes whose gaps differ
    # by at most a factor 2
    offsets = np.concatenate(([0.0], np.cumsum(gaps)))
    nodes = start + width * (offsets / offsets[-1])
    values = scale * np.sin(freq * (nodes - start) / width + phase)
    _assert_matches_scipy_spline(nodes, values)


def test_resample_matches_scipy_on_the_solution_meshes(blowup_wide, sol3):
    # the core mesh (X = 15, n = 4097) and the interface mesh (n = 8193)
    for field in (blowup_wide.V1, blowup_wide.V2):
        _assert_matches_scipy_spline(blowup_wide.grid.nodes, field)
    _assert_matches_scipy_spline(sol3.grid.nodes, sol3.v1)


def test_golden_minimize_parabola():
    # argmin resolution is flatness-limited near the minimum (~sqrt(eps))
    xm, fm = golden_minimize(lambda x: (x - 2.0) ** 2 + 1.0, 0.0, 5.0, tol=1e-10)
    assert abs(xm - 2.0) <= 1e-7
    assert fm == pytest.approx(1.0, abs=1e-14)
    with pytest.raises(ValueError):
        golden_minimize(lambda x: x, 1.0, 1.0, tol=1e-8)
