"""Quadrature, resampling, log-log order fits, and scalar minimisation."""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .banded import BandedLU, BandedMatrix
from .grids import Grid

__all__ = [
    "quadrature",
    "fit_loglog",
    "resample",
    "golden_minimize",
]


def quadrature(values: np.ndarray, grid: Grid) -> float:
    """Composite trapezoid integral of nodal values over the grid.

    Second order on general meshes; on integrands whose derivatives vanish
    at both ends (everything integrated here decays exponentially) the
    Euler-Maclaurin correction terms cancel and the rule converges far
    faster than its nominal order.
    """
    values = np.asarray(values, dtype=float)
    if values.shape != grid.nodes.shape:
        raise ValueError(
            f"length mismatch: {values.shape[0]} values on {grid.n} nodes"
        )
    return float(np.trapezoid(values, grid.nodes))


def fit_loglog(samples: Sequence[tuple[float, float]]) -> float:
    """Slope of the least-squares line through (log x, log y).

    Requires at least 3 strictly positive samples.
    """
    if len(samples) < 3:
        raise ValueError(f"need >= 3 samples for a fit, got {len(samples)}")
    xs = np.array([s[0] for s in samples], dtype=float)
    ys = np.array([s[1] for s in samples], dtype=float)
    if np.any(xs <= 0.0) or np.any(ys <= 0.0):
        raise ValueError("fit_loglog requires strictly positive samples")
    lx, ly = np.log(xs), np.log(ys)
    lxm, lym = lx - lx.mean(), ly - ly.mean()
    sxx = float(np.dot(lxm, lxm))
    if sxx == 0.0:
        raise ValueError("all x values coincide")
    return float(np.dot(lxm, lym)) / sxx


def resample(nodes: np.ndarray, values: np.ndarray, at: np.ndarray) -> np.ndarray:
    """Not-a-knot cubic spline through (nodes, values), evaluated at `at`.

    The node slopes solve SciPy's CubicSpline system: the C2 rows inside
    and the not-a-knot rows at both ends, tridiagonal, factored by
    BandedLU. Each interval's cubic is evaluated in Horner form. Needs at
    least 4 strictly increasing nodes, one value per node, and points
    inside the node range (up to 1e-12 rounding slack).
    """
    return _spline(nodes, values)(at)


def _spline(nodes: np.ndarray, values: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """resample's spline as an evaluator of `at`, for data that is
    evaluated many times: its node slopes are solved once."""
    x = np.asarray(nodes, dtype=float)
    y = np.asarray(values, dtype=float)
    if x.ndim != 1 or x.size < 4:
        raise ValueError(f"resample needs at least 4 nodes, got shape {x.shape}")
    if y.shape != x.shape:
        raise ValueError(f"{y.shape} values on nodes of shape {x.shape}")
    dx = np.diff(x)
    if not np.all(dx > 0.0):
        raise ValueError("resample nodes must be strictly increasing")
    slack = 1e-12 * (1.0 + abs(x[0]) + abs(x[-1]))
    slope = np.diff(y) / dx
    # row i of the slope system s, in BandedMatrix storage (data[1 + i - j, j]):
    # dx[i] s[i-1] + 2 (dx[i-1] + dx[i]) s[i] + dx[i-1] s[i+1] = rhs[i]
    system = BandedMatrix.zeros(x.size, 1)
    upper, diag, lower = system.data
    diag[1:-1] = 2.0 * (dx[:-1] + dx[1:])
    upper[2:] = dx[:-1]
    lower[:-2] = dx[1:]
    rhs = np.empty_like(x)
    rhs[1:-1] = 3.0 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
    # not-a-knot: the third derivative is continuous at x[1] and x[-2]
    d0, d1 = x[2] - x[0], x[-1] - x[-3]
    diag[0], upper[1] = dx[1], d0
    rhs[0] = ((dx[0] + 2.0 * d0) * dx[1] * slope[0] + dx[0] ** 2 * slope[1]) / d0
    diag[-1], lower[-2] = dx[-2], d1
    rhs[-1] = (dx[-1] ** 2 * slope[-2] + (2.0 * d1 + dx[-1]) * dx[-2] * slope[-1]) / d1
    s = BandedLU(system).solve(rhs)
    # cubic on interval i in u = t - x[i]: ((c3 u + c2) u + s[i]) u + y[i]
    t = (s[:-1] + s[1:] - 2.0 * slope) / dx
    c3 = t / dx
    c2 = (slope - s[:-1]) / dx - t

    def evaluate(at: np.ndarray) -> np.ndarray:
        at = np.asarray(at, dtype=float)
        if np.any(at < x[0] - slack) or np.any(at > x[-1] + slack):
            raise ValueError("resample target outside the data range")
        i = np.clip(np.searchsorted(x, at, side="right") - 1, 0, x.size - 2)
        u = np.clip(at, x[0], x[-1]) - x[i]
        return ((c3[i] * u + c2[i]) * u + s[i]) * u + y[i]

    return evaluate


def golden_minimize(
    f: Callable[[float], float], a: float, b: float, tol: float
) -> tuple[float, float]:
    """Golden-section minimisation of a unimodal scalar function on [a, b].

    Deterministic fixed-shrink iteration; returns (argmin, min value) once
    the bracket is narrower than tol.
    """
    if not a < b:
        raise ValueError("need a < b")
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    x1 = b - invphi * (b - a)
    x2 = a + invphi * (b - a)
    f1, f2 = f(x1), f(x2)
    while (b - a) > tol:
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - invphi * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + invphi * (b - a)
            f2 = f(x2)
    xm = 0.5 * (a + b)
    return xm, f(xm)
