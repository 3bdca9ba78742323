"""Quadrature, resampling, log-log order fits, and scalar minimisation."""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

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
    """Piecewise cubic through (nodes, values), evaluated at `at`.

    On each interval the cubic interpolates the four nearest nodes (the
    stencil is one-sided in the end intervals), so the rule is local and
    fourth order, and no linear system is solved. Needs at least 4
    strictly increasing nodes, one value per node, and points inside the
    node range (up to 1e-12 rounding slack).
    """
    return _spline(nodes, values)(at)


def _spline(nodes: np.ndarray, values: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """resample's interpolant as an evaluator of `at`, for data that is
    evaluated many times: its coefficients are computed once."""
    x = np.asarray(nodes, dtype=float)
    y = np.asarray(values, dtype=float)
    if x.ndim != 1 or x.size < 4:
        raise ValueError(f"resample needs at least 4 nodes, got shape {x.shape}")
    if y.shape != x.shape:
        raise ValueError(f"{y.shape} values on nodes of shape {x.shape}")
    if not np.all(np.diff(x) > 0.0):
        raise ValueError("resample nodes must be strictly increasing")
    slack = 1e-12 * (1.0 + abs(x[0]) + abs(x[-1]))
    # divided differences f[j..j+1], f[j..j+2], f[j..j+3]
    f1 = np.diff(y) / np.diff(x)
    f2 = np.diff(f1) / (x[2:] - x[:-2])
    f3 = np.diff(f2) / (x[3:] - x[:-3])
    # interval i interpolates nodes k..k+3; its Newton form, expanded in
    # u = t - x[i] with d_j = x[i] - x[k+j], is ((c3 u + c2) u + c1) u + y[i].
    # The last node carries the last interval's cubic, so x[-1] reads y[-1].
    i = np.arange(x.size)
    k = np.clip(i - 1, 0, x.size - 4)
    d0, d1, d2 = x[i] - x[k], x[i] - x[k + 1], x[i] - x[k + 2]
    a2, c3 = f2[k], f3[k]
    c2 = a2 + c3 * (d0 + d1 + d2)
    c1 = f1[k] + a2 * (d0 + d1) + c3 * (d0 * d1 + (d0 + d1) * d2)

    def evaluate(at: np.ndarray) -> np.ndarray:
        at = np.asarray(at, dtype=float)
        if np.any(at < x[0] - slack) or np.any(at > x[-1] + slack):
            raise ValueError("resample target outside the data range")
        i = np.clip(np.searchsorted(x, at, side="right") - 1, 0, x.size - 1)
        u = np.clip(at, x[0], x[-1]) - x[i]
        return ((c3[i] * u + c2[i]) * u + c1[i]) * u + y[i]

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
