"""Quadrature, resampling, log-log order fits, and scalar minimisation."""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np
from scipy.interpolate import CubicSpline

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
    """Cubic interpolation of (nodes, values) at the points `at`.

    Points must lie inside the node range (up to 1e-12 rounding slack).
    """
    nodes = np.asarray(nodes, dtype=float)
    at = np.asarray(at, dtype=float)
    slack = 1e-12 * (1.0 + abs(nodes[0]) + abs(nodes[-1]))
    if np.any(at < nodes[0] - slack) or np.any(at > nodes[-1] + slack):
        raise ValueError("resample target outside the data range")
    return CubicSpline(nodes, values)(np.clip(at, nodes[0], nodes[-1]))


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
