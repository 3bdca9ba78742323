"""Independent shooting computation of the core profile constants.

This is the cross-check for the collocation solve: same ODE system

    V1'' = V2^2 V1,    V2'' = V1^2 V2,

but computed by Taylor-series integration plus multisection instead of
finite differences plus Newton, sharing no code path with the banded
solver, and with NumPy alone. The system is polynomial, so the Taylor
coefficients of V1 and V2 at any point follow from their values and
slopes there by two Cauchy-product recurrences through the series of
V1 V2 (Jorba & Zou, Experiment. Math. 14, 2005). Each step sums the
series to a fixed order, over a length set by its last two terms.

The mirror-symmetric orbit has V1(0) = V2(0) = a and V1'(0) = -V2'(0) = b,
where the first integral (V1')^2 + (V2')^2 - V1^2 V2^2 = psi0^2 pins
b = sqrt((psi0^2 + a^4)/2), leaving the single unknown a. The connecting
orbit is the separatrix between two behaviours of V2: crossing zero on
one side of a*, turning back upward on the other. Multisection on that
dichotomy determines a to machine precision: each round classifies
_SECTIONS interior points of the bracket at once, integrated as one
vectorized system, and keeps the sub-interval where the class changes.
At ulp resolution the classes can alternate; a round that sees more than
one change keeps the span from the first change to the last and ends the
multisection.
The orbit from the final a is then stepped by the same integrator to the
read point, where the far-field offset kappa = V1(x) - psi0*x is read;
its remainder decays like exp(-c x^2). An orbit that has already crossed
or turned by the read point has left the separatrix, and the read raises.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .profiles import PSI0

__all__ = ["ShootingResult", "kappa_shooting"]

# Orbits are classified by integrating them to _HORIZON; kappa is read at
# x = _READ_AT. The read point trades truncation against separatrix
# instability: the Gaussian remainder is negligible beyond x ~ 5 while the
# bracketing residue grows like exp(psi0 x^2 / 2). The orbit from the
# final bracket crosses zero at x = 6.93; reads at x = 5 and 6 agree to
# 4e-13.
_READ_AT = 6.0
_HORIZON = 12.0

# Interior points classified per multisection round; each round shrinks
# the bracket by a factor _SECTIONS + 1. With 31 or 63, kappa_shooting ran
# a sixth faster than with 15 and gave the same kappa and a; 127 moved
# kappa in its last bits.
_SECTIONS = 31

# Each step sums the Taylor series of V1 and V2 to order _ORDER, and takes
# the step length at which its last two terms fall to _TAIL_TOL relative
# to max(1, |V|). Orders 16 to 32 gave kappa within 1e-14 of each other;
# 16 and 20 took two to three times as long as 24, and 28 and 32 a tenth
# less.
_ORDER = 24
_TAIL_TOL = 1e-16


@dataclass(frozen=True)
class ShootingResult:
    crossing: float  # a = V1(0) = V2(0)
    slope: float  # b = V1'(0) = -V2'(0)
    kappa: float


def _series(v: np.ndarray, dv: np.ndarray) -> np.ndarray:
    """Taylor coefficients c[0.._ORDER] of V1 and V2 (rows of v and dv, K
    orbits each) about a point where they take the values v and the slopes
    dv, in an (_ORDER + 1, 2, K) array."""
    c = np.empty((_ORDER + 1,) + v.shape)
    c[0], c[1] = v, dv
    p = np.empty((_ORDER - 1, v.shape[1]))  # the series of V1 V2
    for n in range(_ORDER - 1):
        p[n] = np.einsum("ik,ik->k", c[: n + 1, 0], c[n::-1, 1])
        # V1'' = V2 (V1 V2) and V2'' = V1 (V1 V2), term by term
        c[n + 2] = np.einsum("isk,ik->sk", c[: n + 1, ::-1], p[n::-1])
        c[n + 2] /= (n + 1) * (n + 2)
    return c


def _solver(a: np.ndarray, t_bound: float):
    """Taylor-series steps for the orbits from the shooting parameters a,
    stacked as one 4K-component system (the blocks V1, V2, V1', V2'), from
    x = 0 to t_bound: yields (x, y) after each step, the last at
    x = t_bound. Raises RuntimeError when the step falls below ten ulps
    of x or is NaN."""
    b = np.sqrt((PSI0**2 + (a * a) ** 2) / 2.0)
    y = np.concatenate((a, a, b, -b))
    orders = np.arange(_ORDER + 1)
    x = 0.0
    while x < t_bound:
        v, dv = y.reshape(2, 2, a.size)
        c = _series(v, dv)
        tail = np.max(np.abs(c[-2:]) / np.maximum(1.0, np.abs(v)), axis=(1, 2))
        h = float(np.min((_TAIL_TOL / tail) ** (1.0 / orders[-2:])))
        if not h >= 10.0 * (np.nextafter(x, np.inf) - x):
            raise RuntimeError(f"Taylor step size underflow at x = {x:g}")
        x_new = min(x + h, t_bound)
        powers = (x_new - x) ** orders
        y = np.concatenate((
            np.einsum("i,isk->sk", powers, c).ravel(),
            np.einsum("i,isk->sk", orders[1:] * powers[:-1], c[1:]).ravel(),
        ))
        x = x_new
        yield x, y


def _classify_many(a: np.ndarray) -> np.ndarray:
    """Side of the separatrix of each shooting parameter in a: -1 where V2
    crosses zero, +1 where V2 turns back upward.

    All orbits are integrated as one 4K-component system, stepped by hand,
    and each is classified after the first step that shows its behaviour.
    An orbit that tracks the separatrix to _HORIZON raises RuntimeError.
    """
    k = a.size
    side = np.zeros(k, dtype=int)
    for x, y in _solver(a, _HORIZON):
        open_ = side == 0
        side[open_ & (y[k : 2 * k] < 0.0)] = -1  # V2 crossed zero
        side[open_ & (y[3 * k :] > 0.0)] = +1  # V2 turned back upward
        if side.all():
            return side
    raise RuntimeError(
        f"shooting orbit unclassified at x = {x:g}: "
        "it tracks the separatrix to the horizon"
    )


def kappa_shooting() -> ShootingResult:
    """Multisect the shooting parameter, then step the orbit from the final
    bracket to _READ_AT and read kappa there. A round whose sides change
    more than once ends the multisection with the bracket from the first
    change to the last. Raises RuntimeError when the orbit crosses
    (V2 <= 0) or turns (V2' >= 0) before the read point."""
    lo, hi = 0.55, 0.68
    s_lo, s_hi = _classify_many(np.array([lo, hi]))
    if s_lo == s_hi:
        raise RuntimeError("shooting bracket does not straddle the separatrix")
    for _ in range(40):
        if hi - lo <= 2.0 * math.ulp(lo):
            break
        points = np.linspace(lo, hi, _SECTIONS + 2)
        sides = np.concatenate(([s_lo], _classify_many(points[1:-1]), [s_hi]))
        changes = np.flatnonzero(sides[1:] != sides[:-1])
        lo, hi = float(points[changes[0]]), float(points[changes[-1] + 1])
        if changes.size > 1:
            break
    a = 0.5 * (lo + hi)
    for x, y in _solver(np.array([a]), _READ_AT):
        _, v2, _, w2 = y
        if v2 <= 0.0 or w2 >= 0.0:
            raise RuntimeError(
                f"shooting orbit left the separatrix by x = {x:g} "
                f"(read point {_READ_AT:g})"
            )
    return ShootingResult(
        crossing=a,
        slope=math.sqrt((PSI0**2 + (a * a) ** 2) / 2.0),
        kappa=float(y[0]) - PSI0 * _READ_AT,
    )
