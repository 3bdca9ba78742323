"""Independent shooting computation of the core profile constants.

This is the cross-check for the collocation solve: same ODE system

    V1'' = V2^2 V1,    V2'' = V1^2 V2,

but computed by adaptive Runge-Kutta integration plus multisection
instead of finite differences plus Newton, sharing no code path with the
banded solver.

The mirror-symmetric orbit has V1(0) = V2(0) = a and V1'(0) = -V2'(0) = b,
where the first integral (V1')^2 + (V2')^2 - V1^2 V2^2 = psi0^2 pins
b = sqrt((psi0^2 + a^4)/2), leaving the single unknown a. The connecting
orbit is the separatrix between two behaviours of V2: crossing zero on
one side of a*, turning back upward on the other. Multisection on that
dichotomy determines a to machine precision: each round classifies
_SECTIONS interior points of the bracket at once, integrated as one
vectorized system, and keeps the sub-interval where the class changes.
The orbit from the final a then tracks the separatrix long enough to read
the far-field offset kappa = V1(x) - psi0*x, whose remainder decays like
exp(-c x^2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import DOP853, solve_ivp

from .profiles import PSI0

__all__ = ["ShootingResult", "kappa_shooting"]

# kappa is read at x = _READ_AT on orbits integrated to _HORIZON. The read
# point trades truncation against separatrix instability: the Gaussian
# remainder is negligible beyond x ~ 5 while the bracketing residue grows
# like exp(psi0 x^2 / 2), so mid-single-digit x reads kappa to ~1e-9.
_READ_AT = 6.5
_HORIZON = 12.0
_RTOL, _ATOL = 1e-13, 1e-15

# Interior points classified per multisection round; each round shrinks
# the bracket by a factor _SECTIONS + 1.
_SECTIONS = 15


@dataclass(frozen=True)
class ShootingResult:
    crossing: float  # a = V1(0) = V2(0)
    slope: float  # b = V1'(0) = -V2'(0)
    kappa: float


def _rhs(x, y):
    # y stacks K orbits as the blocks V1, V2, V1', V2' of K entries each
    v1, v2, w1, w2 = y.reshape(4, -1)
    return np.concatenate((w1, w2, v2 * v2 * v1, v1 * v1 * v2))


def _crossed(x, y):
    return y[1]


_crossed.terminal = True
_crossed.direction = -1.0


def _turned(x, y):
    return y[3]


_turned.terminal = True
_turned.direction = 1.0


def _integrate(a: float):
    b = math.sqrt((PSI0**2 + a**4) / 2.0)
    return solve_ivp(
        _rhs,
        (0.0, _HORIZON),
        (a, a, b, -b),
        method="DOP853",
        rtol=_RTOL,
        atol=_ATOL,
        events=(_crossed, _turned),
        dense_output=True,
    )


def _classify_many(a: np.ndarray) -> np.ndarray:
    """Side of the separatrix of each shooting parameter in a: -1 where V2
    crosses zero, +1 where V2 turns back upward.

    All orbits are integrated as one 4K-component system, stepped by hand,
    and each is classified after the first step that shows its behaviour.
    An orbit that tracks the separatrix to _HORIZON raises RuntimeError.
    """
    k = a.size
    b = np.sqrt((PSI0**2 + a**4) / 2.0)
    solver = DOP853(
        _rhs, 0.0, np.concatenate((a, a, b, -b)), _HORIZON, rtol=_RTOL, atol=_ATOL
    )
    side = np.zeros(k, dtype=int)
    while solver.status == "running":
        solver.step()
        open_ = side == 0
        side[open_ & (solver.y[k : 2 * k] < 0.0)] = -1  # V2 crossed zero
        side[open_ & (solver.y[3 * k :] > 0.0)] = +1  # V2 turned back upward
        if side.all():
            return side
    raise RuntimeError(
        f"shooting orbit unclassified at x = {solver.t:g} ({solver.status}): "
        "it tracks the separatrix to the horizon"
    )


def kappa_shooting() -> ShootingResult:
    """Multisect the shooting parameter and read off kappa at _READ_AT."""
    lo, hi = 0.55, 0.68
    s_lo, s_hi = _classify_many(np.array([lo, hi]))
    if s_lo == s_hi:
        raise RuntimeError("shooting bracket does not straddle the separatrix")
    for _ in range(40):
        if hi - lo <= 2.0 * math.ulp(lo):
            break
        points = np.linspace(lo, hi, _SECTIONS + 2)
        sides = np.concatenate(([s_lo], _classify_many(points[1:-1]), [s_hi]))
        i = int(np.argmax(sides != s_lo))  # first point past the separatrix
        lo, hi = float(points[i - 1]), float(points[i])
    a = 0.5 * (lo + hi)
    sol = _integrate(a)
    t_read = min(_READ_AT, 0.95 * sol.t[-1])
    v1 = float(sol.sol(t_read)[0])
    return ShootingResult(
        crossing=a,
        slope=math.sqrt((PSI0**2 + a**4) / 2.0),
        kappa=v1 - PSI0 * t_read,
    )
