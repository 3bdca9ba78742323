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
The orbit from the final a is then stepped by the same integrator to the
read point, where the far-field offset kappa = V1(x) - psi0*x is read;
its remainder decays like exp(-c x^2). An orbit that has already crossed
or turned by the read point has left the separatrix, and the read raises.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import DOP853

from .profiles import PSI0

__all__ = ["ShootingResult", "kappa_shooting"]

# Orbits are classified by integrating them to _HORIZON; kappa is read at
# x = _READ_AT. The read point trades truncation against separatrix
# instability: the Gaussian remainder is negligible beyond x ~ 5 while the
# bracketing residue grows like exp(psi0 x^2 / 2), and the orbit from the
# final bracket turns back at x = 6.46, so x = 6 reads kappa to ~1e-9.
_READ_AT = 6.0
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


def _solver(a: np.ndarray, t_bound: float) -> DOP853:
    """Hand-stepped DOP853 for the orbits from the shooting parameters a,
    stacked as one 4K-component system, from x = 0 to t_bound."""
    b = np.sqrt((PSI0**2 + a**4) / 2.0)
    return DOP853(
        _rhs, 0.0, np.concatenate((a, a, b, -b)), t_bound, rtol=_RTOL, atol=_ATOL
    )


def _classify_many(a: np.ndarray) -> np.ndarray:
    """Side of the separatrix of each shooting parameter in a: -1 where V2
    crosses zero, +1 where V2 turns back upward.

    All orbits are integrated as one 4K-component system, stepped by hand,
    and each is classified after the first step that shows its behaviour.
    An orbit that tracks the separatrix to _HORIZON raises RuntimeError.
    """
    k = a.size
    solver = _solver(a, _HORIZON)
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
    """Multisect the shooting parameter, then step the orbit from the final
    bracket to _READ_AT and read kappa there. Raises RuntimeError when that
    orbit crosses (V2 <= 0) or turns (V2' >= 0) before the read point."""
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
    solver = _solver(np.array([a]), _READ_AT)
    while solver.status == "running":
        solver.step()
        _, v2, _, w2 = solver.y
        if v2 <= 0.0 or w2 >= 0.0:
            raise RuntimeError(
                f"shooting orbit left the separatrix by x = {solver.t:g} "
                f"(read point {_READ_AT:g})"
            )
    if solver.status != "finished":
        raise RuntimeError(f"shooting read-out failed at x = {solver.t:g}")
    return ShootingResult(
        crossing=a,
        slope=math.sqrt((PSI0**2 + a**4) / 2.0),
        kappa=float(solver.y[0]) - PSI0 * _READ_AT,
    )
