"""Independent shooting computation of the core profile constants.

This is the cross-check for the collocation solve: same ODE system

    V1'' = V2^2 V1,    V2'' = V1^2 V2,

but computed by adaptive Runge-Kutta integration plus bisection instead
of finite differences plus Newton, sharing no code path with the banded
solver.

The mirror-symmetric orbit has V1(0) = V2(0) = a and V1'(0) = -V2'(0) = b,
where the first integral (V1')^2 + (V2')^2 - V1^2 V2^2 = psi0^2 pins
b = sqrt((psi0^2 + a^4)/2), leaving the single unknown a. The connecting
orbit is the separatrix between two behaviours of V2: crossing zero on
one side of a*, turning back upward on the other. Bisection on that
dichotomy determines a to machine precision; the orbit then tracks the
separatrix long enough to read the far-field offset
kappa = V1(x) - psi0*x, whose remainder decays like exp(-c x^2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from scipy.integrate import solve_ivp

from .profiles import PSI0

__all__ = ["ShootingResult", "kappa_shooting"]

# kappa is read at x = _READ_AT on orbits integrated to _HORIZON. The read
# point trades truncation against separatrix instability: the Gaussian
# remainder is negligible beyond x ~ 5 while the bisection residue grows
# like exp(psi0 x^2 / 2), so mid-single-digit x reads kappa to ~1e-9.
_READ_AT = 6.5
_HORIZON = 12.0


@dataclass(frozen=True)
class ShootingResult:
    crossing: float  # a = V1(0) = V2(0)
    slope: float  # b = V1'(0) = -V2'(0)
    kappa: float


def _rhs(x, y):
    v1, v2, w1, w2 = y
    return (w1, w2, v2 * v2 * v1, v1 * v1 * v2)


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
        rtol=1e-13,
        atol=1e-15,
        events=(_crossed, _turned),
        dense_output=True,
    )


def _classify(sol) -> int:
    if sol.t_events[0].size:
        return -1  # V2 crossed zero
    if sol.t_events[1].size:
        return +1  # V2 turned back upward
    return 0  # tracked the separatrix to the horizon


def kappa_shooting() -> ShootingResult:
    """Bisect the shooting parameter and read off kappa at _READ_AT."""
    lo, hi = 0.55, 0.68
    s_lo = _classify(_integrate(lo))
    s_hi = _classify(_integrate(hi))
    if s_lo == 0 or s_hi == 0 or s_lo == s_hi:
        raise RuntimeError("shooting bracket does not straddle the separatrix")
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        s = _classify(_integrate(mid))
        if s == s_lo:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 2.0 * math.ulp(lo):
            break
    a = 0.5 * (lo + hi)
    sol = _integrate(a)
    t_read = min(_READ_AT, 0.95 * sol.t[-1])
    v1 = float(sol.sol(t_read)[0])
    return ShootingResult(
        crossing=a,
        slope=math.sqrt((PSI0**2 + a**4) / 2.0),
        kappa=v1 - PSI0 * t_read,
    )
