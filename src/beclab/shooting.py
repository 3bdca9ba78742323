"""Independent shooting computation of the core profile constants.

This is the cross-check for the collocation solve: same ODE system

    V1'' = V2^2 V1,    V2'' = V1^2 V2,

but computed by adaptive Runge-Kutta integration plus multisection
instead of finite differences plus Newton, sharing no code path with the
banded solver. The integrator is an in-house DOP853, the Dormand-Prince
8(5,3) pair of Hairer, Norsett & Wanner (sec. II.10). It takes the steps
SciPy's DOP853 class takes, and its coefficients are the doubles of
SciPy's scipy/integrate/_ivp/dop853_coefficients.py, so the module needs
NumPy alone.

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
# bracketing residue grows like exp(psi0 x^2 / 2), and the orbit from the
# final bracket turns back at x = 6.46, so x = 6 reads kappa to ~1e-9.
_READ_AT = 6.0
_HORIZON = 12.0
_RTOL, _ATOL = 1e-13, 1e-15

# Interior points classified per multisection round; each round shrinks
# the bracket by a factor _SECTIONS + 1. With 31, kappa_shooting ran about
# a quarter faster than with 15 or 255 and gave the same kappa and a; 63
# and 127 moved kappa in its last bits.
_SECTIONS = 31

# The 12-stage Dormand-Prince 8(5,3) tableau of Hairer, Norsett & Wanner,
# "Solving Ordinary Differential Equations I", sec. II.10, as the doubles of
# scipy/integrate/_ivp/dop853_coefficients.py: nodes _C, stage rows _A[s]
# (the first s entries of row s), weights _B of the 8th-order solution, and
# the 5th- and 3rd-order error estimators _E5 and _E3 over the 13 stages
# that include the derivative at the step's end.
_C = np.array([
    0.0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274,
    0.2816496580927726, 0.3333333333333333, 0.25, 0.3076923076923077,
    0.6512820512820513, 0.6, 0.8571428571428571, 1.0,
])
_A = (None,) + tuple(np.array(row) for row in (
    [0.05260015195876773],
    [0.0197250569845379, 0.0591751709536137],
    [0.02958758547680685, 0.0, 0.08876275643042054],
    [0.2413651341592667, 0.0, -0.8845494793282861, 0.924834003261792],
    [0.037037037037037035, 0.0, 0.0, 0.17082860872947386, 0.12546768756682242],
    [0.037109375, 0.0, 0.0, 0.17025221101954405, 0.06021653898045596,
     -0.017578125],
    [0.03709200011850479, 0.0, 0.0, 0.17038392571223998, 0.10726203044637328,
     -0.015319437748624402, 0.008273789163814023],
    [0.6241109587160757, 0.0, 0.0, -3.3608926294469414, -0.868219346841726,
     27.59209969944671, 20.154067550477894, -43.48988418106996],
    [0.47766253643826434, 0.0, 0.0, -2.4881146199716677, -0.590290826836843,
     21.230051448181193, 15.279233632882423, -33.28821096898486,
     -0.020331201708508627],
    [-0.9371424300859873, 0.0, 0.0, 5.186372428844064, 1.0914373489967295,
     -8.149787010746927, -18.52006565999696, 22.739487099350505,
     2.4936055526796523, -3.0467644718982196],
    [2.273310147516538, 0.0, 0.0, -10.53449546673725, -2.0008720582248625,
     -17.9589318631188, 27.94888452941996, -2.8589982771350235,
     -8.87285693353063, 12.360567175794303, 0.6433927460157636],
))
_B = np.array([
    0.054293734116568765, 0.0, 0.0, 0.0, 0.0, 4.450312892752409,
    1.8915178993145003, -5.801203960010585, 0.3111643669578199,
    -0.1521609496625161, 0.20136540080403034, 0.04471061572777259,
])
_E5 = np.array([
    0.01312004499419488, 0.0, 0.0, 0.0, 0.0, -1.2251564463762044,
    -0.4957589496572502, 1.6643771824549864, -0.35032884874997366,
    0.3341791187130175, 0.08192320648511571, -0.022355307863886294, 0.0,
])
_E3 = np.array([
    -0.18980075407240762, 0.0, 0.0, 0.0, 0.0, 4.450312892752409,
    1.8915178993145003, -5.801203960010585, -0.4226823213237919,
    -0.1521609496625161, 0.20136540080403034, 0.02265179219836082, 0.0,
])


@dataclass(frozen=True)
class ShootingResult:
    crossing: float  # a = V1(0) = V2(0)
    slope: float  # b = V1'(0) = -V2'(0)
    kappa: float


def _rhs(x, y):
    # y stacks K orbits as the blocks V1, V2, V1', V2' of K entries each
    out = np.empty_like(y)
    _rhs_into(y, out)
    return out


def _rhs_into(y, out):
    """_rhs(x, y) written into out, which does not overlap y."""
    k = y.size // 4
    v1, v2 = y[:k], y[k : 2 * k]
    out[: 2 * k] = y[2 * k :]
    dd1, dd2 = out[2 * k : 3 * k], out[3 * k :]  # V1'' = V2^2 V1, V2'' = V1^2 V2
    np.multiply(v2, v2, out=dd1)
    dd1 *= v1
    np.multiply(v1, v1, out=dd2)
    dd2 *= v2


def _solver(a: np.ndarray, t_bound: float):
    """Hand-stepped DOP853 for the orbits from the shooting parameters a,
    stacked as one 4K-component system, from x = 0 to t_bound: yields
    (x, y) after each accepted step, the last at x = t_bound.

    The in-house DOP853 steps like SciPy's DOP853 class: the same tableau
    (_C, _A, _B, _E5, _E3, the doubles of SciPy's dop853_coefficients.py),
    initial-step rule, error norm and step-size control, with no dense
    output. Raises RuntimeError when the step falls below ten ulps of x.
    """
    b = np.sqrt((PSI0**2 + a**4) / 2.0)
    y = np.concatenate((a, a, b, -b))
    f = _rhs(0.0, y)
    h_abs = _initial_step(y, f, t_bound)
    stages = np.empty((13, y.size))
    # the stage states y + h * sum_r A[s, r] stages[r] are formed in trial,
    # each derivative is written straight into its row of stages
    trial = np.empty(y.size)
    heads = [stages[:s].T for s in range(12)]
    stages[0] = f
    t = 0.0
    while t < t_bound:
        min_step = 10.0 * (np.nextafter(t, np.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                raise RuntimeError(f"DOP853 step size underflow at x = {t:g}")
            t_new = min(t + h_abs, t_bound)
            h = t_new - t
            for s in range(1, 12):
                np.dot(heads[s], _A[s], out=trial)
                trial *= h
                trial += y
                _rhs_into(trial, stages[s])
            y_new = y + h * np.dot(stages[:-1].T, _B)
            _rhs_into(y_new, stages[12])
            scale = _ATOL + np.maximum(np.abs(y), np.abs(y_new)) * _RTOL
            err5 = np.linalg.norm(np.dot(stages.T, _E5) / scale) ** 2
            err3 = np.linalg.norm(np.dot(stages.T, _E3) / scale) ** 2
            if err5 == 0.0 and err3 == 0.0:
                error = 0.0
            else:
                error = h * err5 / np.sqrt((err5 + 0.01 * err3) * y.size)
            # SciPy's control: safety 0.9, step factor within [0.2, 10], and
            # the exponent -1/8 of an order-7 error estimate
            if error < 1.0:
                factor = 10.0 if error == 0.0 else min(10.0, 0.9 * error**-0.125)
                h_abs = h * (min(1.0, factor) if rejected else factor)
                break
            h_abs = h * max(0.2, 0.9 * error**-0.125)
            rejected = True
        # the derivative at the accepted end is the next step's first stage
        t, y, stages[0] = t_new, y_new, stages[12]
        yield t, y


def _initial_step(y: np.ndarray, f: np.ndarray, t_bound: float) -> float:
    # Hairer, Norsett & Wanner's starting step (sec. II.4), as SciPy's
    # select_initial_step takes it for an error estimator of order 7
    scale = _ATOL + np.abs(y) * _RTOL
    d0 = np.linalg.norm(y / scale) / y.size**0.5
    d1 = np.linalg.norm(f / scale) / y.size**0.5
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, t_bound)
    f1 = _rhs(h0, y + h0 * f)
    d2 = np.linalg.norm((f1 - f) / scale) / y.size**0.5 / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.125
    return min(100.0 * h0, h1, t_bound)


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
        slope=math.sqrt((PSI0**2 + a**4) / 2.0),
        kappa=float(y[0]) - PSI0 * _READ_AT,
    )
