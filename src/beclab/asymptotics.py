"""Matched composite approximation of the interface and its error laws.

For large coupling lam the heteroclinic splits into three regions glued at
the match points +-(ln lam)*lam^{-1/4}:

  * outer right (z >= match): v1 ~ U(z + xi), v2 ~ 0,
  * outer left (z <= -match): v1 ~ 0, v2 ~ U(xi - z),
  * inner core (|z| <= match): v_i ~ lam^{-1/4} * V_i(lam^{1/4} z),

where U is the closed-form front, (V1, V2) the core profile, and the
first-order shift is xi = kappa/psi0 * lam^{-1/4}. The expected error
scales are (ln lam)*lam^{-3/4} (weighted by e^{-c|z|}) outside and
lam^{-3/4} + |z|^3 inside; derivative analogues carry the weight
(|z| + lam^{-1/4}) e^{-c|z|} outside and lam^{-1/2} + |z|^2 inside.

Solutions are centred by construction: solve_heteroclinic returns the
mirror-symmetric solution v1(z) = v2(-z), whose v1 = v2 crossing is the
node z = 0, so errors are measured on the solution's own nodes, and the
outer errors on v1's side z > match only (v2's side is its mirror).
The full-window inner sup mixes both scales of the inner estimate; order
fitting therefore uses the |z| <= lam^{-1/4} core sub-window where the
power law is clean, and reports the full-window value alongside.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .calculus import fit_loglog, golden_minimize
from .profiles import PSI0, BlowupProfile, outer_value, outer_derivative

if TYPE_CHECKING:  # heteroclinic imports this module to seed its solves
    from .heteroclinic import HeteroclinicSolution

__all__ = [
    "COMPOSITE_LAM_MIN",
    "CompositeApproximation",
    "ErrorReport",
    "ErrorOrders",
    "build_composite",
    "core_halfwidth",
    "measure_errors",
    "fit_error_orders",
    "shift_estimate",
]

# Smallest coupling the composite is built at; it is an expansion in
# large lam.
COMPOSITE_LAM_MIN = 10.0

# Rate c of the exponential weight e^{c|z|} of the outer sup norms.
_C_WEIGHT = 1.0

# Cap on the exponential weight budget of outer sup norms. The genuine
# outer error decays like e^{-sqrt(2)|z|}, faster than the e^{c|z|} weight
# grows, so the weighted sup is attained near the match point.
# Evaluating the weight beyond |z| = 15/c would amplify the
# machine-precision floor (~1e-15, plus the domain-truncation bump at the
# Dirichlet boundary) above the signal; the cap bounds the amplification
# at e^15 ~ 3.3e6, keeping the floor near 3e-9 while losing only an
# e^{-(sqrt(2)-c)*15} relative tail of the true sup.
_WEIGHT_BUDGET = 15.0


@dataclass(frozen=True, eq=False)
class CompositeApproximation:
    """Piecewise evaluator glued at +-match_point.

    xi is the shift actually applied to the outer pieces: zero for the
    leading variant, kappa/psi0 * lam^{-1/4} for the shifted one.
    """

    lam: float
    xi: float
    match_point: float
    blowup: BlowupProfile

    def _inner_coords(self, zeta: np.ndarray) -> np.ndarray:
        x = self.lam**0.25 * zeta
        limit = self.blowup.X * (1.0 + 1e-12)
        if np.any(np.abs(x) > limit):
            raise ValueError(
                "stretched coordinate exceeds blow-up data range; "
                f"|x| up to {float(np.max(np.abs(x))):.3f} vs X = {self.blowup.X}"
            )
        return x

    def _eval(self, z, outer, sign: float, inner1, inner2, scale: float):
        # v1's outer piece is outer(z + xi), v2's its mirror sign*outer(xi - z);
        # inner1 and inner2 evaluate the core data at stretched points
        zeta = np.asarray(z, dtype=float)
        out1 = np.zeros_like(zeta)
        out2 = np.zeros_like(zeta)
        right = zeta > self.match_point
        left = zeta < -self.match_point
        inner = ~(right | left)
        if np.any(right):
            out1[right] = outer(zeta[right] + self.xi)
        if np.any(left):
            out2[left] = sign * outer(self.xi - zeta[left])
        if np.any(inner):
            x = self._inner_coords(zeta[inner])
            out1[inner] = scale * inner1(x)
            out2[inner] = scale * inner2(x)
        return out1, out2

    def values(self, z):
        """(v1_hat, v2_hat) at the points z."""
        b = self.blowup
        return self._eval(z, outer_value, 1.0, *b.value_splines, self.lam**-0.25)

    def derivatives(self, z):
        """(v1_hat', v2_hat') at z; the inner chain rule cancels the
        amplitude factor, leaving V_i'(lam^{1/4} z)."""
        return self._eval(z, outer_derivative, -1.0, *self.blowup.derivative_splines, 1.0)

    def jump(self) -> float:
        """Largest gluing discontinuity: inner and outer limits compared at
        both match points for both components."""
        m = self.match_point
        # both match points belong to the inner piece
        inner_v1, inner_v2 = self.values(np.array([m, -m]))
        outer = float(outer_value(m + self.xi))  # both outer limits, mirrored
        defects = (
            abs(outer - inner_v1[0]),
            abs(0.0 - inner_v2[0]),
            abs(0.0 - inner_v1[1]),
            abs(outer - inner_v2[1]),
        )
        return float(max(defects))


@dataclass(frozen=True)
class ErrorReport:
    """Region-wise sup-norm deviations of a solution from its composite.

    Outer entries are weighted: values by e^{c|z|}, derivatives by
    e^{c|z|}/(|z| + lam^{-1/4}). inner_sup/inner_deriv cover the whole
    inner window; the _core variants restrict to |z| <= lam^{-1/4} where
    a clean power law is expected.
    """

    lam: float
    c_weight: float
    outer_sup_weighted: float
    outer_deriv_weighted: float
    inner_sup: float
    inner_deriv: float
    inner_sup_core: float
    inner_deriv_core: float
    jump: float

    def __post_init__(self):
        for name in (
            "outer_sup_weighted",
            "outer_deriv_weighted",
            "inner_sup",
            "inner_deriv",
            "inner_sup_core",
            "inner_deriv_core",
            "jump",
        ):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0.0):
                raise ValueError(f"{name} must be finite and nonnegative, got {value}")


@dataclass(frozen=True)
class ErrorOrders:
    """Fitted log-log slopes of the region-wise errors."""

    outer: float
    inner: float
    outer_deriv: float


def check_composite_coupling(lam: float, X: float) -> None:
    """Raise ValueError unless lam >= COMPOSITE_LAM_MIN (10) and
    ln(lam) <= X, so that the stretched inner window sits inside core data
    on [-X, X]."""
    if lam < COMPOSITE_LAM_MIN:
        raise ValueError(f"composite needs lam >= {COMPOSITE_LAM_MIN:g}, got {lam}")
    if core_halfwidth(lam, X) > X:
        raise ValueError(
            f"inner window needs X >= ln(lam) = {math.log(lam):.2f}, "
            f"blow-up data has X = {X}"
        )


def core_halfwidth(lam: float, X: float) -> float:
    """Half-width X' of the core whose composites seed the couplings up to
    lam: X while ln(lam) <= X (to a relative 1e-12), and ceil(ln lam)
    beyond, so that the stretched inner window of each of them sits inside
    core data on [-X', X']."""
    if math.log(lam) > X * (1.0 + 1e-12):
        return float(math.ceil(math.log(lam)))
    return X


def build_composite(
    lam: float, blowup: BlowupProfile, variant: str = "shifted"
) -> CompositeApproximation:
    """Assemble the composite at coupling lam from a converged core profile;
    check_composite_coupling(lam, blowup.X) must hold."""
    check_composite_coupling(lam, blowup.X)
    if variant not in ("leading", "shifted"):
        raise ValueError(f"variant must be 'leading' or 'shifted', got {variant!r}")
    match_point = math.log(lam) * lam**-0.25
    xi = blowup.kappa / PSI0 * lam**-0.25 if variant == "shifted" else 0.0
    return CompositeApproximation(lam=lam, xi=xi, match_point=match_point, blowup=blowup)


def measure_errors(
    sol: HeteroclinicSolution,
    approx: CompositeApproximation,
) -> ErrorReport:
    """Region-wise deviations of sol from approx on sol's own grid.

    sol is centred by construction (v1(z) = v2(-z) node for node on a
    mirror mesh), and so is approx, so the outer errors are taken on v1's
    saturation side z > match_point only. v2's side mirrors it: both
    errors are the same doubles there. The weighted sup region is capped at
    |z| = _WEIGHT_BUDGET / _C_WEIGHT (see the constants' notes).
    """
    if sol.lam != approx.lam:
        raise ValueError(
            f"solution lam {sol.lam} does not match composite lam {approx.lam}"
        )
    zeta = sol.grid.nodes
    m = approx.match_point
    inner = np.abs(zeta) <= m
    if int(np.count_nonzero(inner)) < 16:
        raise ValueError("solution grid does not resolve the inner window")
    cap = _WEIGHT_BUDGET / _C_WEIGHT
    right = (zeta > m) & (zeta <= cap)

    a1, a2 = approx.values(zeta)
    d1, d2 = approx.derivatives(zeta)
    e1 = np.abs(sol.v1 - a1)
    e2 = np.abs(sol.v2 - a2)
    g1 = np.abs(sol.dv1 - d1)
    g2 = np.abs(sol.dv2 - d2)

    wexp = np.exp(_C_WEIGHT * np.abs(zeta))
    deriv_scale = np.abs(zeta) + approx.lam**-0.25
    outer_sup = float(np.max(e1[right] * wexp[right]))
    outer_deriv = float(np.max(g1[right] * wexp[right] / deriv_scale[right]))
    inner_err = np.maximum(e1, e2)
    inner_deriv_err = np.maximum(g1, g2)
    core = np.abs(zeta) <= approx.lam**-0.25
    return ErrorReport(
        lam=sol.lam,
        c_weight=_C_WEIGHT,
        outer_sup_weighted=outer_sup,
        outer_deriv_weighted=outer_deriv,
        inner_sup=float(np.max(inner_err[inner])),
        inner_deriv=float(np.max(inner_deriv_err[inner])),
        inner_sup_core=float(np.max(inner_err[core])),
        inner_deriv_core=float(np.max(inner_deriv_err[core])),
        jump=approx.jump(),
    )


def fit_error_orders(reports) -> ErrorOrders:
    """Log-log slopes of the region-wise errors across a coupling sweep.

    Requires at least 4 couplings spanning at least 3 decades. The inner
    order is fitted on the core sub-window values (clean lam^{-3/4} scale);
    full-window values are reported but not fitted.
    """
    reports = list(reports)
    lams = [r.lam for r in reports]
    if len(set(lams)) < 4:
        raise ValueError("need at least 4 distinct couplings")
    if max(lams) < 1000.0 * min(lams):
        raise ValueError("couplings must span at least 3 decades")

    def fit(field: str) -> float:
        return fit_loglog([(r.lam, getattr(r, field)) for r in reports])

    return ErrorOrders(
        outer=fit("outer_sup_weighted"),
        inner=fit("inner_sup_core"),
        outer_deriv=fit("outer_deriv_weighted"),
    )


def shift_estimate(sol: HeteroclinicSolution, kappa: float) -> float:
    """Best-fit outer shift: argmin over xi of the sup deviation between
    v1 and U(. + xi) on z >= match_point.

    The bracket is [0, 4*kappa/psi0*lam^{-1/4}] around the predicted value
    kappa/psi0*lam^{-1/4}; a minimizer pinned at either bracket edge means
    the shift law does not describe the data and raises RuntimeError.
    kappa is the core profile's offset (BlowupProfile.kappa).
    """
    if sol.lam < 100.0:
        raise ValueError(f"shift estimate needs lam >= 100, got {sol.lam}")
    match = math.log(sol.lam) * sol.lam**-0.25
    region = sol.grid.nodes >= match
    z = sol.grid.nodes[region]
    v = sol.v1[region]
    hi = 4.0 * kappa / PSI0 * sol.lam**-0.25

    def objective(xi: float) -> float:
        return float(np.max(np.abs(v - outer_value(z + xi))))

    xi_hat, _ = golden_minimize(objective, 0.0, hi, tol=1e-6 * hi)
    if xi_hat < 1e-3 * hi or xi_hat > (1.0 - 1e-3) * hi:
        raise RuntimeError(
            f"shift minimizer at bracket edge: {xi_hat:.3e} in [0, {hi:.3e}]"
        )
    return xi_hat
