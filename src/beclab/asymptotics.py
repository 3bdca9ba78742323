"""Matched composite approximation of the interface and its error laws.

For large coupling lam the heteroclinic splits into three regions glued at
the match points +-(ln lam)*lam^{-1/4}:

  * outer right (z >= match): v1 ~ U1(z + xi), v2 ~ 0,
  * outer left (z <= -match): v1 ~ 0, v2 ~ U2(z - xi),
  * inner core (|z| <= match): v_i ~ lam^{-1/4} * V_i(lam^{1/4} z),

where U_i are the closed-form fronts, (V1, V2) the core profile, and the
first-order shift is xi = kappa/psi0 * lam^{-1/4}. The expected error
scales are (ln lam)*lam^{-3/4} (weighted by e^{-c|z|}) outside and
lam^{-3/4} + |z|^3 inside; derivative analogues carry the weight
(|z| + lam^{-1/4}) e^{-c|z|} outside and lam^{-1/2} + |z|^2 inside.

Error measurement recenters on the solution's own v1 = v2 crossing so
reports are invariant under a global translation of the solution.
The full-window inner sup mixes both scales of the inner estimate; order
fitting therefore uses the |z| <= lam^{-1/4} core sub-window where the
power law is clean, and reports the full-window value alongside.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .calculus import OrderFit, fit_loglog, golden_minimize, resample
from .grids import Grid
from .heteroclinic import HeteroclinicSolution
from .profiles import PSI0, BlowupProfile, outer_value, outer_derivative, solve_blowup

__all__ = [
    "CompositeApproximation",
    "ErrorReport",
    "ErrorOrders",
    "build_composite",
    "measure_errors",
    "fit_error_orders",
    "shift_estimate",
]

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
    variant: str
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

    def _eval(self, z, source1, source2, inner1, inner2, scale: float):
        zeta = np.atleast_1d(np.asarray(z, dtype=float))
        out1 = np.zeros_like(zeta)
        out2 = np.zeros_like(zeta)
        right = zeta > self.match_point
        left = zeta < -self.match_point
        inner = ~(right | left)
        if np.any(right):
            out1[right] = source1(zeta[right] + self.xi)
        if np.any(left):
            out2[left] = source2(zeta[left] - self.xi)
        if np.any(inner):
            x = self._inner_coords(zeta[inner])
            nodes = self.blowup.grid.nodes
            out1[inner] = scale * resample(nodes, inner1, x)
            out2[inner] = scale * resample(nodes, inner2, x)
        if np.ndim(z) == 0:
            return float(out1[0]), float(out2[0])
        return out1, out2

    def values(self, z):
        """(v1_hat, v2_hat) at z (scalar or array)."""
        b = self.blowup
        return self._eval(
            z,
            lambda s: outer_value(1, s),
            lambda s: outer_value(2, s),
            b.V1,
            b.V2,
            self.lam**-0.25,
        )

    def derivatives(self, z):
        """(v1_hat', v2_hat') at z; the inner chain rule cancels the
        amplitude factor, leaving V_i'(lam^{1/4} z)."""
        b = self.blowup
        return self._eval(
            z,
            lambda s: outer_derivative(1, s),
            lambda s: outer_derivative(2, s),
            b.dV1,
            b.dV2,
            1.0,
        )

    def jump(self) -> float:
        """Largest gluing discontinuity: inner and outer limits compared at
        both match points for both components."""
        m = self.match_point
        x = self._inner_coords(np.array([m, -m]))
        nodes = self.blowup.grid.nodes
        inner_v1 = self.lam**-0.25 * resample(nodes, self.blowup.V1, x)
        inner_v2 = self.lam**-0.25 * resample(nodes, self.blowup.V2, x)
        defects = (
            abs(outer_value(1, m + self.xi) - inner_v1[0]),
            abs(0.0 - inner_v2[0]),
            abs(0.0 - inner_v1[1]),
            abs(outer_value(2, -m - self.xi) - inner_v2[1]),
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
    outer: OrderFit
    inner: OrderFit
    outer_deriv: OrderFit
    inner_deriv: OrderFit
    jump: OrderFit


def build_composite(
    lam: float, blowup: BlowupProfile, variant: str = "shifted"
) -> CompositeApproximation:
    """Assemble the composite at coupling lam from a converged core profile.

    Requires lam >= 10 and ln(lam) <= blowup.X so the stretched inner
    window sits inside the core data.
    """
    if lam < 10.0:
        raise ValueError(f"composite needs lam >= 10, got {lam}")
    if variant not in ("leading", "shifted"):
        raise ValueError(f"variant must be 'leading' or 'shifted', got {variant!r}")
    match_point = math.log(lam) * lam**-0.25
    if math.log(lam) > blowup.X * (1.0 + 1e-12):
        raise ValueError(
            f"inner window needs X >= ln(lam) = {math.log(lam):.2f}, "
            f"blow-up data has X = {blowup.X}"
        )
    xi = blowup.kappa / PSI0 * lam**-0.25 if variant == "shifted" else 0.0
    return CompositeApproximation(
        lam=lam, xi=xi, match_point=match_point, variant=variant, blowup=blowup
    )


def _crossing_point(grid: Grid, v1: np.ndarray, v2: np.ndarray) -> float:
    d = v1 - v2
    idx = int(np.searchsorted(d > 0.0, True))
    if idx <= 0 or idx >= d.shape[0]:
        raise ValueError("components do not cross inside the domain")
    z0, z1 = grid.nodes[idx - 1], grid.nodes[idx]
    f0, f1 = d[idx - 1], d[idx]
    return float(z0 - f0 * (z1 - z0) / (f1 - f0))


def measure_errors(
    sol: HeteroclinicSolution,
    approx: CompositeApproximation,
) -> ErrorReport:
    """Region-wise deviations of sol from approx on sol's own grid.

    Coordinates are recentered on the v1 = v2 crossing of the solution, so
    the report is unchanged by a global translation. Each component's
    outer error is taken on its own saturation side, matching the regions
    where the expansion states uniform bounds; the weighted sup region is
    capped at |z| = _WEIGHT_BUDGET / _C_WEIGHT (see the constants' notes).
    """
    if sol.lam != approx.lam:
        raise ValueError(
            f"solution lam {sol.lam} does not match composite lam {approx.lam}"
        )
    zeta = sol.grid.nodes - _crossing_point(sol.grid, sol.v1, sol.v2)
    m = approx.match_point
    inner = np.abs(zeta) <= m
    if int(np.count_nonzero(inner)) < 16:
        raise ValueError("solution grid does not resolve the inner window")
    cap = _WEIGHT_BUDGET / _C_WEIGHT
    right = (zeta > m) & (zeta <= cap)
    left = (zeta < -m) & (zeta >= -cap)

    a1, a2 = approx.values(zeta)
    d1, d2 = approx.derivatives(zeta)
    e1 = np.abs(sol.v1 - a1)
    e2 = np.abs(sol.v2 - a2)
    g1 = np.abs(sol.dv1 - d1)
    g2 = np.abs(sol.dv2 - d2)

    wexp = np.exp(_C_WEIGHT * np.abs(zeta))
    deriv_scale = np.abs(zeta) + approx.lam**-0.25
    outer_sup = max(
        float(np.max(e1[right] * wexp[right])),
        float(np.max(e2[left] * wexp[left])),
    )
    outer_deriv = max(
        float(np.max(g1[right] * wexp[right] / deriv_scale[right])),
        float(np.max(g2[left] * wexp[left] / deriv_scale[left])),
    )
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
    order is fitted on the core sub-window values (clean lam^{-3/4} and
    lam^{-1/2} scales); full-window values are reported but not fitted.
    """
    reports = list(reports)
    lams = [r.lam for r in reports]
    if len(set(lams)) < 4:
        raise ValueError("need at least 4 distinct couplings")
    if max(lams) < 1000.0 * min(lams):
        raise ValueError("couplings must span at least 3 decades")

    def fit(field: str) -> OrderFit:
        return fit_loglog([(r.lam, getattr(r, field)) for r in reports])

    return ErrorOrders(
        outer=fit("outer_sup_weighted"),
        inner=fit("inner_sup_core"),
        outer_deriv=fit("outer_deriv_weighted"),
        inner_deriv=fit("inner_deriv_core"),
        jump=fit("jump"),
    )


@lru_cache(maxsize=1)
def _default_kappa() -> float:
    return solve_blowup().kappa


def shift_estimate(sol: HeteroclinicSolution, kappa: float | None = None) -> float:
    """Best-fit outer shift: argmin over xi of the sup deviation between
    v1 and U1(. + xi) on z >= match_point.

    The bracket is [0, 4*kappa/psi0*lam^{-1/4}] around the predicted value
    kappa/psi0*lam^{-1/4}; a minimizer pinned at either bracket edge means
    the shift law does not describe the data and raises RuntimeError.
    kappa defaults to the core profile's computed offset.
    """
    if sol.lam < 100.0:
        raise ValueError(f"shift estimate needs lam >= 100, got {sol.lam}")
    if kappa is None:
        kappa = _default_kappa()
    match = math.log(sol.lam) * sol.lam**-0.25
    region = sol.grid.nodes >= match
    z = sol.grid.nodes[region]
    v = sol.v1[region]
    hi = 4.0 * kappa / PSI0 * sol.lam**-0.25

    def objective(xi: float) -> float:
        return float(np.max(np.abs(v - outer_value(1, z + xi))))

    xi_hat, _ = golden_minimize(objective, 0.0, hi, tol=1e-6 * hi)
    if xi_hat < 1e-3 * hi or xi_hat > (1.0 - 1e-3) * hi:
        raise RuntimeError(
            f"shift minimizer at bracket edge: {xi_hat:.3e} in [0, {hi:.3e}]"
        )
    return xi_hat
