"""Interface tension and its large-coupling expansion.

The tension is the minimal energy

    sigma = integral of sum_i [ (v_i')^2/2 + (1 - v_i^2)^2/4 ]
            + (lam/2) v1^2 v2^2 - 1/4  dz,

renormalized so the limit states contribute nothing. Conservation of the
first integral H = -1/4 along solutions collapses the integrand to
(v1')^2 + (v2')^2, so the gradient form and the full form agree exactly
on true solutions; their numerical difference is an a-posteriori quality
indicator, and a deliberately perturbed field breaks the identity at the
1e-3 level.

For large coupling the tension expands as

    sigma = 2*sqrt(2)/3 + 2 lam^{-1/4} I1 + higher order,

where 2*sqrt(2)/3 is the cost of the two decoupled half-walls and
I1 = integral of V1' (V1' - psi0) dx < 0 is the (negative) correction
carried by the core profile.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .calculus import quadrature
from .grids import make_grid
from .heteroclinic import HeteroclinicSolution
from .profiles import BlowupProfile, outer_derivative

__all__ = [
    "LEADING_TENSION",
    "EnergyReport",
    "sigma_gradient_form",
    "sigma_full_form",
    "full_form_integrand",
    "blowup_energy_coefficient",
    "expansion_residual",
    "partition_constant",
]

# Tension of two decoupled half-walls: 2 * integral_0^inf (U1')^2.
LEADING_TENSION = 2.0 * math.sqrt(2.0) / 3.0


@dataclass(frozen=True)
class EnergyReport:
    """Tension expansion bookkeeping at one coupling value.

    first_order = leading + 2 lam^{-1/4} I1 and residual is the gap
    sigma_gradient - first_order, the empirical remainder of the
    expansion.
    """

    lam: float
    sigma_gradient: float
    sigma_full: float
    leading: float
    I1: float
    first_order: float
    residual: float

    def __post_init__(self) -> None:
        for name in ("sigma_gradient", "sigma_full"):
            value = getattr(self, name)
            if not math.isfinite(value) or value <= 0.0:
                raise ValueError(f"{name} must be finite and positive, got {value}")
        if not self.I1 < 0.0:
            raise ValueError(f"I1 must be negative, got {self.I1}")
        expected = self.leading + 2.0 * self.lam ** (-0.25) * self.I1
        if abs(self.first_order - expected) > 1e-12 * (1.0 + abs(expected)):
            raise ValueError("first_order inconsistent with leading and I1")


def sigma_gradient_form(sol: HeteroclinicSolution) -> float:
    """Tension in gradient form: integral of (v1')^2 + (v2')^2."""
    return quadrature(sol.dv1**2 + sol.dv2**2, sol.grid)


def full_form_integrand(
    v1: np.ndarray, v2: np.ndarray, dv1: np.ndarray, dv2: np.ndarray, lam: float
) -> np.ndarray:
    """Renormalized energy density; vanishes on the limit states."""
    return (
        0.5 * (dv1**2 + dv2**2)
        + 0.25 * ((1.0 - v1**2) ** 2 + (1.0 - v2**2) ** 2)
        + 0.5 * lam * v1**2 * v2**2
        - 0.25
    )


def sigma_full_form(sol: HeteroclinicSolution) -> float:
    """Tension from the full energy density.

    Equals the gradient form on converged solutions (first-integral
    conservation); the difference certifies solution quality.
    """
    density = full_form_integrand(sol.v1, sol.v2, sol.dv1, sol.dv2, sol.lam)
    return quadrature(density, sol.grid)


def blowup_energy_coefficient(blowup: BlowupProfile) -> float:
    """First-order tension coefficient I1 = integral of V1'(V1' - psi0).

    The integrand decays like a Gaussian beyond the core, so truncation
    to [-X, X] is far below the quadrature error.
    """
    return quadrature(blowup.dV1 * (blowup.dV1 - blowup.psi0), blowup.grid)


def expansion_residual(sol: HeteroclinicSolution, blowup: BlowupProfile) -> EnergyReport:
    """Assemble the tension expansion report at the solution's coupling."""
    i1 = blowup_energy_coefficient(blowup)
    sigma_g = sigma_gradient_form(sol)
    sigma_f = sigma_full_form(sol)
    first_order = LEADING_TENSION + 2.0 * sol.lam ** (-0.25) * i1
    return EnergyReport(
        lam=sol.lam,
        sigma_gradient=sigma_g,
        sigma_full=sigma_f,
        leading=LEADING_TENSION,
        I1=i1,
        first_order=first_order,
        residual=sigma_g - first_order,
    )


def partition_constant() -> float:
    """Two half-wall gradient integrals from the closed-form profiles:
    (U1')^2 on [0, 40] plus (U2')^2 on [-40, 0], on 4097 uniform nodes
    each; within 1e-8 of 2*sqrt(2)/3."""
    right = make_grid(0.0, 40.0, 4097)
    left = make_grid(-40.0, 0.0, 4097)
    total = quadrature(outer_derivative(1, right.nodes) ** 2, right)
    total += quadrature(outer_derivative(2, left.nodes) ** 2, left)
    return total
