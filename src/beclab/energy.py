"""Interface tension and its large-coupling expansion.

The tension is the minimal energy

    sigma = integral of sum_i [ (v_i')^2/2 + (1 - v_i^2)^2/4 ]
            + (lam/2) v1^2 v2^2 - 1/4  dz,

renormalized so the limit states contribute nothing. With the pointwise
first integral H of heteroclinic.hamiltonian_values the integrand is
(v1')^2 + (v2')^2 - H - 1/4, and conservation of H = -1/4 along solutions
collapses it to the gradient form (v1')^2 + (v2')^2. The two forms
therefore agree exactly on true solutions; their numerical difference is
an a-posteriori quality indicator, and a deliberately perturbed field
breaks the identity at the 1e-3 level.

For large coupling the tension expands as

    sigma = 2*sqrt(2)/3 + 2 lam^{-1/4} I1 + higher order,

where 2*sqrt(2)/3 is the cost of the two decoupled half-walls (v1's
front U on z > 0 and v2's mirror, so twice one half-wall) and
I1 = integral of V1' (V1' - psi0) dx < 0 is the (negative) correction
carried by the core profile.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .calculus import quadrature
from .grids import make_grid
from .heteroclinic import HeteroclinicSolution, hamiltonian_values, sigma_gradient_form
from .profiles import PSI0, BlowupProfile, outer_derivative

__all__ = [
    "LEADING_TENSION",
    "EnergyReport",
    "sigma_full_form",
    "blowup_energy_coefficient",
    "expansion_residual",
    "partition_constant",
]

# Tension of two decoupled half-walls: 2 * integral_0^inf (U')^2.
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


def sigma_full_form(sol: HeteroclinicSolution) -> float:
    """Tension from the full energy density (v1')^2 + (v2')^2 - H - 1/4.

    Equals the gradient form on converged solutions (first-integral
    conservation); the difference certifies solution quality.
    """
    grad = sol.dv1**2 + sol.dv2**2
    h = hamiltonian_values(sol.v1, sol.v2, sol.dv1, sol.dv2, sol.lam)
    return quadrature(grad - h - 0.25, sol.grid)


def blowup_energy_coefficient(blowup: BlowupProfile) -> float:
    """First-order tension coefficient I1 = integral of V1'(V1' - psi0).

    The integrand decays like a Gaussian beyond the core, so truncation
    to [-X, X] is far below the quadrature error.
    """
    return quadrature(blowup.dV1 * (blowup.dV1 - PSI0), blowup.grid)


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
    """Two half-walls from the closed-form front: twice the integral of
    (U')^2 on [0, 40] over 4097 uniform nodes; within 1e-8 of
    2*sqrt(2)/3."""
    half = make_grid(0.0, 40.0, 4097)
    return 2.0 * quadrature(outer_derivative(half.nodes) ** 2, half)
