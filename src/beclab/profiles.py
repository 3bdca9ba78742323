"""Closed-form outer profiles and the numerically solved core profile.

Away from the interface each component follows the scalar front equation
u'' + u - u^3 = 0, whose front through 0 is U(z) = tanh(z/sqrt(2)) on the
whole line, with slope psi0 = 1/sqrt(2) at its zero: v1 saturates along
U(z) for z > 0 and v2 along its mirror U(-z) for z < 0. Inside the
interface, stretching z by lam^{1/4} and scaling amplitudes by lam^{-1/4}
removes the coupling constant and leaves the core system

    V1'' = V2^2 * V1,    V2'' = V1^2 * V2,

whose relevant entire solution grows linearly at the far ends:
V1(x) = psi0*x + kappa + (remainder decaying like exp(-c*x^2)), with the
mirror symmetry V1(-x) = V2(x) and the first integral
(V1')^2 + (V2')^2 - V1^2*V2^2 = psi0^2. The offset kappa > 0 sets the
first-order interface shift; it has no closed form and is computed here by
collocation (an independent shooting computation lives in `shooting`).

Boundary conditions pin the two-parameter scaling/translation family: the
far-field slope conditions V2'(-X) = -psi0, V1'(+X) = +psi0 fix the scale,
and the Dirichlet rows V1(-X) = 0, V2(+X) = 0 fix the translation up to a
Gaussian-small remainder. Mirror symmetry is then a measured outcome, not
an imposed constraint. A BlowupProfile holds the fields on their mesh and
kappa; its slope is the constant PSI0 and its half-width X the end node.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .banded import BandedMatrix
from .calculus import _spline
from .grids import (
    Grid,
    differentiate,
    edge_first_weights,
    flux_stencil,
    make_grid,
    ratio_from_beta,
)
from .newton import newton_solve

__all__ = [
    "PSI0",
    "CORE_N",
    "core_n",
    "outer_value",
    "outer_derivative",
    "BlowupProfile",
    "solve_blowup",
    "extract_kappa",
]

# Slope of the outer front at its zero: psi0 = 1/sqrt(2).
PSI0 = 1.0 / math.sqrt(2.0)

# Node count of the core mesh up to X = 37: the blowup command's default.
CORE_N = 4097

# Default sinh-map strength for the core grid; resolves the corner region
# near x=0 where curvature peaks while keeping far-field cells coarse.
_CORE_BETA = 6.0

# Noise floor for sign/monotonicity checks: far-tail values sit many orders
# below the linear-solve roundoff, so strict inequalities are only
# certifiable above this resolution.
_SIGN_FLOOR = 1e-11


def core_n(X: float) -> int:
    """Node count of the core mesh on [-X, X]: CORE_N up to X = 37, and
    the intervals doubled per doubling of X beyond. The first-integral
    deviation grows like X^2 at a fixed node count (9.1e-7 at X = 37 on
    4097 nodes, against the 1e-6 check) and falls fourfold per doubling of
    the intervals, so this holds it below 1e-6 (9.1e-7 at X = 74)."""
    doublings = math.ceil(math.log2(X / 37.0)) if X > 37.0 else 0
    return (CORE_N - 1) * 2**doublings + 1


def outer_value(z) -> np.ndarray:
    """The outer front U(z) = tanh(z/sqrt(2)) at the points z: odd, 0 at 0."""
    return np.tanh(np.asarray(z, dtype=float) / math.sqrt(2.0))


def outer_derivative(z) -> np.ndarray:
    """U'(z) = sech^2(z/sqrt(2))/sqrt(2) at the points z: even, psi0 at 0."""
    return 1.0 / (math.sqrt(2.0) * np.cosh(np.asarray(z, dtype=float) / math.sqrt(2.0)) ** 2)


@dataclass(frozen=True, eq=False)
class BlowupProfile:
    grid: Grid
    V1: np.ndarray
    V2: np.ndarray
    dV1: np.ndarray
    dV2: np.ndarray
    kappa: float
    residual: float
    hamiltonian_dev: float

    @property
    def X(self) -> float:
        """Half-width of the core domain: the mesh's end node."""
        return self.grid.b

    @cached_property
    def value_splines(self):
        """Evaluators of calculus.resample's piecewise cubics through V1
        and V2, built on first use and kept: the composite reads them on
        every evaluation."""
        return _spline(self.grid.nodes, self.V1), _spline(self.grid.nodes, self.V2)

    @cached_property
    def derivative_splines(self):
        """The same for dV1 and dV2."""
        return _spline(self.grid.nodes, self.dV1), _spline(self.grid.nodes, self.dV2)


def _hamiltonian_dev(V1, V2, dV1, dV2, psi0_sq: float) -> float:
    h = dV1**2 + dV2**2 - (V1 * V2) ** 2
    return float(np.max(np.abs(h - psi0_sq)))


def _core_residual_jacobian(grid: Grid):
    """Residual and Jacobian callbacks for the core system on `grid`.

    Unknowns are interleaved node-wise, u = [V1_0, V2_0, V1_1, V2_1, ...];
    the two boundary rows at each end (Dirichlet zero for the decaying
    component, one-sided slope for the growing one) push the bandwidth to 4.

    Interior rows use the flux form (difference of one-sided slopes minus
    the cell-weighted source), equivalent to the second-difference stencil
    times the cell weight. The raw stencil rows scale like 1/h^2 and their
    evaluation roundoff would sit above the Newton tolerance on fine
    meshes; the flux form keeps the rounding floor near eps/h.
    """
    n = grid.n
    x = grid.nodes
    st = flux_stencil(grid)
    w = st.w
    el = edge_first_weights(x[0], x[1], x[2])
    er = edge_first_weights(x[-1], x[-2], x[-3])

    def residual(u: np.ndarray) -> np.ndarray:
        V1, V2 = u[0::2], u[1::2]
        r = np.empty(2 * n)
        r[2 : 2 * n - 2 : 2] = st.apply(V1) - w * V2[1:-1] ** 2 * V1[1:-1]
        r[3 : 2 * n - 2 : 2] = st.apply(V2) - w * V1[1:-1] ** 2 * V2[1:-1]
        r[0] = V1[0]
        r[1] = el[0] * V2[0] + el[1] * V2[1] + el[2] * V2[2] + PSI0
        r[2 * n - 2] = er[0] * V1[-1] + er[1] * V1[-2] + er[2] * V1[-3] - PSI0
        r[2 * n - 1] = V2[-1]
        return r

    def jacobian(u: np.ndarray) -> BandedMatrix:
        V1, V2 = u[0::2], u[1::2]
        jac = BandedMatrix.zeros(2 * n, 4)
        d1, d2 = st.mid - w * V2[1:-1] ** 2, st.mid - w * V1[1:-1] ** 2
        st.fill_pair_rows(jac, 2, d1, d2, -2.0 * w * V1[1:-1] * V2[1:-1])
        jac.set_entry(0, 0, 1.0)
        jac.set_entry(1, 1, el[0])
        jac.set_entry(1, 3, el[1])
        jac.set_entry(1, 5, el[2])
        m = 2 * n - 2
        jac.set_entry(m, m, er[0])
        jac.set_entry(m, m - 2, er[1])
        jac.set_entry(m, m - 4, er[2])
        jac.set_entry(m + 1, m + 1, 1.0)
        return jac

    return residual, jacobian


def solve_blowup(X: float, n: int) -> BlowupProfile:
    """Solve the core system on [-X, X] by damped Newton collocation.

    Initialisation is the smooth ramp (psi0/2)*(x + sqrt(x^2+1)) and its
    mirror: correct far-field slopes, strictly positive, convex. After
    convergence the profile is validated: positive components (above the
    linear-solve noise floor), strict monotonicity, mirror symmetry within
    1e-6*(1+|x|), and the first-integral deviation within 1e-6.
    """
    if X < 10.0:
        raise ValueError(f"need X >= 10 for a converged far field, got {X}")
    if n < 513:
        raise ValueError(f"need n >= 513, got {n}")
    grid = make_grid(-X, X, n, ratio_from_beta(_CORE_BETA, n))
    x = grid.nodes
    ramp = 0.5 * PSI0 * (x + np.sqrt(x**2 + 1.0))
    init = np.empty(2 * n)
    init[0::2] = ramp
    init[1::2] = 0.5 * PSI0 * (-x + np.sqrt(x**2 + 1.0))
    residual, jacobian = _core_residual_jacobian(grid)
    u, _, final_res = newton_solve(residual, jacobian, init)
    V1, V2 = u[0::2].copy(), u[1::2].copy()

    if float(np.min(V1[1:-1])) < -_SIGN_FLOOR or float(np.min(V2[1:-1])) < -_SIGN_FLOOR:
        raise RuntimeError(
            "negative component after convergence; widen X or refine the mesh"
        )
    if float(np.min(np.diff(V1))) < -_SIGN_FLOOR or float(np.max(np.diff(V2))) > _SIGN_FLOOR:
        raise RuntimeError("core profile lost monotonicity; refine the mesh")
    mirror = np.abs(V1 - V2[::-1]) / (1.0 + np.abs(x))
    mirror_dev = float(np.max(mirror))
    if mirror_dev > 1e-6:
        raise RuntimeError(f"mirror symmetry violated: {mirror_dev:.3e}")

    dV1 = differentiate(V1, grid)
    dV2 = differentiate(V2, grid)
    ham_dev = _hamiltonian_dev(V1, V2, dV1, dV2, PSI0**2)
    if ham_dev > 1e-6:
        raise RuntimeError(
            f"first-integral deviation {ham_dev:.3e} exceeds 1e-6 on the core "
            f"mesh n={n}, X={X:g}; refine the core mesh (n = core_n(X) passes: "
            "4097 up to X = 37, the intervals doubled per doubling of X beyond)"
        )

    for arr in (V1, V2, dV1, dV2):
        arr.flags.writeable = False
    return BlowupProfile(
        grid=grid,
        V1=V1,
        V2=V2,
        dV1=dV1,
        dV2=dV2,
        kappa=extract_kappa(grid, V1),
        residual=final_res,
        hamiltonian_dev=ham_dev,
    )


def extract_kappa(grid: Grid, V1: np.ndarray) -> float:
    """Far-field offset estimate kappa = V1(x) - psi0*x of the core field
    V1 on grid, a mesh of [-X, X], averaged between the right endpoint and
    the node nearest 0.9*X.

    The remainder decays like exp(-c*x^2), so the two window estimates must
    agree far better than discretisation error; a disagreement beyond 1e-6
    signals an unconverged far field and raises ValueError.
    """
    x = grid.nodes
    right = grid.b  # X: make_grid sets the end nodes exactly
    k_end = float(V1[-1]) - PSI0 * float(x[-1])
    j = int(np.argmin(np.abs(x - 0.9 * right)))
    k_win = float(V1[j]) - PSI0 * float(x[j])
    if abs(k_end - k_win) > 1e-6:
        raise ValueError(
            f"far-field window estimates disagree: {k_end:.9f} vs {k_win:.9f}"
        )
    return 0.5 * (k_end + k_win)
