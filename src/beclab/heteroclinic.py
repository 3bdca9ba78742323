"""Heteroclinic interface solutions of the coupled segregation system.

The system

    -v1'' + v1^3 - v1 + lam*v2^2*v1 = 0
    -v2'' + v2^3 - v2 + lam*v1^2*v2 = 0

connects (0, 1) at z = -inf to (1, 0) at z = +inf for every coupling
lam > 1. At lam = 3 the branch is explicit: v1 = (1 + tanh(z/sqrt(2)))/2,
v2 = 1 - v1. The solver works on a truncated symmetric interval [-L, L]
with exact limit Dirichlet data; truncation error is exponentially small
in L and is absorbed by the grid-convergence tolerances.

Discretisation is the flux form of the second difference on a sinh-graded
mesh whose fine region tracks the interface core (|z| of order
(ln lam)*lam^{-1/4}); rows scale like 1/h so the evaluation rounding floor
stays well below the Newton tolerance even at lam = 1e6 where the center
spacing is ~8e-5.

Strict pointwise properties (positivity, containment in (0,1), strict
monotonicity, v1^2+v2^2 < 1) hold for the continuum solution, but at
large lam the discrete fields saturate to the limit states within machine
precision over most of the domain. Checks are therefore strict only where
the field is numerically distinguishable from the limit state and relaxed
to closure elsewhere; see _SAT_EPS below.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .banded import BandedMatrix
from .calculus import quadrature, resample
from .grids import (
    Graded,
    Grid,
    Uniform,
    differentiate,
    beta_for_center_spacing,
    beta_for_half_window,
    flux_stencil,
    make_grid,
    ratio_from_beta,
)
from .newton import NonConvergenceError, SingularJacobianError, newton_solve

__all__ = [
    "FieldPair",
    "SolutionFlags",
    "HeteroclinicSolution",
    "QualitativeReport",
    "ContinuationPolicy",
    "StepRecord",
    "TraceEntry",
    "ContinuationTrace",
    "StepUnderflow",
    "SignViolationError",
    "RescaleResult",
    "explicit_lambda3",
    "explicit_lambda3_derivative",
    "default_domain_halfwidth",
    "default_grid",
    "solve_heteroclinic",
    "refine_solution",
    "continue_in_lambda",
    "hamiltonian_values",
    "hamiltonian_along",
    "qualitative_checks",
    "interface_width",
    "rescale_general",
]

# Values closer than this to a limit state (0 or 1) are treated as
# saturated: strict inequalities are not certifiable there in floats.
_SAT_EPS = 1e-13

# A component below this magnitude sits inside the linear-solve noise
# floor; log-envelope fits must not consume such nodes.
_TAIL_FLOOR = 1e-13

# Hard error threshold for genuine sign violations after convergence.
_SIGN_FLOOR = 1e-11


@dataclass(frozen=True)
class FieldPair:
    """Nodal values of both components; the Newton seed container."""

    v1: np.ndarray
    v2: np.ndarray

    def __post_init__(self):
        v1 = np.asarray(self.v1, dtype=float)
        v2 = np.asarray(self.v2, dtype=float)
        if v1.shape != v2.shape or v1.ndim != 1:
            raise ValueError("FieldPair components must be 1-d arrays of equal length")
        object.__setattr__(self, "v1", v1)
        object.__setattr__(self, "v2", v2)


@dataclass(frozen=True)
class SolutionFlags:
    monotone: bool
    bounded: bool
    symmetric_dev: float
    pinning_dev: float


@dataclass(frozen=True, eq=False)
class HeteroclinicSolution:
    lam: float
    grid: Grid
    v1: np.ndarray
    v2: np.ndarray
    dv1: np.ndarray
    dv2: np.ndarray
    newton_residual: float
    hamiltonian_dev: float
    flags: SolutionFlags

    @property
    def n(self) -> int:
        return self.grid.n

    @property
    def L(self) -> float:
        return float(self.grid.b)


@dataclass(frozen=True)
class QualitativeReport:
    """Diagnostic flags beyond the ones stored on the solution.

    envelope_coeff is the slope of log v2 against sqrt(lam)*z^2 over the
    inner decay window; negative means Gaussian-type decay. It is NaN when
    fewer than 8 window nodes sit above the tail noise floor.
    """

    monotone_v1: bool
    monotone_v2: bool
    half_monotone_consistent: bool
    bounded: bool
    envelope_coeff: float
    envelope_nodes: int
    pinning_dev: float
    symmetric_dev: float


@dataclass(frozen=True)
class ContinuationPolicy:
    """Log-space stepping: multiply lam by initial_step_factor each leg
    (10 steps per decade by default); on failure the log-step is halved
    up to max_halvings times before StepUnderflow."""

    initial_step_factor: float = 10.0**0.1
    max_halvings: int = 8

    def __post_init__(self):
        if self.initial_step_factor <= 1.0:
            raise ValueError("initial_step_factor must exceed 1")
        if self.max_halvings < 0:
            raise ValueError("max_halvings must be >= 0")


@dataclass(frozen=True)
class StepRecord:
    lam_from: float
    lam_to: float
    halvings: int


@dataclass(frozen=True)
class TraceEntry:
    lam: float
    newton_residual: float
    hamiltonian_dev: float
    sigma_lambda: float
    crossing_value: float
    min_component: float


@dataclass(frozen=True)
class ContinuationTrace:
    entries: tuple[TraceEntry, ...]
    steps: tuple[StepRecord, ...]
    solutions: tuple[HeteroclinicSolution, ...]

    def __post_init__(self):
        lams = [e.lam for e in self.entries]
        d = np.diff(lams)
        if len(lams) >= 2 and not (np.all(d > 0.0) or np.all(d < 0.0)):
            raise ValueError("trace lambdas must be strictly monotone")


class StepUnderflow(RuntimeError):
    """Continuation step halved below the policy floor without converging."""

    def __init__(self, at_lambda: float):
        self.at_lambda = at_lambda
        super().__init__(
            f"continuation step underflow at lambda = {at_lambda:.6g}"
        )


class SignViolationError(RuntimeError):
    """Newton converged to an iterate with a component below the sign
    noise floor, off the positive branch."""


@dataclass(frozen=True)
class RescaleResult:
    valid: bool
    canonical_lambda: float
    scaling: tuple[float, float, float, float]


def explicit_lambda3(z):
    """Closed-form branch at lam = 3: v1 = (1 + tanh(z/sqrt(2)))/2 and
    v2 = 1 - v1."""
    z_arr = np.asarray(z, dtype=float)
    v1 = 0.5 * (1.0 + np.tanh(z_arr / math.sqrt(2.0)))
    v2 = 1.0 - v1
    if np.ndim(z) == 0:
        return float(v1), float(v2)
    return v1, v2


def explicit_lambda3_derivative(z):
    """Analytic derivative of the lam = 3 branch: dv1 = sech^2(z/sqrt(2)) /
    (2*sqrt(2)), dv2 = -dv1."""
    z_arr = np.asarray(z, dtype=float)
    dv1 = 1.0 / (2.0 * math.sqrt(2.0) * np.cosh(z_arr / math.sqrt(2.0)) ** 2)
    if np.ndim(z) == 0:
        return float(dv1), float(-dv1)
    return dv1, -dv1


def default_domain_halfwidth(lam: float) -> float:
    """Truncation half-width: the vanishing component decays at rate
    sqrt(lam-1) (capped at the saturating component's rate sqrt(2)), and
    the core occupies O((ln lam)*lam^{-1/4}); 20 is the global floor."""
    if lam <= 1.0:
        raise ValueError(f"need lam > 1, got {lam}")
    rate = math.sqrt(min(2.0, lam - 1.0))
    return max(20.0, 12.0 / rate + 10.0 * math.log(lam) * lam**-0.25)


def default_grid(lam: float, L: float, n: int) -> Grid:
    """Sinh-graded mesh on [-L, L]: at least half the nodes inside
    |z| <= max(4*(ln lam)*lam^{-1/4}, 2) and center spacing at most
    2.5e-3*lam^{-1/4}."""
    half_window = max(4.0 * math.log(lam) * lam**-0.25, 2.0)
    h_center = 2.5e-3 * lam**-0.25
    beta = max(
        beta_for_half_window(L, half_window),
        beta_for_center_spacing(L, n, h_center),
    )
    if beta <= 0.0:
        return make_grid(-L, L, n, Uniform())
    return make_grid(-L, L, n, Graded(center=0.0, ratio=ratio_from_beta(beta, n)))


def _interior_residual_jacobian(grid: Grid, lam: float):
    """Residual and Jacobian callbacks on interior unknowns, interleaved
    u = [v1_1, v2_1, v1_2, v2_2, ...] (nodes 1..n-2).

    Dirichlet limits v1(-L)=0, v2(-L)=1, v1(L)=1, v2(L)=0 are folded into
    the first and last interior rows. Flux form keeps row magnitudes at
    1/h rather than 1/h^2, so the evaluation rounding floor stays below
    the Newton tolerance on the finest meshes (see module docstring).
    """
    n = grid.n
    st = flux_stencil(grid)
    w = st.w
    m = n - 2

    def full_fields(u: np.ndarray):
        V1 = np.empty(n)
        V2 = np.empty(n)
        V1[0], V1[-1] = 0.0, 1.0
        V2[0], V2[-1] = 1.0, 0.0
        V1[1:-1] = u[0::2]
        V2[1:-1] = u[1::2]
        return V1, V2

    def residual(u: np.ndarray) -> np.ndarray:
        V1, V2 = full_fields(u)
        r = np.empty(2 * m)
        c1, c2 = V1[1:-1], V2[1:-1]
        r[0::2] = st.apply(V1) - w * (c1**3 - c1 + lam * c2**2 * c1)
        r[1::2] = st.apply(V2) - w * (c2**3 - c2 + lam * c1**2 * c2)
        return r

    def jacobian(u: np.ndarray) -> BandedMatrix:
        c1, c2 = u[0::2], u[1::2]
        jac = BandedMatrix.zeros(2 * m, 2)
        d1 = st.mid - w * (3.0 * c1**2 - 1.0 + lam * c2**2)
        d2 = st.mid - w * (3.0 * c2**2 - 1.0 + lam * c1**2)
        st.fill_pair_rows(jac, 0, d1, d2, -2.0 * lam * w * c1 * c2)
        return jac

    return residual, jacobian, full_fields


def _interior_state(v1: np.ndarray, v2: np.ndarray) -> np.ndarray:
    """Interleaved interior unknowns of _interior_residual_jacobian."""
    u = np.empty(2 * (v1.shape[0] - 2))
    u[0::2] = v1[1:-1]
    u[1::2] = v2[1:-1]
    return u


def _monotone_flag(v: np.ndarray, increasing: bool) -> bool:
    # Pairs with both values inside a limit-state band (below _SAT_EPS or
    # above 1 - _SAT_EPS) are skipped: the true tail there sits under the
    # linear-solve noise floor, so node ordering is not certifiable.
    d = np.diff(v) if increasing else -np.diff(v)
    hi = np.maximum(v[:-1], v[1:])
    lo = np.minimum(v[:-1], v[1:])
    active = (hi >= _SAT_EPS) & (lo <= 1.0 - _SAT_EPS)
    return bool(np.all(d[active] > 0.0))


def _bounded_flag(v1: np.ndarray, v2: np.ndarray) -> bool:
    if np.any(v1 < -_SAT_EPS) or np.any(v2 < -_SAT_EPS):
        return False
    if np.any(v1 > 1.0 + _SAT_EPS) or np.any(v2 > 1.0 + _SAT_EPS):
        return False
    s = v1**2 + v2**2
    if np.any(s > 1.0 + _SAT_EPS):
        return False
    active = np.minimum(v1, v2) > _SAT_EPS
    return bool(np.all(s[active] < 1.0))


def _symmetric_dev(v1: np.ndarray, v2: np.ndarray) -> float:
    # grid is symmetric about 0, so v2(-z) is v2 reversed
    return float(np.max(np.abs(v1 - v2[::-1])))


def _value_at_zero(grid: Grid, v: np.ndarray) -> float:
    mid = grid.n // 2
    if abs(float(grid.nodes[mid])) <= 1e-14 * grid.b:
        return float(v[mid])
    return float(resample(grid.nodes, v, 0.0))


def hamiltonian_values(v1, v2, dv1, dv2, lam: float) -> np.ndarray:
    """Pointwise H = sum_i [dv_i^2/2 - (1-v_i^2)^2/4] - (lam/2)*v1^2*v2^2;
    equals -1/4 along exact solutions."""
    return (
        0.5 * (np.asarray(dv1) ** 2 + np.asarray(dv2) ** 2)
        - 0.25 * (1.0 - np.asarray(v1) ** 2) ** 2
        - 0.25 * (1.0 - np.asarray(v2) ** 2) ** 2
        - 0.5 * lam * (np.asarray(v1) * np.asarray(v2)) ** 2
    )


def hamiltonian_along(sol: HeteroclinicSolution):
    """Nodal Hamiltonian values and the maximal deviation from -1/4."""
    values = hamiltonian_values(sol.v1, sol.v2, sol.dv1, sol.dv2, sol.lam)
    return values, float(np.max(np.abs(values + 0.25)))


def solve_heteroclinic(
    lam: float,
    L: float | None = None,
    n: int = 8193,
    init: FieldPair | None = None,
) -> HeteroclinicSolution:
    """Damped-Newton collocation solve of the interface system at coupling
    lam on [-L, L] with exact limit Dirichlet data.

    When init is omitted the explicit lam=3 branch seeds the iteration;
    that works for couplings near 3 while large couplings should be
    reached through continue_in_lambda. A converged iterate whose interior
    dips below the sign noise floor raises SignViolationError (the branch
    of interest is positive).
    """
    if not lam > 1.0:
        raise ValueError(f"coupling must exceed 1, got lam={lam}")
    if L is None:
        L = default_domain_halfwidth(lam)
    if L < 20.0:
        raise ValueError(f"need L >= 20, got {L}")
    if n < 513:
        raise ValueError(f"need n >= 513, got {n}")
    grid = default_grid(lam, L, n)
    x = grid.nodes

    if init is None:
        s1, s2 = explicit_lambda3(x)
        init = FieldPair(v1=s1, v2=s2)
    if init.v1.shape[0] != n:
        raise ValueError(f"init has {init.v1.shape[0]} nodes, grid has {n}")
    if np.any(init.v1 < 0.0) or np.any(init.v2 < 0.0):
        raise ValueError("init must be nonnegative")

    residual, jacobian, full_fields = _interior_residual_jacobian(grid, lam)
    u0 = _interior_state(init.v1, init.v2)
    u, _, final_res = newton_solve(residual, jacobian, u0)
    v1, v2 = full_fields(u)

    if float(np.min(v1)) < -_SIGN_FLOOR or float(np.min(v2)) < -_SIGN_FLOOR:
        raise SignViolationError(
            f"component sign violation after convergence at lam={lam:.6g}"
        )
    dv1 = differentiate(v1, grid)
    dv2 = differentiate(v2, grid)
    ham = hamiltonian_values(v1, v2, dv1, dv2, lam)
    ham_dev = float(np.max(np.abs(ham + 0.25)))
    flags = SolutionFlags(
        monotone=_monotone_flag(v1, True) and _monotone_flag(v2, False),
        bounded=_bounded_flag(v1, v2),
        symmetric_dev=_symmetric_dev(v1, v2),
        pinning_dev=abs(_value_at_zero(grid, v1) - _value_at_zero(grid, v2)),
    )
    for arr in (v1, v2, dv1, dv2):
        arr.flags.writeable = False
    return HeteroclinicSolution(
        lam=lam,
        grid=grid,
        v1=v1,
        v2=v2,
        dv1=dv1,
        dv2=dv2,
        newton_residual=final_res,
        hamiltonian_dev=ham_dev,
        flags=flags,
    )


def _seed_on_grid(z: np.ndarray, v1: np.ndarray, v2: np.ndarray, grid: Grid) -> FieldPair:
    # cubic resampling of node samples, constant extension beyond the
    # source domain, clamp into [0, 1], exact limit values at both ends
    at = np.clip(grid.nodes, z[0], z[-1])
    v1 = np.clip(resample(z, v1, at), 0.0, 1.0)
    v2 = np.clip(resample(z, v2, at), 0.0, 1.0)
    v1[0], v1[-1] = 0.0, 1.0
    v2[0], v2[-1] = 1.0, 0.0
    return FieldPair(v1=v1, v2=v2)


def refine_solution(
    sol: HeteroclinicSolution,
    L: float | None = None,
    n: int | None = None,
) -> HeteroclinicSolution:
    """Re-solve at the same coupling on a wider domain and/or finer mesh,
    seeding Newton from the given solution."""
    new_L = sol.L if L is None else float(L)
    new_n = sol.n if n is None else int(n)
    grid = default_grid(sol.lam, new_L, new_n)
    seed = _seed_on_grid(sol.grid.nodes, sol.v1, sol.v2, grid)
    return solve_heteroclinic(sol.lam, L=new_L, n=new_n, init=seed)


def _trace_entry(sol: HeteroclinicSolution) -> TraceEntry:
    sigma = quadrature(sol.dv1**2 + sol.dv2**2, sol.grid)
    return TraceEntry(
        lam=sol.lam,
        newton_residual=sol.newton_residual,
        hamiltonian_dev=sol.hamiltonian_dev,
        sigma_lambda=sigma,
        crossing_value=_value_at_zero(sol.grid, sol.v1),
        min_component=float(np.min(np.maximum(sol.v1, sol.v2))),
    )


def continue_in_lambda(
    start: HeteroclinicSolution,
    targets,
    policy: ContinuationPolicy = ContinuationPolicy(),
    n: int | None = None,
) -> ContinuationTrace:
    """Walk the branch from start through the targets (monotone upward or
    downward in lam), reseeding each solve from the previous solution
    resampled onto the target grid.

    Steps are log-uniform with ratio policy.initial_step_factor; a solve
    that fails numerically (NonConvergenceError, SingularJacobianError,
    SignViolationError) halves the log-step (geometric midpoint) up to
    policy.max_halvings times, then raises StepUnderflow. Any other error
    propagates. The trace records every accepted solve including the
    start.
    """
    targets = [float(t) for t in targets]
    if not targets:
        raise ValueError("targets must be nonempty")
    lams = [start.lam] + targets
    d = np.diff(lams)
    upward = bool(np.all(d > 0.0))
    if not (upward or np.all(d < 0.0)):
        raise ValueError("targets must be strictly monotone away from start.lam")
    if min(targets) <= 1.0:
        raise ValueError("couplings must stay above 1")
    if n is None:
        n = start.grid.n

    log_step = math.log(policy.initial_step_factor)
    if not upward:
        log_step = -log_step
    entries = [_trace_entry(start)]
    steps: list[StepRecord] = []
    solutions = [start]
    current = start
    for target in targets:
        while current.lam != target:
            step = log_step
            halvings = 0
            while True:
                proposal = math.exp(math.log(current.lam) + step)
                if (upward and proposal > target) or (not upward and proposal < target):
                    proposal = target
                grid = default_grid(proposal, default_domain_halfwidth(proposal), n)
                seed = _seed_on_grid(current.grid.nodes, current.v1, current.v2, grid)
                try:
                    sol = solve_heteroclinic(proposal, L=float(grid.b), n=n, init=seed)
                except (NonConvergenceError, SingularJacobianError, SignViolationError):
                    halvings += 1
                    if halvings > policy.max_halvings:
                        raise StepUnderflow(at_lambda=current.lam) from None
                    step *= 0.5
                    continue
                steps.append(
                    StepRecord(lam_from=current.lam, lam_to=proposal, halvings=halvings)
                )
                current = sol
                break
            entries.append(_trace_entry(current))
            solutions.append(current)
    return ContinuationTrace(
        entries=tuple(entries), steps=tuple(steps), solutions=tuple(solutions)
    )


def qualitative_checks(sol: HeteroclinicSolution) -> QualitativeReport:
    """Monotonicity of both components, the half-monotonicity implication,
    containment, the Gaussian-envelope coefficient of the vanishing
    component over the inner decay window, and the pinning deviation."""
    mono1 = _monotone_flag(sol.v1, True)
    mono2 = _monotone_flag(sol.v2, False)
    lam = sol.lam
    z = sol.grid.nodes
    w_lo = lam**-0.25
    w_hi = math.log(lam) * lam**-0.25
    if w_hi <= w_lo:
        # window degenerates for lam <= e; use a 1-wide fallback so the
        # diagnostic stays defined on downward continuations
        w_hi = w_lo + 1.0
    window = (z >= w_lo) & (z <= w_hi) & (sol.v2 > _TAIL_FLOOR)
    count = int(np.count_nonzero(window))
    if count >= 8:
        s = math.sqrt(lam) * z[window] ** 2
        coeff = float(np.polyfit(s, np.log(sol.v2[window]), 1)[0])
    else:
        coeff = math.nan
    return QualitativeReport(
        monotone_v1=mono1,
        monotone_v2=mono2,
        half_monotone_consistent=(not mono1) or mono2,
        bounded=_bounded_flag(sol.v1, sol.v2),
        envelope_coeff=coeff,
        envelope_nodes=count,
        pinning_dev=abs(
            _value_at_zero(sol.grid, sol.v1) - _value_at_zero(sol.grid, sol.v2)
        ),
        symmetric_dev=_symmetric_dev(sol.v1, sol.v2),
    )


def interface_width(sol: HeteroclinicSolution) -> float:
    """Distance between the interpolated v1 = 0.1 and v1 = 0.9 crossings."""
    v = sol.v1
    z = sol.grid.nodes

    def crossing(level: float) -> float:
        idx = int(np.searchsorted(v, level))
        if idx <= 0 or idx >= v.shape[0]:
            raise ValueError(f"level {level} not crossed")
        z0, z1 = z[idx - 1], z[idx]
        f0, f1 = v[idx - 1], v[idx]
        return float(z0 + (level - f0) * (z1 - z0) / (f1 - f0))

    return crossing(0.9) - crossing(0.1)


def rescale_general(
    g1: float, g2: float, lambda1: float, lambda2: float, nu: float, Lambda: float
) -> RescaleResult:
    """Reduce the general-constant system to canonical form.

    A solution pair of the canonical system yields
    sqrt(g1/lambda1)*v1(sqrt(1/lambda1)*z), sqrt(g2/lambda2)*v2(sqrt(nu/lambda2)*z)
    provided lambda1^2/g1 = lambda2^2/g2 (Hamiltonian compatibility of the
    limit states); the coupling maps to lambda2*Lambda/(lambda1*g2).
    Incompatibility is reported, not raised.
    """
    for name, value in (
        ("g1", g1),
        ("g2", g2),
        ("lambda1", lambda1),
        ("lambda2", lambda2),
        ("nu", nu),
        ("Lambda", Lambda),
    ):
        if not value > 0.0:
            raise ValueError(f"{name} must be positive, got {value}")
    q1 = lambda1**2 / g1
    q2 = lambda2**2 / g2
    valid = abs(q1 - q2) <= 1e-12 * max(abs(q1), abs(q2))
    return RescaleResult(
        valid=valid,
        canonical_lambda=lambda2 * Lambda / (lambda1 * g2),
        scaling=(
            math.sqrt(g1 / lambda1),
            math.sqrt(1.0 / lambda1),
            math.sqrt(g2 / lambda2),
            math.sqrt(nu / lambda2),
        ),
    )
