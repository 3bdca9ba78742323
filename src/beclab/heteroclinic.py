"""Heteroclinic interface solutions of the coupled segregation system.

The system

    -v1'' + v1^3 - v1 + lam*v2^2*v1 = 0
    -v2'' + v2^3 - v2 + lam*v1^2*v2 = 0

connects (0, 1) at z = -inf to (1, 0) at z = +inf for every coupling
lam > 1. At lam = 3 the branch is explicit: v1 = (1 + tanh(z/sqrt(2)))/2,
v2 = 1 - v1. The solver works on a truncated symmetric interval [-L, L]
with exact limit Dirichlet data; truncation error is exponentially small
in L and is absorbed by the grid-convergence tolerances. The system
commutes with the swap-reflection (v1, v2)(z) -> (v2, v1)(-z), and Newton
solves only for its mirror-symmetric (even) fields, which removes the
translation freedom the far-field data alone pin only weakly. Newton's
unknowns are v1 at the interior nodes in sector order (_sector): its
residual evaluates the v1 rows alone (v2 is v1 reversed, so the v2 rows
are the v1 rows mirrored), and its Jacobian is written directly in
sector order (_sector_jacobian), straight into the storage its LU factor
owns; it equals the even block MirrorSector.band of the full Jacobian
bit for bit, and the full band is never built. The full residual and
Jacobian of interleaved (v1, v2) unknowns (_interleaved) serve only the
Jacobian hygiene check and the spectrum.

Continuation is nested iteration on a ladder of meshes. Newton's
iteration count does not depend on the mesh once the mesh is fine enough
(Allgower, Bohmer, Potra & Rheinboldt, SIAM J. Numer. Anal. 23, 1986), so
each step from lam to 10*lam climbs on the coarsest mesh of the ladder
(each mesh has a quarter of the intervals of the next, none below 513
nodes), seeded from the previous step's coarsest solution, and each finer
mesh is seeded from the solution just below it at the same coupling
(correct_on_ladder, which also carries any other coarsest solve, such as
one seeded from the matched composite, up the ladder). On every finer
mesh Newton then needs about one iteration, and the requested mesh ends
at the rounding floor. A seed is v1 alone: folded into sector order, it
is the state Newton starts from.

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
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .banded import BandedMatrix, FilledBand
from .calculus import quadrature, resample
from .grids import (
    FluxStencil,
    Grid,
    differentiate,
    beta_for_center_spacing,
    beta_for_half_window,
    flux_stencil,
    make_grid,
    ratio_from_beta,
)
from .newton import NonConvergenceError, SingularJacobianError, newton_solve
from .profiles import outer_value

__all__ = [
    "SolutionFlags",
    "HeteroclinicSolution",
    "StepRecord",
    "TraceEntry",
    "ContinuationTrace",
    "StepUnderflow",
    "SignViolationError",
    "explicit_lambda3",
    "essential_edge",
    "default_domain_halfwidth",
    "default_grid",
    "solve_heteroclinic",
    "mesh_ladder",
    "correct_on_ladder",
    "continue_in_lambda",
    "hamiltonian_values",
    "sigma_gradient_form",
]

# Values closer than this to a limit state (0 or 1) are treated as
# saturated: strict inequalities are not certifiable there in floats.
_SAT_EPS = 1e-13

# Hard error threshold for genuine sign violations after convergence.
_SIGN_FLOOR = 1e-11

# A continuation proposal this close to its target (relative) is the
# target: exp(log(lam) + step) carries a relative rounding error of up to
# about eps*|log lam| (7.2 eps for the decade step 1e6 -> 1e5), so a
# decade step would otherwise land an ulp short and spend one more solve
# on the last ulp.
_SNAP_RTOL = 64.0 * sys.float_info.epsilon

# Continuation multiplies lam by _STEP_FACTOR per step (one decade); a
# failed solve halves the log-step it tried, at most _MAX_HALVINGS times.
_STEP_FACTOR = 10.0
_MAX_HALVINGS = 8

# Fewest mesh nodes solve_heteroclinic accepts, and the coarsest mesh a
# continuation ladder may reach.
_MIN_N = 513


@dataclass(frozen=True)
class SolutionFlags:
    monotone: bool
    bounded: bool


@dataclass(frozen=True, eq=False)
class HeteroclinicSolution:
    """Read-only v1 on an exact mirror mesh; v2 is its mirror, so
    v1(z) = v2(-z) holds by construction. dv1, hamiltonian_dev and flags
    are computed on first read and kept: a solve that only seeds the next
    mesh never pays for them."""

    lam: float
    grid: Grid
    v1: np.ndarray
    newton_residual: float
    newton_iterations: int

    @cached_property
    def dv1(self) -> np.ndarray:
        """differentiate(v1), read-only."""
        dv1 = differentiate(self.v1, self.grid)
        dv1.flags.writeable = False
        return dv1

    @cached_property
    def hamiltonian_dev(self) -> float:
        """max |H + 1/4| over the nodes (hamiltonian_values)."""
        v1, dv1 = self.v1, self.dv1
        # dv2 = -dv1 reversed enters squared, so dv1 reversed gives the same bits
        ham = hamiltonian_values(v1, v1[::-1], dv1, dv1[::-1], self.lam)
        return float(np.max(np.abs(ham + 0.25)))

    @cached_property
    def flags(self) -> SolutionFlags:
        # v2 is v1 reversed, so v1's monotonicity is its too
        return SolutionFlags(monotone=_monotone_flag(self.v1), bounded=_bounded_flag(self.v1))

    @property
    def v2(self) -> np.ndarray:
        """v2(z) = v1(-z): a read-only view of v1 reversed."""
        return self.v1[::-1]

    @property
    def dv2(self) -> np.ndarray:
        """differentiate(v2) bit for bit, computed on each read: differentiate
        commutes with the mirror up to sign, and 0.0 - x (unlike -x) keeps
        its zeros positive."""
        dv2 = 0.0 - self.dv1[::-1]
        dv2.flags.writeable = False
        return dv2

    @property
    def n(self) -> int:
        return self.grid.n

    @property
    def L(self) -> float:
        return float(self.grid.b)


@dataclass(frozen=True)
class StepRecord:
    """One accepted continuation step: the halvings spent before it, the
    Newton iterations of its accepted solve on the requested mesh, and
    those on each coarser mesh of its ladder, coarsest first (() when the
    ladder is the requested mesh alone)."""

    lam_from: float
    lam_to: float
    halvings: int
    iterations: int
    coarse_iterations: tuple[int, ...]


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
        if not np.all(np.diff(lams) > 0.0):
            raise ValueError("trace lambdas must be strictly increasing")


class StepUnderflow(RuntimeError):
    """Continuation step halved _MAX_HALVINGS times without converging."""

    def __init__(self, at_lambda: float):
        self.at_lambda = at_lambda
        super().__init__(
            f"continuation step underflow at lambda = {at_lambda:.6g}"
        )


class SignViolationError(RuntimeError):
    """Newton converged to an iterate with a component below the sign
    noise floor, off the positive branch."""


def explicit_lambda3(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form branch at lam = 3 at the points z:
    v1 = (1 + tanh(z/sqrt(2)))/2 and v2 = 1 - v1."""
    v1 = 0.5 * (1.0 + outer_value(z))
    return v1, 1.0 - v1


def essential_edge(lam: float) -> float:
    """e(lam) = min(2, lam - 1): the far-field potentials of the
    linearization are 2 (saturating component) and lam - 1 (vanishing
    one), so e is where its essential spectrum starts, and the far field
    decays at rate sqrt(e)."""
    return min(2.0, lam - 1.0)


def default_domain_halfwidth(lam: float) -> float:
    """Truncation half-width: the far field decays at rate
    sqrt(essential_edge(lam)), and the core occupies O((ln lam)*lam^{-1/4});
    20 is the global floor."""
    if lam <= 1.0:
        raise ValueError(f"need lam > 1, got {lam}")
    rate = math.sqrt(essential_edge(lam))
    return max(20.0, 12.0 / rate + 10.0 * math.log(lam) * lam**-0.25)


def default_grid(lam: float, L: float, n: int) -> Grid:
    """Sinh-graded mesh on [-L, L], an exact mirror about 0 (for odd n
    its middle node is exactly 0).

    The map strength is the larger of the ones that put half the nodes
    inside |z| <= max(4*(ln lam)*lam^{-1/4}, 2) and that make the center
    spacing 2.5e-3*lam^{-1/4}; a strength of 0 gives the uniform mesh.
    The adjacent-cell ratio is capped at RATIO_CAP, and on coarse meshes
    the cap binds: at n = 41 and L = 20 (the Jacobian hygiene mesh) the center
    spacing is about 0.19, not the requested 2.5e-3*lam^{-1/4}.
    """
    half_window = max(4.0 * math.log(lam) * lam**-0.25, 2.0)
    h_center = 2.5e-3 * lam**-0.25
    beta = max(
        beta_for_half_window(L, half_window),
        beta_for_center_spacing(L, n, h_center),
    )
    return make_grid(-L, L, n, ratio_from_beta(beta, n))


def _interior_residual_jacobian(st: FluxStencil, lam: float):
    """Row and Jacobian callbacks of the interior nodes 1..n-2 of the mesh
    whose flux stencil is st, from full fields that carry the Dirichlet
    limits v1(-L)=0, v2(-L)=1, v1(L)=1, v2(L)=0 at their ends.

    Flux form keeps row magnitudes at 1/h rather than 1/h^2, so the
    evaluation rounding floor stays below the Newton tolerance on the
    finest meshes (see module docstring). rows(Va, Vb) is the one row
    expression: component a's rows at the interior nodes, from the full
    fields Va and Vb of a and of the other component. jacobian(V1, V2) is
    the banded Jacobian of both components' rows with respect to the
    interleaved interior unknowns [v1_1, v2_1, v1_2, v2_2, ...].
    """
    w = st.w

    def rows(Va: np.ndarray, Vb: np.ndarray) -> np.ndarray:
        # the cube as products: ** 3 goes through pow, which is slow on
        # the underflowing far-field tails
        ca, cb = Va[1:-1], Vb[1:-1]
        return st.apply(Va) - w * (ca * ca * ca - ca + lam * cb**2 * ca)

    def jacobian(V1: np.ndarray, V2: np.ndarray) -> BandedMatrix:
        c1, c2 = V1[1:-1], V2[1:-1]
        jac = BandedMatrix.zeros(2 * c1.shape[0], 2)
        d1 = st.mid - w * (3.0 * c1**2 - 1.0 + lam * c2**2)
        d2 = st.mid - w * (3.0 * c2**2 - 1.0 + lam * c1**2)
        st.fill_pair_rows(jac, 0, d1, d2, -2.0 * lam * w * c1 * c2)
        return jac

    return rows, jacobian


def _interleaved(grid: Grid, lam: float):
    """The full residual and Jacobian of the interleaved interior unknowns
    u = [v1_1, v2_1, v1_2, v2_2, ...]; the Jacobian hygiene check
    differences the one against the other. Newton never evaluates them."""
    rows, jacobian = _interior_residual_jacobian(flux_stencil(grid), lam)

    def fields(u: np.ndarray):
        return np.r_[0.0, u[0::2], 1.0], np.r_[1.0, u[1::2], 0.0]

    def residual(u: np.ndarray) -> np.ndarray:
        V1, V2 = fields(u)
        r = np.empty(u.shape[0])
        r[0::2] = rows(V1, V2)
        r[1::2] = rows(V2, V1)
        return r

    return residual, lambda u: jacobian(*fields(u))


def _sector(n: int):
    """The even sector of the swap-reflection (v1, v2)(z) -> (v2, v1)(-z)
    on an n-node mirror mesh, n odd: a mirror-symmetric state is v1 alone,
    and Newton's unknown y is v1 at the interior nodes in sector order.

    fold(a) puts an array over the interior nodes into sector order: nodes
    1..n//2 go to the even places, and nodes n-2 down to n//2+1 to the odd
    places, which are v2 at nodes 1..n//2-1. At a symmetric state every v2
    row equals its mirror v1 row bit for bit, so fold of the v1 rows is the
    full residual's first half, and its sup norm is the full-domain one:
    Newton stops where a full-domain solve would. Its Jacobian with
    respect to y is the orthonormal even block EVEN.band(J) of the full
    Jacobian J.
    field(y) is the full v1, with the limits 0 and 1 at its ends.
    """
    h = n // 2

    def fold(a: np.ndarray) -> np.ndarray:
        y = np.empty(n - 2)
        y[0::2] = a[:h]
        y[1::2] = a[: h - 1 : -1]
        return y

    def field(y: np.ndarray) -> np.ndarray:
        V1 = np.empty(n)
        V1[0], V1[-1] = 0.0, 1.0
        V1[1 : h + 1] = y[0::2]
        V1[h + 1 : -1] = y[-2::-2]
        return V1

    return fold, field


def _sector_jacobian(st: FluxStencil, lam: float):
    """Newton's Jacobian with respect to the sector state y (see _sector)
    of the mesh whose flux stencil is st: jacobian(y) returns it as a
    FilledBand of bandwidth 2, which BandedLU writes straight into its own
    storage.

    It is written directly in sector order, where entries 2k - 2 and
    2k - 1 are v1 and v2 at node k: v1 and v2 rows at nodes 1..h-1, with
    h = n//2, and the v1 row of the middle node h. Each row holds its
    component's flux stencil, the diagonal of the full Jacobian's row
    (d1 or d2), and the node-local coupling x = 0.5*(a*c1*c2 + a*c2*c1),
    a = -2*lam*w, to the other component: the mean of the full Jacobian's
    coupling and its mirror, whose products round differently. The middle
    node's v2 is its v1, so its coupling adds to its diagonal, d1 + x, and
    its stencil couples it to node h - 1 through hi on both sides. This is
    EVEN.band(J) of the full Jacobian J at the mirrored state bit for bit,
    without J.
    """
    m = st.w.shape[0]  # n - 2, odd
    h = (m + 1) // 2
    mid, w, lo, hi = st.mid[:h], st.w[:h], st.lo, st.hi
    a = -2.0 * lam * w

    def jacobian(y: np.ndarray) -> FilledBand:
        # v1 at nodes 1..h, and v2 at nodes 1..h-1 with the middle node's
        # v1 for its v2
        c1, c2 = y[0::2], np.append(y[1::2], y[-1])
        d1 = mid - w * (3.0 * c1**2 - 1.0 + lam * c2**2)
        d2 = mid[:-1] - w[:-1] * (3.0 * c2[:-1] ** 2 - 1.0 + lam * c1[:-1] ** 2)
        x = 0.5 * (a * c1 * c2 + a * c2 * c1)

        def fill(band: BandedMatrix) -> None:
            data = band.data  # data[2 + i - j, j] holds entry (i, j)
            data[0, 2::2], data[0, 3::2] = hi[: h - 1], hi[: h - 2]
            data[1, 1::2], data[1, -1] = x[:-1], hi[h - 2]
            data[2, 0::2], data[2, 1::2] = d1, d2
            data[2, -1] += x[-1]
            data[3, 0:-1:2], data[3, -2] = x[:-1], hi[h - 1]
            data[4, 0:-2:2], data[4, 1:-2:2] = lo[1:h], lo[1 : h - 1]

        return FilledBand(m, 2, fill)

    return jacobian


def _monotone_flag(v: np.ndarray) -> bool:
    # Strictly increasing. Pairs with both values inside a limit-state band
    # (below _SAT_EPS or above 1 - _SAT_EPS) are skipped: the true tail
    # there sits under the linear-solve noise floor, so node ordering is
    # not certifiable.
    d = np.diff(v)
    hi = np.maximum(v[:-1], v[1:])
    lo = np.minimum(v[:-1], v[1:])
    active = (hi >= _SAT_EPS) & (lo <= 1.0 - _SAT_EPS)
    return bool(np.all(d[active] > 0.0))


def _bounded_flag(v1: np.ndarray) -> bool:
    # v2 is v1 reversed, so its bounds are v1's; an entry above
    # 1 + _SAT_EPS fails the sum check below
    if np.any(v1 < -_SAT_EPS):
        return False
    v2 = v1[::-1]
    s = v1**2 + v2**2
    if np.any(s > 1.0 + _SAT_EPS):
        return False
    active = np.minimum(v1, v2) > _SAT_EPS
    return bool(np.all(s[active] < 1.0))


def _value_at_zero(grid: Grid, v: np.ndarray) -> float:
    return float(v[grid.n // 2])  # the middle node of an odd mesh is 0


def hamiltonian_values(v1, v2, dv1, dv2, lam: float) -> np.ndarray:
    """Pointwise H = sum_i [dv_i^2/2 - (1-v_i^2)^2/4] - (lam/2)*v1^2*v2^2;
    equals -1/4 along exact solutions."""
    return (
        0.5 * (np.asarray(dv1) ** 2 + np.asarray(dv2) ** 2)
        - 0.25 * (1.0 - np.asarray(v1) ** 2) ** 2
        - 0.25 * (1.0 - np.asarray(v2) ** 2) ** 2
        - 0.5 * lam * (np.asarray(v1) * np.asarray(v2)) ** 2
    )


def solve_heteroclinic(
    lam: float,
    n: int,
    L: float | None = None,
    init: tuple[np.ndarray, np.ndarray] | None = None,
) -> HeteroclinicSolution:
    """Damped-Newton collocation solve of the interface system at coupling
    lam on [-L, L] (L defaults to default_domain_halfwidth(lam)) with exact
    limit Dirichlet data, on the mesh default_grid(lam, L, n); n must be
    odd, so that the mesh, an exact mirror about 0, has its middle node at
    exactly z = 0.

    Newton runs in the even sector of the swap-reflection
    (v1, v2)(z) -> (v2, v1)(-z), which pins the translation exactly: the
    solution holds v1 alone, v2 is its mirror, so the solution is
    symmetric and centred (v1 = v2 at z = 0) by construction. Newton's
    unknowns are v1 at the interior nodes in sector order (see _sector).
    newton_residual is Newton's final sector residual, which equals the
    sup norm of the full-domain residual at the returned fields.

    init, when given, is node samples (z, v1) of v1 on any strictly
    increasing node set, such as another solution's grid; they are
    resampled onto the mesh and seed Newton as they are. When init is
    omitted, the mean of the explicit lam=3 branch's v1 and mirrored v2
    seeds the iteration; that works for couplings below 10, and larger
    ones take init from the matched composite or from continue_in_lambda's
    previous step. A converged
    iterate whose interior dips below the sign noise floor raises
    SignViolationError (the branch of interest is positive).
    """
    if not lam > 1.0:
        raise ValueError(f"coupling must exceed 1, got lam={lam}")
    if L is None:
        L = default_domain_halfwidth(lam)
    if L < 20.0:
        raise ValueError(f"need L >= 20, got {L}")
    if n < _MIN_N:
        raise ValueError(f"need n >= {_MIN_N}, got {n}")
    if n % 2 == 0:
        raise ValueError(f"need odd n (a mesh node at z = 0), got n={n}")
    grid = default_grid(lam, L, n)
    if init is None:
        e1, e2 = explicit_lambda3(grid.nodes)
        seed = 0.5 * (e1 + e2[::-1])
    else:
        seed = _seed_on_grid(*init, grid)

    st = flux_stencil(grid)
    rows, _ = _interior_residual_jacobian(st, lam)
    fold, field = _sector(n)

    def sector_residual(y: np.ndarray) -> np.ndarray:
        V1 = field(y)
        return fold(rows(V1, V1[::-1]))

    y, iterations, final_res = newton_solve(
        sector_residual, _sector_jacobian(st, lam), fold(seed[1:-1])
    )
    v1 = field(y)

    # v2 is v1 reversed, so v1's sign check is its too
    if float(np.min(v1)) < -_SIGN_FLOOR:
        raise SignViolationError(
            f"component sign violation after convergence at lam={lam:.6g}"
        )
    v1.flags.writeable = False
    return HeteroclinicSolution(
        lam=lam,
        grid=grid,
        v1=v1,
        newton_residual=final_res,
        newton_iterations=iterations,
    )


def _seed_on_grid(z: np.ndarray, v1: np.ndarray, grid: Grid) -> np.ndarray:
    # cubic resampling of v1's node samples, constant extension beyond the
    # source domain, clamp into [0, 1], exact limit values at both ends
    at = np.clip(grid.nodes, z[0], z[-1])
    v1 = np.clip(resample(z, v1, at), 0.0, 1.0)
    v1[0], v1[-1] = 0.0, 1.0
    return v1


def sigma_gradient_form(sol: HeteroclinicSolution) -> float:
    """Tension in gradient form: integral of (v1')^2 + (v2')^2."""
    return quadrature(sol.dv1**2 + sol.dv2**2, sol.grid)


def _trace_entry(sol: HeteroclinicSolution) -> TraceEntry:
    return TraceEntry(
        lam=sol.lam,
        newton_residual=sol.newton_residual,
        hamiltonian_dev=sol.hamiltonian_dev,
        sigma_lambda=sigma_gradient_form(sol),
        crossing_value=_value_at_zero(sol.grid, sol.v1),
        min_component=float(np.min(np.maximum(sol.v1, sol.v2))),
    )


def mesh_ladder(n: int) -> tuple[int, ...]:
    """The meshes a continuation step onto n nodes solves on, coarsest
    first and ending with n: each has a quarter of the intervals of the
    next, (m - 1)/4 + 1 nodes rounded up to odd, and none has fewer than
    _MIN_N (513) nodes. So 32769 gives (513, 2049, 8193, 32769) and 8193
    gives (513, 2049, 8193); odd n from 2043 to 8161 give two meshes, and
    odd n below 2043 the one mesh n."""
    ladder = [n]
    while (coarser := ((ladder[-1] + 2) // 4 + 1) | 1) >= _MIN_N:
        ladder.append(coarser)
    return tuple(reversed(ladder))


def correct_on_ladder(
    coarse: HeteroclinicSolution, n: int
) -> tuple[HeteroclinicSolution, tuple[int, ...]]:
    """Carry coarse, a solve on the coarsest mesh of mesh_ladder(n), to n
    nodes: a Newton correction at coarse.lam on each finer mesh of the
    ladder, seeded from the solution just below it, all on coarse's
    [-L, L]. Returns the solution on n nodes and the Newton iterations on
    every mesh, coarsest first; only the solve in hand and its seed are
    alive at a time."""
    coarsest, *finer = mesh_ladder(n)
    if coarse.n != coarsest:
        raise ValueError(
            f"coarse solve has {coarse.n} nodes; the ladder of {n} starts at {coarsest}"
        )
    sol, iterations = coarse, [coarse.newton_iterations]
    for m in finer:
        sol = solve_heteroclinic(coarse.lam, n=m, L=coarse.L, init=(sol.grid.nodes, sol.v1))
        iterations.append(sol.newton_iterations)
    return sol, tuple(iterations)


def continue_in_lambda(
    start: HeteroclinicSolution,
    targets,
    n: int | None = None,
) -> ContinuationTrace:
    """Walk the branch upward from start through the strictly increasing
    targets on meshes of n nodes (default: start's).

    Each step solves its proposal on the coarsest mesh of mesh_ladder(n),
    seeded from the previous step's coarsest solution (the first step's
    from start), and correct_on_ladder carries it to each finer mesh, each
    seeded from the solution just below it at the same coupling, so only the
    coarsest solution is kept from one step to the next and, after the
    first step, no seed is resampled from the requested mesh. The trace
    and its solutions are on the requested mesh;
    StepRecord.coarse_iterations counts the Newton iterations on each
    coarser mesh.

    Steps are log-uniform with ratio _STEP_FACTOR (one decade); a failure
    of a solve on any mesh (NonConvergenceError, SingularJacobianError,
    SignViolationError) halves the log-step it tried (next proposal: the
    geometric midpoint of the current coupling and the failed one) up to
    _MAX_HALVINGS times, then raises StepUnderflow. Any other error
    propagates. A proposal that passes the next target, or lies within a
    relative _SNAP_RTOL (64 eps) of it, is replaced by the target itself,
    so every target is solved at exactly its requested value; a halved
    proposal lies strictly between the current coupling and the one that
    failed, so no failed solve is repeated. This function only climbs:
    couplings below start.lam are not its job (the CLI solves couplings
    below 10 directly, from the explicit lam = 3 seed). The trace
    records every accepted solve including the start.
    """
    targets = [float(t) for t in targets]
    if not targets:
        raise ValueError("targets must be nonempty")
    if not np.all(np.diff([start.lam] + targets) > 0.0):
        raise ValueError("targets must increase strictly from start.lam")
    n = start.grid.n if n is None else n
    coarsest = mesh_ladder(n)[0]

    log_step = math.log(_STEP_FACTOR)
    entries = [_trace_entry(start)]
    steps: list[StepRecord] = []
    solutions = [start]
    current = climbed = start
    for target in targets:
        while current.lam != target:
            step = log_step
            halvings = 0
            while True:
                proposal = math.exp(math.log(current.lam) + step)
                if proposal > target or math.isclose(proposal, target, rel_tol=_SNAP_RTOL):
                    proposal = target
                try:
                    climb = solve_heteroclinic(
                        proposal, n=coarsest, init=(climbed.grid.nodes, climbed.v1)
                    )
                    sol, iterations = correct_on_ladder(climb, n)
                except (NonConvergenceError, SingularJacobianError, SignViolationError):
                    halvings += 1
                    if halvings > _MAX_HALVINGS:
                        raise StepUnderflow(at_lambda=current.lam) from None
                    step = 0.5 * (math.log(proposal) - math.log(current.lam))
                    continue
                steps.append(
                    StepRecord(
                        lam_from=current.lam,
                        lam_to=proposal,
                        halvings=halvings,
                        iterations=iterations[-1],
                        coarse_iterations=iterations[:-1],
                    )
                )
                current, climbed = sol, climb
                break
            entries.append(_trace_entry(current))
            solutions.append(current)
    return ContinuationTrace(
        entries=tuple(entries), steps=tuple(steps), solutions=tuple(solutions)
    )
