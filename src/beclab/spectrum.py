"""Linearization of the interface system and its bottom spectrum.

Linearizing the coupled system about a solution (v1, v2) gives the
symmetric operator

    M (p1, p2) = ( -p1'' + (3 v1^2 - 1 + lam v2^2) p1 + 2 lam v1 v2 p2,
                   -p2'' + (3 v2^2 - 1 + lam v1^2) p2 + 2 lam v1 v2 p1 ).

Translation invariance makes (v1', v2') an exact kernel element on the
line; on the truncated Dirichlet interval the corresponding discrete
eigenvalue is near zero (it shrinks under domain and mesh refinement),
and the rest of the spectrum stays above a coupling-independent gap.

Discretisation: M is the Hessian of the energy, so it is the Jacobian of
the Euler-Lagrange residual. The interface solver's Newton Jacobian J of
the flux-form residual is symmetric, and the natural finite-difference
operator is -W^{-1} J with W = diag(cell weights). The assembled matrix
is the similarity transform S = -W^{-1/2} J W^{-1/2}, which is exactly
symmetric and has the same eigenvalues. Eigenvectors returned to callers
are mapped back to natural variables and normalized in the lumped-mass
inner product, which is the quadrature approximation of the L^2 pairing.

The low eigenpairs come from one shift-invert Lanczos solve (ARPACK via
scipy.sparse.linalg.eigsh; Ericsson & Ruhe 1980, Lehoucq, Sorensen & Yang
1998): S - sigma I is factored once by banded LU with the pole sigma below
the spectrum, so the eigenvalues nearest the pole are the lowest ones.
The Lanczos start vector is a seeded PCG64 draw, which makes the result
deterministic. Every computed pair is certified by its residual
||S psi - theta psi||; the certification floor scales with eps*||S||
because at large coupling and fine meshes ||S|| ~ 1/h^2 + lam makes an
absolute 1e-8 residual unreachable in doubles. A Lanczos solve can miss an
eigenvalue without any residual showing it, so a Sylvester inertia count
of S - mu I (block LDL^T over the 2x2 node blocks; Parlett, The Symmetric
Eigenvalue Problem) with mu in the gap above the returned values then
certifies that no eigenvalue below mu was skipped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse.linalg import LinearOperator, eigsh

from .banded import BandedLU, BandedMatrix
from .grids import Grid, flux_stencil
from .heteroclinic import HeteroclinicSolution, _interior_residual_jacobian, _interior_state

__all__ = [
    "EigenCertificate",
    "Eigenpairs",
    "LinearizedOperator",
    "REPORT_PAIRS",
    "SpectrumReport",
    "assemble_operator",
    "assemble_linearized",
    "count_below",
    "lowest_eigenpairs",
    "nondegeneracy_report",
    "spectrum_report",
    "translation_residual",
]

# Deterministic seed for the Lanczos start vector.
_START_SEED = 0xBEC1AB

_MAX_EIGENPAIRS = 8

# Eigenpairs behind every spectrum report (verify and `beclab spectrum`).
REPORT_PAIRS = 4

# Shift-invert pole. The operators of interest are Hessians at energy
# minimisers (lowest eigenvalue the near-zero translation mode), so a pole
# at -1 sits an O(1) distance below the spectrum. An operator with
# eigenvalues below the pole fails the inertia count instead of returning
# the wrong pairs.
_POLE = -1.0


@dataclass(frozen=True, eq=False)
class LinearizedOperator:
    """Symmetrized banded discretisation of M on interior nodes.

    matrix acts on interleaved symmetrized unknowns
    psi = [sqrt(w_1) p1_1, sqrt(w_1) p2_1, sqrt(w_2) p1_2, ...];
    weights holds the interior cell weights w_k.
    """

    lam: float
    grid: Grid
    matrix: BandedMatrix
    weights: np.ndarray
    q1: np.ndarray
    q2: np.ndarray
    coupling: np.ndarray

    @property
    def dim(self) -> int:
        return self.matrix.dim

    def inner(self, f, g) -> float:
        """Lumped-mass inner product of full-length component pairs."""
        f1, f2 = f
        g1, g2 = g
        w = self.weights
        return float(
            np.sum(w * (f1[1:-1] * g1[1:-1] + f2[1:-1] * g2[1:-1]))
        )

    def apply_natural(self, phi1: np.ndarray, phi2: np.ndarray):
        """Apply M in natural variables to full-length arrays; returns the
        interior residual components (boundary entries enter as data)."""
        st = flux_stencil(self.grid)
        r1 = -st.apply(phi1) / self.weights + self.q1 * phi1[1:-1] + self.coupling * phi2[1:-1]
        r2 = -st.apply(phi2) / self.weights + self.q2 * phi2[1:-1] + self.coupling * phi1[1:-1]
        return r1, r2


@dataclass(frozen=True)
class EigenCertificate:
    """Evidence that a set of computed eigenpairs is the bottom of the
    spectrum.

    count_below eigenvalues of S lie below shift (Sylvester inertia), and
    exactly that many computed values do; max_residual is the largest
    ||S psi - theta psi|| over the computed pairs, each at most tolerance.
    """

    shift: float
    count_below: int
    max_residual: float
    tolerance: float


class Eigenpairs(list):
    """List of (theta, (phi1, phi2)) pairs that also carries the
    certificate of the solve that produced them."""

    def __init__(self, pairs, certificate: EigenCertificate):
        super().__init__(pairs)
        self.certificate = certificate


@dataclass(frozen=True)
class SpectrumReport:
    lam: float
    lambda1: float
    lambda2: float
    alignment: float
    gap: float
    essential_edge_estimate: float
    n: int
    L: float
    inertia_shift: float
    inertia_count: int
    max_residual: float


def assemble_operator(
    grid: Grid, lam: float, q1: np.ndarray, q2: np.ndarray, coupling: np.ndarray
) -> LinearizedOperator:
    """Build the symmetrized interior operator from nodal potential and
    coupling samples (full-length arrays; boundary entries unused).

    The samples fill the Jacobian band of the interface solver's flux-form
    residual, which is then symmetrized as in assemble_linearized. The
    operator keeps read-only copies of the interior samples; the caller's
    arrays are not modified."""
    n = grid.n
    interior = {}
    for name, arr in (("q1", q1), ("q2", q2), ("coupling", coupling)):
        a = np.asarray(arr, dtype=float)
        if a.shape != (n,):
            raise ValueError(f"{name} must be a full nodal array of length {n}")
        interior[name] = a[1:-1].copy()
    st = flux_stencil(grid)
    jac = BandedMatrix.zeros(2 * (n - 2), 2)
    d1, d2 = st.mid - st.w * interior["q1"], st.mid - st.w * interior["q2"]
    st.fill_pair_rows(jac, 0, d1, d2, -st.w * interior["coupling"])
    return _symmetrized(grid, lam, st.w, jac, **interior)


def assemble_linearized(sol: HeteroclinicSolution) -> LinearizedOperator:
    """Linearized operator about a converged heteroclinic: the interface
    solver's Newton Jacobian at sol, symmetrized. The stored potentials
    and coupling are read off the Jacobian's diagonal blocks."""
    _, jacobian, _ = _interior_residual_jacobian(sol.grid, sol.lam)
    jac = jacobian(_interior_state(sol.v1, sol.v2))
    st = flux_stencil(sol.grid)
    bw = jac.bandwidth  # data[bw - d, i + d] holds entry (i, i + d)
    diag, cross = jac.data[bw], jac.data[bw - 1, 1::2]
    q1 = (st.mid - diag[0::2]) / st.w
    q2 = (st.mid - diag[1::2]) / st.w
    return _symmetrized(sol.grid, sol.lam, st.w, jac, q1, q2, -cross / st.w)


def _symmetrized(
    grid: Grid, lam: float, w: np.ndarray, jac: BandedMatrix, q1, q2, coupling
) -> LinearizedOperator:
    """Operator with matrix S = -W^{-1/2} J W^{-1/2}, W the cell weights w,
    computed in place in jac. Each entry is scaled by the product s_i*s_j,
    which is commutative, so a symmetric J gives an exactly symmetric S."""
    s = np.repeat(1.0 / np.sqrt(w), 2)
    bw, dim = jac.bandwidth, jac.dim
    for d in range(-bw, bw + 1):
        i0, j0, length = max(0, -d), max(0, d), dim - abs(d)
        jac.data[bw - d, j0 : j0 + length] *= -(s[i0 : i0 + length] * s[j0 : j0 + length])
    for arr in (q1, q2, coupling):
        arr.flags.writeable = False
    return LinearizedOperator(lam, grid, jac, w, q1, q2, coupling)


def _norm_inf(matrix: BandedMatrix) -> float:
    # stored column j holds exactly the nonzeros of matrix column j; the
    # matrix is symmetric, so max column sum equals the infinity norm
    return float(np.max(np.sum(np.abs(matrix.data), axis=0)))


def _shifted(matrix: BandedMatrix, shift: float) -> BandedMatrix:
    out = BandedMatrix.zeros(matrix.dim, matrix.bandwidth)
    out.data[:] = matrix.data
    out.data[matrix.bandwidth, :] -= shift
    return out


def residual_tolerance(op: LinearizedOperator) -> float:
    """Certification tolerance for eigenpairs: 1e-8 when reachable, else
    a small multiple of the rounding floor eps*||S||_inf."""
    return max(1e-8, 64.0 * np.finfo(float).eps * _norm_inf(op.matrix))


def count_below(op: LinearizedOperator, mu: float) -> int:
    """Number of eigenvalues of the symmetrized operator below mu.

    Sylvester's law of inertia on the block LDL^T factorisation of
    S - mu I over the 2x2 node blocks A_k: the blocks between neighbouring
    nodes are o_k I, so the pivots obey D_k = A_k - mu I - o_{k-1}^2
    D_{k-1}^{-1}, and each D_k contributes its negative eigenvalues (one
    when det D_k < 0, two when det D_k > 0 > trace D_k). A singular pivot
    means mu is (numerically) an eigenvalue and raises.
    """
    data, bw = op.matrix.data, op.matrix.bandwidth
    a = (data[bw, 0::2] - mu).tolist()
    d = (data[bw, 1::2] - mu).tolist()
    b = data[bw - 1, 1::2].tolist()
    o2 = (data[bw - 2, 2::2] ** 2).tolist()
    count = 0
    p, q, r = a[0], b[0], d[0]
    for k in range(len(a)):
        if k:
            s = o2[k - 1] / det
            p, q, r = a[k] - s * r, b[k] + s * q, d[k] - s * p
        det = p * r - q * q
        if det == 0.0 or not math.isfinite(det):
            raise ArithmeticError(
                f"singular pivot at node {k} in the inertia count of S - {mu!r} I"
            )
        if det < 0.0:
            count += 1
        elif p + r < 0.0:
            count += 2
    return count


def lowest_eigenpairs(op: LinearizedOperator, k: int) -> Eigenpairs:
    """k smallest eigenpairs of the symmetrized operator.

    One shift-invert Lanczos solve for k + 1 pairs about a pole below the
    spectrum (one banded LU of S - sigma I, seeded start vector), then two
    certificates, either of which raises RuntimeError when it fails:

    - every computed pair has ||S psi - theta psi|| <= residual_tolerance(op),
      with theta the Rayleigh quotient;
    - a Sylvester inertia count of S - mu I, mu in the gap above theta_k,
      finds exactly as many eigenvalues below mu as were computed. When
      theta_{k+1} - theta_k is within the residual tolerance the two form a
      cluster and mu is placed above theta_{k+1} instead.

    Returned eigenvectors are natural-variable full-length component pairs
    (phi1, phi2) with zero boundary entries, normalized in the lumped-mass
    inner product, sign-fixed so the largest-magnitude entry is positive.
    The list carries the EigenCertificate as `.certificate`.
    """
    if not 1 <= k <= _MAX_EIGENPAIRS:
        raise ValueError(f"need 1 <= k <= {_MAX_EIGENPAIRS}, got {k}")
    dim = op.dim
    if k + 2 > dim:
        raise ValueError(f"operator dimension {dim} too small for k={k}")
    m = k + 1  # one extra pair locates the gap for the inertia count
    lu = BandedLU(_shifted(op.matrix, _POLE))
    rng = np.random.Generator(np.random.PCG64(_START_SEED))
    v0 = rng.standard_normal(dim)
    _, vecs = eigsh(
        LinearOperator((dim, dim), matvec=op.matrix.matvec, dtype=float),
        k=m,
        sigma=_POLE,
        OPinv=LinearOperator((dim, dim), matvec=lu.solve, dtype=float),
        v0=v0,
        ncv=min(2 * m + 1, dim),
        tol=0,
        rng=rng,
    )

    tol = residual_tolerance(op)
    thetas, vectors, max_res = [], [], 0.0
    for i in range(m):
        psi = vecs[:, i] / np.linalg.norm(vecs[:, i])
        j = int(np.argmax(np.abs(psi)))
        if psi[j] < 0.0:
            psi = -psi
        s_psi = op.matrix.matvec(psi)
        theta = float(psi @ s_psi)
        res = float(np.linalg.norm(s_psi - theta * psi))
        if not res <= tol:
            raise RuntimeError(
                f"Lanczos pair {i} (theta {theta:.6e}) has residual {res:.3e} "
                f"above the tolerance {tol:.3e}"
            )
        max_res = max(max_res, res)
        thetas.append(theta)
        vectors.append(psi)
    order = np.argsort(thetas, kind="stable")
    thetas = [thetas[i] for i in order]

    if thetas[k] - thetas[k - 1] > tol:
        mu = 0.5 * (thetas[k - 1] + thetas[k])
    else:
        mu = thetas[k] + tol
    expected = sum(theta < mu for theta in thetas)
    found = count_below(op, mu)
    if found != expected:
        raise RuntimeError(
            f"inertia count found {found} eigenvalues below {mu:.6e}, "
            f"but the Lanczos solve returned {expected}"
        )

    n = op.grid.n
    sqrt_w = np.sqrt(op.weights)
    pairs = []
    for theta, idx in zip(thetas[:k], order[:k]):
        psi = vectors[idx]
        phi1 = np.zeros(n)
        phi2 = np.zeros(n)
        phi1[1:-1] = psi[0::2] / sqrt_w
        phi2[1:-1] = psi[1::2] / sqrt_w
        pairs.append((theta, (phi1, phi2)))
    return Eigenpairs(pairs, EigenCertificate(mu, found, max_res, tol))


def translation_residual(op: LinearizedOperator, dv1: np.ndarray, dv2: np.ndarray) -> float:
    """Sup-norm of M applied to the sampled translation mode (v1', v2');
    zero in the continuum, pure discretization error numerically."""
    r1, r2 = op.apply_natural(np.asarray(dv1, dtype=float), np.asarray(dv2, dtype=float))
    return float(max(np.max(np.abs(r1)), np.max(np.abs(r2))))


def spectrum_report(
    sol: HeteroclinicSolution, op: LinearizedOperator, pairs: Eigenpairs
) -> SpectrumReport:
    """Bottom-of-spectrum summary from eigenpairs already computed by
    lowest_eigenpairs(op, k) with k >= 2, op the operator about sol.

    alignment is the normalized lumped-mass pairing of the bottom
    eigenvector with the translation mode (v1', v2'); the essential edge
    estimate is the smallest computed eigenvalue whose eigenvector holds
    at least half its squared mass in the outer 20% of the domain (NaN
    when no computed vector does). The certificate of the solve is copied
    beside the eigenvalues.
    """
    u = (sol.dv1, sol.dv2)
    u_norm = math.sqrt(op.inner(u, u))
    lam1, bottom = pairs[0]
    lam2 = pairs[1][0]
    alignment = abs(op.inner(bottom, u)) / u_norm  # eigenvectors have unit norm

    z = sol.grid.nodes
    outer = np.abs(z) >= 0.8 * sol.L
    edge = math.nan
    for value, (phi1, phi2) in pairs:
        mass = phi1**2 + phi2**2
        frac = float(
            np.sum(op.weights * mass[1:-1] * outer[1:-1])
            / np.sum(op.weights * mass[1:-1])
        )
        if frac >= 0.5:
            edge = value
            break
    cert = pairs.certificate
    return SpectrumReport(
        lam=sol.lam,
        lambda1=lam1,
        lambda2=lam2,
        alignment=alignment,
        gap=lam2 - lam1,
        essential_edge_estimate=edge,
        n=sol.grid.n,
        L=sol.L,
        inertia_shift=cert.shift,
        inertia_count=cert.count_below,
        max_residual=cert.max_residual,
    )


def nondegeneracy_report(sol: HeteroclinicSolution) -> SpectrumReport:
    """Bottom-of-spectrum summary about a converged solution from its
    REPORT_PAIRS lowest eigenpairs; see spectrum_report."""
    op = assemble_linearized(sol)
    return spectrum_report(sol, op, lowest_eigenpairs(op, REPORT_PAIRS))
