"""Linearization of the interface system and its bottom spectrum.

Linearizing the coupled system about a solution (v1, v2) gives the
symmetric operator

    M (p1, p2) = ( -p1'' + (3 v1^2 - 1 + lam v2^2) p1 + 2 lam v1 v2 p2,
                   -p2'' + (3 v2^2 - 1 + lam v1^2) p2 + 2 lam v1 v2 p1 ).

Translation invariance makes (v1', v2') an exact kernel element on the
line; on the truncated Dirichlet interval the corresponding discrete
eigenvalue is near zero (it shrinks under domain and mesh refinement),
and the rest of the spectrum stays above a coupling-independent gap. Far
from the interface (v1, v2) -> (1, 0) on one side, where phi1 sees the
potential 3*1^2 - 1 = 2 and phi2 sees lam*1^2 - 1, so the essential
spectrum of M starts at e(lam) = min(2, lam - 1), heteroclinic.essential_edge
(the mirror side is the same with the components swapped).

Discretisation: M is the Hessian of the energy, so it is the Jacobian of
the Euler-Lagrange residual. The interface solver's Newton Jacobian J of
the flux-form residual is symmetric, and the natural finite-difference
operator is -W^{-1} J with W = diag(cell weights). The assembled matrix
is the similarity transform S = -W^{-1/2} J W^{-1/2}, which is exactly
symmetric and has the same eigenvalues. The solver works on S and
returns unit eigenvectors of S; only nondegeneracy_report maps them back
to natural variables, where they are normalized in the lumped-mass inner
product, the quadrature approximation of the L^2 pairing.

The swap-reflection (p1, p2)(z) -> (p2, p1)(-z) commutes with M about a
mirror-symmetric solution, so S splits into an odd and an even sector
block of half the dimension (grids.MirrorSector; Golubitsky, Stewart &
Schaeffer, Singularities and Groups in Bifurcation Theory II, 1988). The
translation mode is the bottom of the odd sector and lambda2 the bottom
of the even one. Each comes from inverse and Rayleigh-quotient iteration
in its sector (Parlett, The Symmetric Eigenvalue Problem, ch. 4) with
every shift factored by banded Cholesky, which exists exactly when the
shift lies below the sector's bottom; the solve ends when the block
factors at theta - tol, which puts its bottom within tol of theta.

Both certificates are taken on the full operator. Every unfolded pair is
certified by its residual ||S psi - theta psi||; the certification floor
scales with eps*||S|| because at large coupling and fine meshes
||S|| ~ 1/h^2 + lam makes an absolute 1e-8 residual unreachable in
doubles. A Sylvester inertia count of S - mu I then certifies that no
eigenvalue below mu was skipped. It is taken by cyclic reduction over the
2x2 node blocks: eliminating every other node at once is a congruence,
since the eliminated nodes are not coupled to each other, so the inertia
is that of the eliminated pivots plus that of the Schur complement on the
nodes kept, which is block tridiagonal again; about log2 of the node
count such passes, each a few whole-array NumPy operations, take the
count. For a solution the count is taken at the essential edge,
mu = e(lam), where it is the number of bound states: Theorem 1.2 as a
count, the zero mode and lambda2 and nothing else.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .banded import BandedCholesky, BandedMatrix, SingularSystemError
from .grids import EVEN, ODD, flux_stencil, mirror_defect
from .heteroclinic import (
    HeteroclinicSolution,
    _interior_residual_jacobian,
    essential_edge,
)

__all__ = [
    "EigenCertificate",
    "SpectrumReport",
    "assemble_linearized",
    "count_below",
    "lowest_eigenpairs",
    "nondegeneracy_report",
]

# Step cap of a sector solve. The most steps measured: 13 on the default
# verify sweep, 15 on the spectrum tests' solutions, and 81 on 15 000 random
# blocks drawn as test_sector_solver_finds_the_bottom draws them (67 on three
# runs of its own 150 examples).
_MAX_STEPS = 200


@dataclass(frozen=True)
class EigenCertificate:
    """Evidence that a set of computed eigenpairs is the bottom of the
    spectrum.

    count_below eigenvalues of S lie below shift (Sylvester inertia), and
    exactly that many computed values do; max_residual is the largest
    ||S psi - theta psi|| over the computed pairs, each at most tolerance.
    solves counts the factorizations, failed ones too, and solves of the
    two sector solves.
    """

    shift: float
    count_below: int
    max_residual: float
    tolerance: float
    solves: int


@dataclass(frozen=True)
class SpectrumReport:
    lam: float
    lambda1: float
    lambda2: float
    alignment: float
    gap: float
    n: int
    L: float
    inertia_shift: float
    inertia_count: int
    max_residual: float
    solves: int


def assemble_linearized(sol: HeteroclinicSolution) -> BandedMatrix:
    """Symmetrized linearized operator S about a converged heteroclinic:
    the interface solver's Newton Jacobian J at sol, scaled in place to
    S = -W^{-1/2} J W^{-1/2}, W the cell weights. S acts on interleaved
    symmetrized unknowns psi = [sqrt(w_1) p1_1, sqrt(w_1) p2_1,
    sqrt(w_2) p1_2, ...] of the interior nodes. Each entry is scaled by
    the product s_i*s_j, which is commutative, so the symmetric J gives an
    exactly symmetric S."""
    st = flux_stencil(sol.grid)
    _, jacobian = _interior_residual_jacobian(st, sol.lam)
    jac = jacobian(sol.v1, sol.v2)
    s = np.repeat(1.0 / np.sqrt(st.w), 2)
    for _, rows, cols, band in jac.diagonals():
        band *= -(s[rows] * s[cols])
    return jac


def _norm_inf(matrix: BandedMatrix) -> float:
    # stored column j holds exactly the nonzeros of matrix column j; the
    # matrix is symmetric, so max column sum equals the infinity norm
    return float(np.max(np.sum(np.abs(matrix.data), axis=0)))


def residual_tolerance(S: BandedMatrix) -> float:
    """Certification tolerance for eigenpairs of S: 1e-8 when reachable,
    else a small multiple of the rounding floor eps*||S||_inf."""
    return max(1e-8, 64.0 * np.finfo(float).eps * _norm_inf(S))


def count_below(S: BandedMatrix, mu: float) -> int:
    """Number of eigenvalues of the symmetrized operator S below mu.

    Sylvester's law of inertia, taken by cyclic (odd-even) reduction over
    the 2x2 node blocks of S - mu I (Heller, SIAM J. Numer. Anal. 13,
    1976). Node k's block is D_k = [[p, q], [q, r]] and its coupling to
    node k + 1 is C_k = [[c11, c12], [c21, c22]], each held as one array
    per component. Each pass eliminates every other node at once. The
    eliminated nodes are not coupled to each other, so the elimination is
    one congruence, and S - mu I has the inertia of the eliminated pivots
    plus that of the Schur complement on the kept nodes (Haynsworth,
    Linear Algebra Appl. 1, 1968). With node j eliminated between kept
    nodes j - 1 and j + 1, the complement is block tridiagonal again:

        D_{j-1} -= C_{j-1} D_j^{-1} C_{j-1}^T,
        D_{j+1} -= C_j^T D_j^{-1} C_j,
        coupling of j - 1 to j + 1: -C_{j-1} D_j^{-1} C_j.

    About log2 of the node count passes leave one block. A pivot D
    contributes its negative eigenvalues: one when det D < 0, two when
    det D > 0 and p < 0. A singular or non-finite pivot means mu is
    (numerically) an eigenvalue and raises SingularSystemError.
    """
    data, bw = S.data, S.bandwidth
    p, q, r = data[bw, 0::2] - mu, data[bw - 1, 1::2], data[bw, 1::2] - mu
    c11, c21, c22 = data[bw - 2, 2::2], data[bw - 1, 2::2], data[bw - 2, 3::2]
    c12 = np.zeros_like(c11)  # entry (2k, 2k + 3) lies outside the band
    count, stride = 0, 1
    while True:
        last = p.size == 1
        # the pivots eliminated at this pass: every odd node, or the last one
        dp, dq, dr = (p, q, r) if last else (p[1::2], q[1::2], r[1::2])
        det = dp * dr - dq * dq
        if not np.all(np.isfinite(det) & (det != 0.0)):
            i = int(np.argmin(np.isfinite(det) & (det != 0.0)))
            node = 0 if last else (2 * i + 1) * stride
            raise SingularSystemError(
                node, f"singular pivot at node {node} in the inertia count of S - {mu!r} I"
            )
        # det > 0 makes p and r nonzero and of one sign
        count += int(np.count_nonzero(det < 0.0))
        count += 2 * int(np.count_nonzero((det > 0.0) & (dp < 0.0)))
        if last:
            return count
        ip, iq, ir = dr / det, -dq / det, dp / det  # D^{-1}
        # G = L D^{-1}, L = C_{j-1} from the kept node on the left
        l11, l12, l21, l22 = c11[0::2], c12[0::2], c21[0::2], c22[0::2]
        g11, g12 = l11 * ip + l12 * iq, l11 * iq + l12 * ir
        g21, g22 = l21 * ip + l22 * iq, l21 * iq + l22 * ir
        kp, kq, kr = p[0::2].copy(), q[0::2].copy(), r[0::2].copy()
        left = slice(0, dp.size)
        kp[left] -= g11 * l11 + g12 * l12
        kq[left] -= g11 * l21 + g12 * l22
        kr[left] -= g21 * l21 + g22 * l22
        # H = D^{-1} R, R = C_j to the kept node on the right, where there is one
        r11, r12, r21, r22 = c11[1::2], c12[1::2], c21[1::2], c22[1::2]
        m = r11.size
        ip, iq, ir = ip[:m], iq[:m], ir[:m]
        h11, h12 = ip * r11 + iq * r21, ip * r12 + iq * r22
        h21, h22 = iq * r11 + ir * r21, iq * r12 + ir * r22
        right = slice(1, m + 1)
        kp[right] -= r11 * h11 + r21 * h21
        kq[right] -= r11 * h12 + r21 * h22
        kr[right] -= r12 * h12 + r22 * h22
        # the new coupling between the kept neighbours, -L D^{-1} R = -L H
        l11, l12, l21, l22 = l11[:m], l12[:m], l21[:m], l22[:m]
        c11 = -(l11 * h11 + l12 * h21)
        c12 = -(l11 * h12 + l12 * h22)
        c21 = -(l21 * h11 + l22 * h21)
        c22 = -(l21 * h12 + l22 * h22)
        p, q, r, stride = kp, kq, kr, 2 * stride


def _factor(block: BandedMatrix, shift: float):
    """Cholesky factor of block - shift*I, or None: not positive definite."""
    try:
        return BandedCholesky(block, shift)
    except SingularSystemError:
        return None


def _sector_bottom(block: BandedMatrix, pole: float, tol: float, parity: int):
    """The bottom eigenpair (theta, x) of a symmetric sector block, with
    ||B x - theta x|| <= tol and |x| = 1, and the factorizations plus
    solves it took. Inverse iteration runs from x = (1, 0, 1, 0, ...), the
    first component of every node, which overlaps the bottom whatever the
    signs of its components, at the pole, stepped down until it factors.
    Once theta settles, or converges slowly, the shift moves to
    theta - 100 tol (theta - tol/2 at residual tol); a failed factorization
    keeps the last good factor, and the next shift bisects towards the
    failure. The pair returns from a solve with the block factored at
    theta - tol or above, which puts the bottom within tol of theta.
    """
    count, step = 1, max(1.0, abs(pole))
    while (chol := _factor(block, pole)) is None:
        pole, step, count = pole - step, 2.0 * step, count + 1
    lo, hi, failed = pole, math.inf, False
    x = np.zeros(block.dim)
    x[0::2] = 1.0
    theta_old = move_old = math.inf
    for _ in range(_MAX_STEPS):
        x = chol.solve(x)
        x /= np.linalg.norm(x)
        bx = block.matvec(x)
        theta = float(x @ bx)
        res = float(np.linalg.norm(bx - theta * x))
        count += 1
        if res <= tol and theta - tol <= lo:
            return theta, x, count
        move = abs(theta_old - theta)
        settled = move <= 100.0 * tol or move > 0.5 * move_old
        theta_old, move_old = theta, move
        shift = theta - (0.5 * tol if res <= tol else 100.0 * tol)
        if failed or shift >= hi:
            shift = 0.5 * (lo + hi)
        if (failed or settled or res <= tol) and shift > lo:
            new, count = _factor(block, shift), count + 1
            failed = new is None
            if failed:
                hi = shift
            else:
                chol, lo = new, shift
    raise RuntimeError(
        f"parity {parity:+d} sector bottom not certified in {_MAX_STEPS} steps: "
        f"residual {res:.3e} (tolerance {tol:.3e}), theta {theta:.6e}, and the "
        f"block factors only up to {lo:.6e}"
    )


def lowest_eigenpairs(S: BandedMatrix, shift: float) -> tuple[list, EigenCertificate]:
    """The bottom eigenpair of each mirror sector of the symmetrized
    operator S, lowest first: the two pairs behind every spectrum report.

    Raises ValueError when S does not commute with the swap-reflection to
    within residual_tolerance(S). The poles come from shift, the essential
    edge e of a solution's operator. The odd sector is solved about
    -1e-3 min(1, e), just below its bottom, the translation mode, which is
    zero up to discretisation (|lambda1| <= 2.5e-6 on the default sweep):
    from a pole at -1 inverse iteration converged at a ratio of only about
    1/3. The even sector, which holds no translation mode, is solved about
    e/2, next to its bottom. A pole at or above a sector's bottom is
    stepped down until the block factors. Two certificates on the full
    operator S follow, either of which raises RuntimeError when it fails,
    as does a sector solve that does not converge:

    - every unfolded pair has ||S psi - theta psi|| <= residual_tolerance(S),
      with theta the Rayleigh quotient;
    - a Sylvester inertia count of S - shift I finds exactly as many
      eigenvalues below shift as there are computed values below it.

    Returns the pairs (theta, psi) and their EigenCertificate. Each psi is
    the vector of S that was certified: unit length, sign-fixed so that
    its first largest-magnitude entry is positive.
    """
    tol = residual_tolerance(S)
    defect = mirror_defect(S)
    if not defect <= tol:
        raise ValueError(
            f"operator does not commute with the swap-reflection: defect "
            f"{defect:.3e} above {tol:.3e}"
        )

    pairs, max_res, solves = [], 0.0, 0
    for sector, pole in ((ODD, -1e-3 * min(1.0, shift)), (EVEN, 0.5 * shift)):
        _, x, count = _sector_bottom(sector.band(S), pole, tol, sector.parity)
        solves += count
        psi = sector.unfold(x)
        psi /= np.linalg.norm(psi)
        j = int(np.argmax(np.abs(psi)))
        if psi[j] < 0.0:
            psi = -psi
        s_psi = S.matvec(psi)
        theta = float(psi @ s_psi)
        res = float(np.linalg.norm(s_psi - theta * psi))
        if not res <= tol:
            raise RuntimeError(
                f"sector pair (theta {theta:.6e}, parity {sector.parity:+d}) has "
                f"residual {res:.3e} above the tolerance {tol:.3e}"
            )
        max_res = max(max_res, res)
        pairs.append((theta, psi))
    order = np.argsort([theta for theta, _ in pairs], kind="stable")
    pairs = [pairs[i] for i in order]

    expected = sum(theta < shift for theta, _ in pairs)
    found = count_below(S, shift)
    if found != expected:
        raise RuntimeError(
            f"inertia count found {found} eigenvalues below {shift:.6e}, "
            f"but the sector solves returned {expected}"
        )
    return pairs, EigenCertificate(shift, found, max_res, tol, solves)


def nondegeneracy_report(sol: HeteroclinicSolution) -> tuple[SpectrumReport, list]:
    """Bottom-of-spectrum summary about a converged solution, with the
    two sector eigenpairs it was read from: the operator is
    assembled about sol and solved by
    lowest_eigenpairs(S, essential_edge(sol.lam)).

    The pairs are (theta, (phi1, phi2)) in natural variables,
    phi = psi / sqrt(w) on the interior nodes with w the cell weights:
    full-length component pairs with zero boundary entries and unit norm
    in the lumped-mass inner product. alignment is the normalized
    lumped-mass pairing of the bottom eigenvector with the translation
    mode (v1', v2'). The certificate of the solve is copied beside the
    eigenvalues; with that shift its inertia_count is the number of bound
    states below the essential edge.
    """
    pairs, cert = lowest_eigenpairs(assemble_linearized(sol), essential_edge(sol.lam))
    n = sol.grid.n
    w = flux_stencil(sol.grid).w
    sqrt_w = np.sqrt(w)
    modes = []
    for theta, psi in pairs:
        phi1 = np.zeros(n)
        phi2 = np.zeros(n)
        phi1[1:-1] = psi[0::2] / sqrt_w
        phi2[1:-1] = psi[1::2] / sqrt_w
        modes.append((theta, (phi1, phi2)))

    def inner(f, g) -> float:
        # lumped-mass inner product of full-length component pairs
        return float(np.sum(w * (f[0][1:-1] * g[0][1:-1] + f[1][1:-1] * g[1][1:-1])))

    u = (sol.dv1, sol.dv2)
    u_norm = math.sqrt(inner(u, u))
    lam1, bottom = modes[0]
    lam2 = modes[1][0]
    alignment = abs(inner(bottom, u)) / u_norm  # eigenvectors have unit norm
    return SpectrumReport(
        lam=sol.lam,
        lambda1=lam1,
        lambda2=lam2,
        alignment=alignment,
        gap=lam2 - lam1,
        n=n,
        L=sol.L,
        inertia_shift=cert.shift,
        inertia_count=cert.count_below,
        max_residual=cert.max_residual,
        solves=cert.solves,
    ), modes
