"""Independent oracle for the spectrum tests: the linearized operator
assembled from the potentials of the linearization,

    M (p1, p2) = (-p1'' + q1 p1 + c p2, -p2'' + q2 p2 + c p1),

rather than taken from the Newton Jacobian as beclab does, and the
sequential inertia count that beclab's cyclic reduction replaced."""

from __future__ import annotations

import math

import numpy as np

from beclab import BandedMatrix, SingularSystemError
from beclab.grids import flux_stencil


def potentials(sol):
    """Nodal (q1, q2, c) of the linearization about a heteroclinic."""
    lam, v1, v2 = sol.lam, sol.v1, sol.v2
    return (
        3.0 * v1**2 - 1.0 + lam * v2**2,
        3.0 * v2**2 - 1.0 + lam * v1**2,
        2.0 * lam * v1 * v2,
    )


def operator(grid, q1, q2, coupling) -> BandedMatrix:
    """S = -W^{-1/2} J W^{-1/2}, J the flux-form band of M filled from full
    nodal samples (boundary entries unused), W the cell weights."""
    st = flux_stencil(grid)
    q1, q2, coupling = (np.asarray(a, dtype=float)[1:-1] for a in (q1, q2, coupling))
    jac = BandedMatrix.zeros(2 * (grid.n - 2), 2)
    st.fill_pair_rows(jac, 0, st.mid - st.w * q1, st.mid - st.w * q2, -st.w * coupling)
    s = np.repeat(1.0 / np.sqrt(st.w), 2)
    bw, dim = jac.bandwidth, jac.dim
    for d in range(-bw, bw + 1):
        j = np.arange(max(0, d), dim + min(0, d))  # entry (j - d, j)
        jac.data[bw - d, j] *= -(s[j - d] * s[j])
    return jac


def natural(grid, psi):
    """Full-length natural components (phi1, phi2) of an interleaved
    symmetrized vector psi of S: psi / sqrt(w) on the interior nodes, zero
    at both ends."""
    sqrt_w = np.sqrt(flux_stencil(grid).w)
    phi1, phi2 = np.zeros(grid.n), np.zeros(grid.n)
    phi1[1:-1] = psi[0::2] / sqrt_w
    phi2[1:-1] = psi[1::2] / sqrt_w
    return phi1, phi2


def lumped_inner(grid, f, g) -> float:
    """Lumped-mass inner product of full-length component pairs."""
    w = flux_stencil(grid).w
    return float(np.sum(w * (f[0][1:-1] * g[0][1:-1] + f[1][1:-1] * g[1][1:-1])))


def apply_natural(grid, q1, q2, coupling, phi1, phi2):
    """M applied in natural variables to full-length arrays; the interior
    components of the result (boundary entries enter as data)."""
    st = flux_stencil(grid)
    q1, q2, coupling = (np.asarray(a, dtype=float)[1:-1] for a in (q1, q2, coupling))
    r1 = -st.apply(phi1) / st.w + q1 * phi1[1:-1] + coupling * phi2[1:-1]
    r2 = -st.apply(phi2) / st.w + q2 * phi2[1:-1] + coupling * phi1[1:-1]
    return r1, r2


def count_below_sequential(S: BandedMatrix, mu: float) -> int:
    """Reference for spectrum.count_below: Sylvester's law of inertia on
    the block LDL^T factorisation of S - mu I over the 2x2 node blocks
    A_k, one node at a time. The blocks between neighbouring nodes are
    o_k I, so the pivots obey D_k = A_k - mu I - o_{k-1}^2 D_{k-1}^{-1},
    and each D_k contributes its negative eigenvalues (one when
    det D_k < 0, two when det D_k > 0 > trace D_k). A singular pivot
    raises SingularSystemError."""
    data, bw = S.data, S.bandwidth
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
            raise SingularSystemError(
                k, f"singular pivot at node {k} in the inertia count of S - {mu!r} I"
            )
        if det < 0.0:
            count += 1
        elif p + r < 0.0:
            count += 2
    return count
