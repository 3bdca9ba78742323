"""Independent oracle for the spectrum tests: the linearized operator
assembled from the potentials of the linearization,

    M (p1, p2) = (-p1'' + q1 p1 + c p2, -p2'' + q2 p2 + c p1),

rather than taken from the Newton Jacobian as beclab does."""

from __future__ import annotations

import numpy as np

from beclab import BandedMatrix, LinearizedOperator
from beclab.grids import flux_stencil


def potentials(sol):
    """Nodal (q1, q2, c) of the linearization about a heteroclinic."""
    lam, v1, v2 = sol.lam, sol.v1, sol.v2
    return (
        3.0 * v1**2 - 1.0 + lam * v2**2,
        3.0 * v2**2 - 1.0 + lam * v1**2,
        2.0 * lam * v1 * v2,
    )


def operator(grid, q1, q2, coupling) -> LinearizedOperator:
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
    return LinearizedOperator(grid, jac, st.w)


def apply_natural(grid, q1, q2, coupling, phi1, phi2):
    """M applied in natural variables to full-length arrays; the interior
    components of the result (boundary entries enter as data)."""
    st = flux_stencil(grid)
    q1, q2, coupling = (np.asarray(a, dtype=float)[1:-1] for a in (q1, q2, coupling))
    r1 = -st.apply(phi1) / st.w + q1 * phi1[1:-1] + coupling * phi2[1:-1]
    r2 = -st.apply(phi2) / st.w + q2 * phi2[1:-1] + coupling * phi1[1:-1]
    return r1, r2
