"""One-dimensional meshes and the finite-difference stencils shared by
every assembly in the package.

A grid on [a, b] is fixed by its node count n and the bound `ratio` on the
spacing quotient of adjacent cells. With ratio = 1 the nodes are equally
spaced. Otherwise they follow a sinh map symmetric about the midpoint c:
with u uniform on [0, 1], x(u) = c + A*sinh(beta*(u - 1/2)), which clusters
nodes at c while bounding the spacing quotient by exp(beta/(n-1)), so the
map strength is beta = (n-1)*log(ratio).

First and second differences come from one stencil (FluxStencil): the
one-sided slopes s- and s+ over the cells left and right of an interior
node. Their difference is the flux form of the second difference, the cell
weight times v''. It stays second order on smoothly graded meshes, and its
rows scale like 1/h rather than 1/h^2, which keeps the rounding floor low.
Their mean weighted by the opposite cell widths is the nodal first
derivative (differentiate), exact on quadratics and mirror-exact bit for
bit; the two boundary nodes use the same quadratic one-sidedly.

Two-component systems on a graded mesh of [-L, L] with odd n (an exact
mirror about 0 whose middle node is exactly 0) commute with the
swap-reflection (v1, v2)(z) -> (v2, v1)(-z). In the interleaved interior
layout of FluxStencil.fill_pair_rows that map reverses the unknown
vector, and MirrorSector folds bands onto its even and odd sectors and
unfolds sector vectors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .banded import BandedMatrix

__all__ = [
    "RATIO_CAP",
    "Grid",
    "make_grid",
    "beta_for_half_window",
    "beta_for_center_spacing",
    "ratio_from_beta",
    "differentiate",
    "FluxStencil",
    "flux_stencil",
    "EVEN",
    "ODD",
    "mirror_defect",
    "edge_first_weights",
]

# Hard bound on the adjacent-cell spacing quotient of graded grids.
RATIO_CAP = 1.2


@dataclass(frozen=True, eq=False)
class Grid:
    nodes: np.ndarray

    @property
    def n(self) -> int:
        return self.nodes.shape[0]

    @property
    def b(self) -> float:
        return float(self.nodes[-1])


def make_grid(a: float, b: float, n: int, ratio: float = 1.0) -> Grid:
    """Build a grid on [a, b] with n nodes and adjacent-cell spacing
    quotient at most ratio: uniform for ratio = 1, otherwise sinh-graded
    and finest at the midpoint. A graded grid with a = -b is an exact
    mirror, nodes[k] == -nodes[n-1-k] bit for bit, and for odd n its
    middle node is exactly 0.

    Raises ValueError for a >= b, n < 16, ratio outside [1, RATIO_CAP], or
    a map strength beta = (n-1)*log(ratio) above 50.
    """
    if not a < b:
        raise ValueError(f"need a < b, got a={a}, b={b}")
    if n < 16:
        raise ValueError(f"need n >= 16, got n={n}")
    if not (1.0 <= ratio <= RATIO_CAP + 1e-12):
        raise ValueError(f"grading ratio {ratio} outside [1, {RATIO_CAP}]")
    beta = (n - 1) * math.log(ratio)
    if beta > 50.0:
        raise ValueError(f"grading too strong: beta={beta:.1f} would degenerate the map")
    if beta == 0.0:
        nodes = np.linspace(a, b, n)
    else:
        c = 0.5 * (a + b)
        amp = (b - c) / math.sinh(0.5 * beta)
        # u - 1/2 as an exactly antisymmetric ramp, so that the nodes are
        # an exact mirror about c and, for odd n, the middle node is c
        ramp = (np.arange(n) - 0.5 * (n - 1)) / (n - 1)
        nodes = c + amp * np.sinh(beta * ramp)
        nodes[0] = a
        nodes[-1] = b
    if not np.all(np.diff(nodes) > 0.0):
        raise ValueError("grid construction produced non-increasing nodes")
    return Grid(nodes=nodes)


def beta_for_half_window(length: float, half_width: float) -> float:
    """Map strength that puts half the nodes of a symmetric grid on
    [-length, length] inside |x| <= half_width.

    The middle half of the u-interval maps to |x| <= A*sinh(beta/4); setting
    that equal to half_width gives cosh(beta/4) = length/(2*half_width).
    Returns 0 when the window already covers half the domain or more.
    """
    if half_width <= 0.0:
        raise ValueError("half_width must be positive")
    arg = length / (2.0 * half_width)
    if arg <= 1.0:
        return 0.0
    return 4.0 * math.acosh(arg)


def beta_for_center_spacing(length: float, n: int, h_center: float) -> float:
    """Map strength giving center spacing ~ h_center on a symmetric grid
    [-length, length] with n nodes.

    Solves length*beta / (sinh(beta/2)*(n-1)) = h_center for beta
    (monotone decreasing left side). Returns 0 when the uniform spacing is
    already at or below the target.
    """
    if h_center <= 0.0:
        raise ValueError("h_center must be positive")
    if 2.0 * length / (n - 1) <= h_center:
        return 0.0

    def center_h(beta: float) -> float:
        return length * beta / (math.sinh(0.5 * beta) * (n - 1))

    lo, hi = 1e-8, 60.0
    if center_h(hi) > h_center:
        return hi
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if center_h(mid) > h_center:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def ratio_from_beta(beta: float, n: int) -> float:
    """Adjacent-cell ratio of the sinh map, capped at RATIO_CAP."""
    return min(math.exp(beta / (n - 1)), RATIO_CAP)


def edge_first_weights(x0: float, x1: float, x2: float):
    """One-sided first-derivative weights at x0 from nodes x0, x1, x2."""
    return (
        (2.0 * x0 - x1 - x2) / ((x0 - x1) * (x0 - x2)),
        (x0 - x2) / ((x1 - x0) * (x1 - x2)),
        (x0 - x1) / ((x2 - x0) * (x2 - x1)),
    )


def differentiate(values: np.ndarray, grid: Grid) -> np.ndarray:
    """Nodal first derivative, second order everywhere (one-sided at ends):
    (hm*s+ + hp*s-)/(hm + hp) inside, from the cell slopes (the flux
    stencil's s- and s+, without its coefficient arrays). On a mirror mesh
    differentiate(v[::-1]) == -differentiate(v)[::-1] exactly."""
    values = np.asarray(values, dtype=float)
    if values.shape != grid.nodes.shape:
        raise ValueError("values and grid node counts differ")
    x = grid.nodes
    h = np.diff(x)
    s = np.diff(values) / h
    out = np.empty_like(values)
    out[1:-1] = (h[:-1] * s[1:] + h[1:] * s[:-1]) / (h[:-1] + h[1:])
    wl = edge_first_weights(x[0], x[1], x[2])
    out[0] = wl[0] * values[0] + wl[1] * values[1] + wl[2] * values[2]
    wr = edge_first_weights(x[-1], x[-2], x[-3])
    out[-1] = wr[0] * values[-1] + wr[1] * values[-2] + wr[2] * values[-3]
    return out


@dataclass(frozen=True, eq=False)
class FluxStencil:
    """Flux form of the second difference on the interior nodes k = 1..n-2.

    hm and hp are the widths of the cells left and right of node k, and
    w = (hm + hp)/2 is its cell weight. apply(v) is s+ - s- with the
    one-sided slopes s- = (v_k - v_{k-1})/hm and s+ = (v_{k+1} - v_k)/hp,
    which approximates w*v''; lo, mid and hi are its coefficients of
    v_{k-1}, v_k and v_{k+1}.
    """

    hm: np.ndarray
    hp: np.ndarray
    w: np.ndarray
    lo: np.ndarray
    mid: np.ndarray
    hi: np.ndarray

    def apply(self, v: np.ndarray) -> np.ndarray:
        return (v[2:] - v[1:-1]) / self.hp - (v[1:-1] - v[:-2]) / self.hm

    def fill_pair_rows(self, mat: BandedMatrix, first: int, diag1, diag2, cross) -> None:
        """Write the interior rows of a two-component system into mat.

        Unknowns are interleaved per node, (v1, v2); the v1 row of node k
        is first + 2*(k-1). Each row holds the stencil on its own
        component with the diagonal replaced by diag1 or diag2, and the
        node-local coupling cross to the other component. A neighbour
        whose column lies outside mat is an eliminated Dirichlet value and
        gets no entry.
        """
        data, bw = mat.data, mat.bandwidth
        m = self.w.shape[0]
        start = 0 if first >= 2 else 1  # first node with a left neighbour column
        stop = m if first + 2 * m < mat.dim else m - 1  # nodes with a right one
        # data[bw - d, i + d] holds entry (i, i + d)
        data[bw - 1, first + 1 : first + 2 * m : 2] = cross
        data[bw + 1, first : first + 2 * m : 2] = cross
        for col, diag in ((first, diag1), (first + 1, diag2)):
            data[bw, col : col + 2 * m : 2] = diag
            data[bw + 2, col - 2 + 2 * start : col - 2 + 2 * m : 2] = self.lo[start:]
            data[bw - 2, col + 2 : col + 2 + 2 * stop : 2] = self.hi[:stop]


def flux_stencil(grid: Grid) -> FluxStencil:
    """Cell widths, cell weights and flux coefficients of grid's interior."""
    x = grid.nodes
    hm = x[1:-1] - x[:-2]
    hp = x[2:] - x[1:-1]
    return FluxStencil(hm, hp, 0.5 * (hm + hp), 1.0 / hm, -1.0 / hm - 1.0 / hp, 1.0 / hp)


@dataclass(frozen=True)
class MirrorSector:
    """One parity sector of the swap-reflection on interleaved interior
    unknowns u (length 2m, m = n - 2 odd): entry i mirrors to entry
    2m - 1 - i, so the middle node's v1 and v2 mirror to each other.

    The fold F is orthonormal: sector coordinate i < m is
    (u_i + parity*u_{2m-1-i})/sqrt(2). unfold applies F^T, whose result is
    exactly (anti)symmetric under reversal. band(A) is the sector
    block F A F^T of a band A with F the fold, built from the stored
    diagonals alone: with T = (A + R A R)/2, R the reversal, the block is
    T's leading m x m corner plus parity times T's upper-right entries
    folded back through the mirror column. It is exactly symmetric when A
    is, and it equals A's sector block when A commutes with R.
    """

    parity: int

    def unfold(self, x: np.ndarray) -> np.ndarray:
        return np.concatenate((x, self.parity * x[::-1])) * _SQRT_HALF

    def band(self, mat: BandedMatrix) -> BandedMatrix:
        bw, m = mat.bandwidth, mat.dim // 2
        # R A R is stored as data reversed along both axes; the block reads
        # T's first m + bw columns only
        keep = slice(0, m + bw)
        t = 0.5 * (mat.data[:, keep] + mat.data[::-1, ::-1][:, keep])
        out = BandedMatrix.zeros(m, bw)
        for offset, _, cols, band in out.diagonals():
            band[:] = t[bw - offset, cols]
        # entry (i, j) with i < m <= j lands on sector column 2m - 1 - j
        for d in range(1, bw + 1):
            for i in range(m - d, m):
                k = 2 * m - 1 - (i + d)
                out.data[bw + i - k, k] += self.parity * t[bw - d, i + d]
        return out


_SQRT_HALF = math.sqrt(0.5)
EVEN = MirrorSector(1)
ODD = MirrorSector(-1)


def mirror_defect(mat: BandedMatrix) -> float:
    """max |A - R A R| over the band: 0 when A commutes with the reversal R
    of the interleaved unknowns, the swap-reflection."""
    return float(np.max(np.abs(mat.data - mat.data[::-1, ::-1])))
