from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from banded_helpers import to_dense
from beclab import BandedMatrix, differentiate, make_grid
from beclab.grids import (
    EVEN,
    Grid,
    ODD,
    RATIO_CAP,
    beta_for_center_spacing,
    beta_for_half_window,
    flux_stencil,
    mirror_defect,
    ratio_from_beta,
)
from beclab.heteroclinic import default_domain_halfwidth, default_grid


def test_uniform_nodes_closed_form():
    grid = make_grid(0.0, 1.0, 17)
    assert np.allclose(grid.nodes, np.arange(17) / 16.0, rtol=0.0, atol=1e-15)
    assert grid.nodes[0] == 0.0 and grid.nodes[-1] == 1.0
    assert grid.n == 17 and grid.b == 1.0


def test_graded_min_spacing_at_center():
    grid = make_grid(-30.0, 30.0, 2049, 1.02)
    h = np.diff(grid.nodes)
    mid = int(np.argmin(h))
    assert abs(mid - (2049 - 1) // 2) <= 1
    quotient = np.maximum(h[1:] / h[:-1], h[:-1] / h[1:])
    assert float(np.max(quotient)) <= 1.02 + 1e-12
    # symmetric grading about 0
    assert np.allclose(grid.nodes, -grid.nodes[::-1], atol=1e-12)


def test_graded_ratio_cap_small_grid():
    grid = make_grid(0.0, 1.0, 33, 1.2)
    h = np.diff(grid.nodes)
    quotient = np.maximum(h[1:] / h[:-1], h[:-1] / h[1:])
    assert float(np.max(quotient)) <= 1.2 + 1e-12
    assert int(np.argmin(h)) in (15, 16)


def test_graded_off_center():
    # an interval not centred on 0 is graded about its own midpoint
    grid = make_grid(-1.0, 3.0, 65, 1.1)
    h = np.diff(grid.nodes)
    mid = int(np.argmin(h))
    cell_center = 0.5 * (grid.nodes[mid] + grid.nodes[mid + 1])
    assert abs(cell_center - 1.0) < 0.05
    assert np.allclose(grid.nodes + grid.nodes[::-1], 2.0, rtol=0.0, atol=1e-14)
    quotient = np.maximum(h[1:] / h[:-1], h[:-1] / h[1:])
    assert float(np.max(quotient)) <= 1.1 + 1e-12


def test_make_grid_validation():
    with pytest.raises(ValueError):
        make_grid(1.0, 0.0, 17)
    with pytest.raises(ValueError):
        make_grid(0.0, 1.0, 15)
    with pytest.raises(ValueError):
        make_grid(0.0, 1.0, 17, 0.9)
    with pytest.raises(ValueError):
        make_grid(0.0, 1.0, 17, 1.5)
    with pytest.raises(ValueError):
        # per-cell ratio at large n would degenerate the sinh map
        make_grid(-30.0, 30.0, 2049, 1.2)
    # ratio 1 is the uniform grid
    assert make_grid(0.0, 1.0, 17, 1.0).nodes.tobytes() == np.linspace(0.0, 1.0, 17).tobytes()


def _ramp(n: int) -> np.ndarray:
    # u - 1/2 for u uniform on [0, 1], exactly antisymmetric
    return (np.arange(n) - 0.5 * (n - 1)) / (n - 1)


def _sinh_reference(L: float, n: int, beta: float) -> np.ndarray:
    # The symmetric construction: beta goes through the capped ratio and
    # back, then the sinh map about 0 of the antisymmetric ramp.
    ratio = ratio_from_beta(beta, n)
    beta = (n - 1) * math.log(ratio)
    if beta <= 0.0:
        return np.linspace(-L, L, n)
    nodes = L / math.sinh(0.5 * beta) * np.sinh(beta * _ramp(n))
    nodes[0], nodes[-1] = -L, L
    return nodes


@pytest.mark.parametrize("n", [17, 41, 513, 1025, 4097, 8193, 32769])
def test_ramp_matches_linspace_on_power_of_two_cells(n):
    # when n - 1 is a power of two, the ramp is the old map argument
    # linspace(0, 1, n) - 0.5 bit for bit, so those meshes kept their
    # nodes; only other n (here 41) changed
    same = _ramp(n).tobytes() == (np.linspace(0.0, 1.0, n) - 0.5).tobytes()
    assert same == ((n - 1) & (n - 2) == 0)


@pytest.mark.parametrize("n", [41, 1025, 8193])
@pytest.mark.parametrize("lam", [3.0, 10.0, 1e3, 1e6])
def test_default_grid_bitwise_reference(lam, n):
    L = default_domain_halfwidth(lam)
    beta = max(
        beta_for_half_window(L, max(4.0 * math.log(lam) * lam**-0.25, 2.0)),
        beta_for_center_spacing(L, n, 2.5e-3 * lam**-0.25),
    )
    expect = _sinh_reference(L, n, beta)
    assert default_grid(lam, L, n).nodes.tobytes() == expect.tobytes()


def test_core_grid_bitwise_reference(blowup_wide):
    # solve_blowup(X=15, n=4097) grades its mesh with map strength 6
    expect = _sinh_reference(15.0, 4097, 6.0)
    assert blowup_wide.grid.nodes.tobytes() == expect.tobytes()


@settings(max_examples=200, deadline=None)
@given(
    c=st.floats(-10.0, 10.0),
    half=st.floats(1.0, 100.0),
    n=st.integers(16, 4097),
    beta=st.floats(0.0, 49.0),  # 50 itself may round up past the limit
)
def test_make_grid_properties(c, half, n, beta):
    a, b = c - half, c + half
    ratio = ratio_from_beta(beta, n)
    x = make_grid(a, b, n, ratio).nodes
    assert x.shape == (n,)
    assert x[0] == a and x[-1] == b
    h = np.diff(x)
    assert np.all(h > 0.0)
    # rounding: the map argument carries about beta ulps, so each node
    # carries about (1 + beta) ulps of max|x|
    slack = 4.0 * (1.0 + (n - 1) * math.log(ratio)) * np.finfo(float).eps * max(abs(a), abs(b))
    assert np.all(h[1:] <= ratio * h[:-1] + slack)
    assert np.all(h[:-1] <= ratio * h[1:] + slack)
    assert np.max(np.abs(x + x[::-1] - (a + b))) <= slack


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(16, 8193),
    low=st.floats(0.0, 1.0, exclude_max=True),
    high=st.floats(RATIO_CAP + 1e-9, 10.0),
    beta=st.floats(50.001, 200.0),
)
def test_make_grid_rejects_bad_ratios(n, low, high, beta):
    for ratio in (low, high):
        with pytest.raises(ValueError):
            make_grid(-1.0, 1.0, n, ratio)
    strong = math.exp(beta / (n - 1))
    if strong <= RATIO_CAP:  # beta > 50 within the cap needs n > 275
        with pytest.raises(ValueError, match="too strong"):
            make_grid(-1.0, 1.0, n, strong)


def test_beta_for_half_window():
    # window already covering half the domain needs no grading
    assert beta_for_half_window(30.0, 15.0) == 0.0
    beta = beta_for_half_window(30.0, 3.0)
    assert beta == pytest.approx(4.0 * math.acosh(5.0), rel=1e-12)
    with pytest.raises(ValueError):
        beta_for_half_window(30.0, 0.0)


def test_beta_for_center_spacing_solves_defining_equation():
    length, n, h_center = 30.0, 2049, 5e-3
    beta = beta_for_center_spacing(length, n, h_center)
    achieved = length * beta / (math.sinh(0.5 * beta) * (n - 1))
    assert achieved == pytest.approx(h_center, rel=1e-6)
    # already-fine uniform spacing maps to zero strength
    assert beta_for_center_spacing(1.0, 2049, 1.0) == 0.0
    with pytest.raises(ValueError):
        beta_for_center_spacing(30.0, 2049, 0.0)


def hundred_pass_beta(length: float, n: int, h_center: float) -> float:
    """beta_for_center_spacing's bisection run for all of its 100 passes."""
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


@pytest.mark.parametrize("length", [20.0, 25.0, 37.5, 60.0])
@pytest.mark.parametrize("n", [41, 513, 1001, 8193, 32769, 131073])
def test_beta_for_center_spacing_stops_where_bisection_stops_moving(length, n):
    # once the bracket holds adjacent doubles every pass repeats itself, so
    # stopping there gives the 100-pass beta bit for bit; the targets
    # include default_grid's 2.5e-3*lam^{-1/4} from lam = 1.5 to 1e6
    for h_center in np.geomspace(1e-5, 1.0, 41):
        got = beta_for_center_spacing(length, n, float(h_center))
        assert got.hex() == hundred_pass_beta(length, n, float(h_center)).hex()


def test_ratio_from_beta_cap():
    assert ratio_from_beta(0.0, 17) == 1.0
    assert ratio_from_beta(1e3, 17) == RATIO_CAP
    assert ratio_from_beta(16.0, 17) == pytest.approx(min(math.e, RATIO_CAP))


def test_differentiate_exact_on_quadratics():
    # 3-point Lagrange differentiation reproduces polynomials of degree 2
    grid = make_grid(-2.0, 3.0, 41, 1.1)
    x = grid.nodes
    d = differentiate(x**2 - 3.0 * x + 1.0, grid)
    assert np.allclose(d, 2.0 * x - 3.0, atol=1e-11)


def test_differentiate_second_order():
    def sup_error(n: int) -> float:
        grid = make_grid(0.0, math.pi, n)
        d = differentiate(np.sin(grid.nodes), grid)
        return float(np.max(np.abs(d - np.cos(grid.nodes))))

    e1, e2 = sup_error(101), sup_error(201)
    assert 3.4 <= e1 / e2 <= 4.6


def _lagrange_derivative(values, x):
    # the three-point Lagrange weights differentiate used to carry (the
    # derivative at `at` of the quadratic through x0, x1, x2), and the sum
    # of the absolute terms, the scale of their rounding
    def weights(x0, x1, x2, at):
        return (
            (2.0 * at - x1 - x2) / ((x0 - x1) * (x0 - x2)),
            (2.0 * at - x0 - x2) / ((x1 - x0) * (x1 - x2)),
            (2.0 * at - x0 - x1) / ((x2 - x0) * (x2 - x1)),
        )

    inner = (values[:-2], values[1:-1], values[2:])
    rows = [
        (slice(1, -1), weights(x[:-2], x[1:-1], x[2:], x[1:-1]), inner),
        (0, weights(x[0], x[1], x[2], x[0]), values[:3]),
        (-1, weights(x[-1], x[-2], x[-3], x[-1]), values[:-4:-1]),
    ]
    out, scale = np.empty_like(values), np.empty_like(values)
    for at, (w0, w1, w2), (v0, v1, v2) in rows:
        out[at] = w0 * v0 + w1 * v1 + w2 * v2
        scale[at] = abs(w0 * v0) + abs(w1 * v1) + abs(w2 * v2)
    return out, scale


@pytest.mark.parametrize(
    "grid",
    [
        make_grid(0.0, math.pi, 101),
        make_grid(-2.0, 3.0, 41, 1.1),
        default_grid(1e3, default_domain_halfwidth(1e3), 1001),
        default_grid(1e6, default_domain_halfwidth(1e6), 8193),
    ],
    ids=["uniform", "graded", "lam1e3", "lam1e6"],
)
def test_differentiate_matches_lagrange_weights(grid):
    # the slope form is the same quadratic's derivative: it agrees with
    # the Lagrange weights to 1e-12 relative to the size of the stencil
    # terms, and the end rows bit for bit
    x = grid.nodes
    rng = np.random.default_rng(7)
    for values in (np.tanh(x), np.sin(3.0 * x) + x**2, rng.uniform(-1.0, 1.0, x.shape)):
        new = differentiate(values, grid)
        old, scale = _lagrange_derivative(values, x)
        assert np.all(np.abs(new - old) <= 1e-12 * scale)
        assert new[0] == old[0] and new[-1] == old[-1]


def _mirror_mesh(half: np.ndarray) -> np.ndarray:
    # odd node count, middle node 0.0, nodes[k] == -nodes[n-1-k]
    return np.concatenate((-half[::-1], [0.0], half))


@settings(max_examples=60, deadline=None)
@given(
    half=st.integers(8, 200),
    spread=st.floats(0.0, 3.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_differentiate_is_mirror_exact(half, spread, seed):
    # reversing a field on a mirror mesh reverses its derivative and flips
    # its sign, bit for bit
    rng = np.random.default_rng(seed)
    cells = np.exp(spread * rng.uniform(-1.0, 1.0, half))
    grid = Grid(nodes=_mirror_mesh(np.cumsum(cells) * rng.uniform(0.1, 10.0)))
    v = rng.uniform(-1.0, 1.0, grid.n) * 10.0 ** rng.uniform(-3.0, 3.0)
    assert np.array_equal(differentiate(v[::-1], grid), -differentiate(v, grid)[::-1])
    # also on the meshes the solver builds
    lam = 10.0 ** rng.uniform(0.1, 6.0)
    mesh = default_grid(lam, default_domain_halfwidth(lam), 2 * (half + 256) + 1)
    w = rng.uniform(-1.0, 1.0, mesh.n)
    assert np.array_equal(differentiate(w[::-1], mesh), -differentiate(w, mesh)[::-1])


def test_flux_stencil_exact_on_quadratics():
    # the flux difference of x^2 is hp + hm = 2w, i.e. w times (x^2)''
    grid = make_grid(-2.0, 3.0, 41, 1.1)
    st = flux_stencil(grid)
    x = grid.nodes
    assert np.allclose(st.apply(x**2 - 3.0 * x + 1.0), 2.0 * st.w, rtol=1e-12)
    assert np.allclose(st.apply(x), 0.0, atol=1e-12)
    assert np.allclose(st.lo + st.mid + st.hi, 0.0, atol=1e-9)


def test_pair_rows_apply_the_stencil():
    rng = np.random.default_rng(5)
    grid = make_grid(-1.0, 2.0, 21, 1.1)
    st = flux_stencil(grid)
    n, m = grid.n, grid.n - 2
    v1, v2 = rng.uniform(-1.0, 1.0, n), rng.uniform(-1.0, 1.0, n)
    d1, d2, cross = (rng.uniform(-1.0, 1.0, m) for _ in range(3))
    expect1 = st.apply(v1) + (d1 - st.mid) * v1[1:-1] + cross * v2[1:-1]
    expect2 = st.apply(v2) + (d2 - st.mid) * v2[1:-1] + cross * v1[1:-1]

    def interleave(a, b):
        u = np.empty(2 * a.shape[0])
        u[0::2], u[1::2] = a, b
        return u

    # boundary nodes are unknowns: interior rows start at row 2
    full = BandedMatrix.zeros(2 * n, 2)
    st.fill_pair_rows(full, 2, d1, d2, cross)
    r = full.matvec(interleave(v1, v2))
    assert np.allclose(r[2:-2:2], expect1, atol=1e-12)
    assert np.allclose(r[3:-2:2], expect2, atol=1e-12)
    assert np.all(to_dense(full)[[0, 1, -2, -1]] == 0.0)  # boundary rows untouched

    # boundary values eliminated: they enter as data, not as columns
    inner = BandedMatrix.zeros(2 * m, 2)
    st.fill_pair_rows(inner, 0, d1, d2, cross)
    r = inner.matvec(interleave(v1[1:-1], v2[1:-1]))
    r[:2] += st.lo[0] * np.array([v1[0], v2[0]])
    r[-2:] += st.hi[-1] * np.array([v1[-1], v2[-1]])
    assert np.allclose(r[0::2], expect1, atol=1e-12)
    assert np.allclose(r[1::2], expect2, atol=1e-12)


def random_symmetric_band(rng, dim: int, bw: int) -> BandedMatrix:
    mat = BandedMatrix.zeros(dim, bw)
    dense = rng.uniform(-1.0, 1.0, (dim, dim))
    dense = np.triu(np.tril(dense + dense.T, bw), -bw)
    for i, j in zip(*np.nonzero(dense)):
        mat.set_entry(int(i), int(j), float(dense[i, j]))
    return mat


def fold_matrix(sector, dim: int) -> np.ndarray:
    """The fold as a dense (dim/2, dim) matrix, row by row: unfold is its
    transpose."""
    return np.array([sector.unfold(e) for e in np.eye(dim // 2)])


@settings(max_examples=30, deadline=None)
@given(m=st.integers(3, 12).map(lambda k: 2 * k + 1), seed=st.integers(0, 2**32 - 1))
def test_mirror_sector_band_is_the_folded_block(m, seed):
    # any symmetric band: F A F^T, exactly symmetric, from the band alone
    rng = np.random.default_rng(seed)
    mat = random_symmetric_band(rng, 2 * m, 2)
    dense = to_dense(mat)
    for sector in (EVEN, ODD):
        f = fold_matrix(sector, 2 * m)
        assert np.allclose(f @ f.T, np.eye(m), rtol=0.0, atol=1e-15)
        block = to_dense(sector.band(mat))
        assert np.allclose(block, f @ dense @ f.T, rtol=0.0, atol=1e-14)
        assert np.array_equal(block, block.T)
        x = rng.uniform(-1.0, 1.0, m)
        u = sector.unfold(x)
        assert np.array_equal(u[::-1], sector.parity * u)
        assert np.allclose(u, f.T @ x, rtol=0.0, atol=1e-15)
        assert np.allclose(f @ u, x, rtol=0.0, atol=1e-15)


def band_full_width(sector, mat: BandedMatrix) -> BandedMatrix:
    """MirrorSector.band's formula with T = (A + RAR)/2 formed on all 2m
    columns: the oracle of the one that forms only the columns it reads."""
    bw, m = mat.bandwidth, mat.dim // 2
    t = 0.5 * (mat.data + mat.data[::-1, ::-1])
    out = BandedMatrix.zeros(m, bw)
    for offset, _, cols, band in out.diagonals():
        band[:] = t[bw - offset, cols]
    for d in range(1, bw + 1):
        for i in range(m - d, m):
            k = 2 * m - 1 - (i + d)
            out.data[bw + i - k, k] += sector.parity * t[bw - d, i + d]
    return out


@settings(max_examples=60, deadline=None)
@given(
    bw=st.integers(1, 3),
    extra=st.integers(1, 12),
    seed=st.integers(0, 2**32 - 1),
)
def test_mirror_sector_band_equals_the_full_width_fold(bw, extra, seed):
    # a random band that commutes neither with the reversal nor with its
    # transpose, every sector size m > bw, both sectors: bit for bit
    rng = np.random.default_rng(seed)
    m = bw + extra
    mat = BandedMatrix.zeros(2 * m, bw)
    for _, _, _, band in mat.diagonals():
        band[:] = rng.uniform(-1.0, 1.0, band.shape)
    assert mirror_defect(mat) > 0.0
    for sector in (EVEN, ODD):
        assert np.array_equal(sector.band(mat).data, band_full_width(sector, mat).data)


def test_mirror_sectors_split_a_commuting_band():
    # A commuting with the reversal R is block diagonal in the two sectors:
    # its spectrum is the union of the sector spectra
    rng = np.random.default_rng(11)
    m = 9
    mat = random_symmetric_band(rng, 2 * m, 2)
    mat.data[:] = 0.5 * (mat.data + mat.data[::-1, ::-1])
    assert mirror_defect(mat) == 0.0
    dense = to_dense(mat)
    even, odd = fold_matrix(EVEN, 2 * m), fold_matrix(ODD, 2 * m)
    assert np.allclose(even @ dense @ odd.T, 0.0, atol=1e-14)
    split = np.concatenate(
        [np.linalg.eigvalsh(to_dense(s.band(mat))) for s in (EVEN, ODD)]
    )
    assert np.allclose(np.sort(split), np.linalg.eigvalsh(dense), atol=1e-12)
    mat.data[2, 0] += 1.0  # one diagonal entry off its mirror
    assert mirror_defect(mat) == 1.0


@pytest.mark.parametrize("lam", [1.05, 3.0, 1e3, 1e6])
@pytest.mark.parametrize("n", [513, 645, 1001, 3001, 8193])
def test_default_grid_is_mirror_symmetric(lam, n):
    # every odd n: the middle node is exactly 0 and the nodes mirror bit
    # for bit (also where n - 1 is not a power of two)
    x = default_grid(lam, default_domain_halfwidth(lam), n).nodes
    assert x[n // 2] == 0.0
    assert np.array_equal(x, -x[::-1])
