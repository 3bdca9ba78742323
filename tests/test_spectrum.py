from __future__ import annotations

import math
import threading

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from banded_helpers import symmetry_defect, to_dense
from beclab import (
    assemble_linearized,
    essential_edge,
    lowest_eigenpairs,
    make_grid,
    nondegeneracy_report,
    solve_heteroclinic,
)
from beclab import BandedMatrix, SingularSystemError, run_verification, spectrum
from beclab.grids import flux_stencil
from beclab.spectrum import count_below, residual_tolerance
from spectrum_oracle import (
    apply_natural,
    count_below_sequential,
    lumped_inner,
    natural,
    operator,
    potentials,
)


def explicit_lambda3_derivative(z):
    """Derivative of the lam = 3 branch: dv1 = sech^2(z/sqrt(2))/(2*sqrt(2)) = -dv2."""
    dv1 = 1.0 / (2.0 * math.sqrt(2.0) * np.cosh(z / math.sqrt(2.0)) ** 2)
    return dv1, -dv1


# shift between the Laplacian eigenvalues 1 and 4 on (0, pi)
LAPLACIAN_SHIFT = 2.5


def laplacian_grid(n: int):
    return make_grid(0.0, math.pi, n)


def laplacian_operator(n: int):
    zero = np.zeros(n)
    return operator(laplacian_grid(n), zero, zero, zero)


def bottom_value(S, shift) -> float:
    pairs, _ = lowest_eigenpairs(S, shift)
    return pairs[0][0]


def test_laplacian_oracle_eigenvalues():
    # two decoupled Dirichlet Laplacians on (0, pi): eigenvalues k^2, each twice
    S = laplacian_operator(201)
    pairs, _ = lowest_eigenpairs(S, LAPLACIAN_SHIFT)
    assert np.allclose([theta for theta, _ in pairs], [1.0, 1.0], atol=5e-3)
    # the next pair, 4 and 4, lies within 5e-3 of 4
    assert count_below(S, 4.0 - 5e-3) == 2
    assert count_below(S, 4.0 + 5e-3) == 4


def test_laplacian_second_order_convergence():
    e_coarse = abs(bottom_value(laplacian_operator(101), LAPLACIAN_SHIFT) - 1.0)
    e_fine = abs(bottom_value(laplacian_operator(201), LAPLACIAN_SHIFT) - 1.0)
    assert 3.4 <= e_coarse / e_fine <= 4.6


def test_laplacian_eigenvector_shape():
    grid = laplacian_grid(201)
    pairs, _ = lowest_eigenpairs(laplacian_operator(201), LAPLACIAN_SHIFT)
    phi1, phi2 = natural(grid, pairs[0][1])
    # bottom eigenspace is span{(sin, 0), (0, sin)}; project onto it
    grid_z = np.linspace(0.0, math.pi, 201)
    target = np.sin(grid_z)
    zero = np.zeros(201)
    target /= math.sqrt(lumped_inner(grid, (target, zero), (target, zero)))
    mass = (
        lumped_inner(grid, (phi1, phi2), (target, zero)) ** 2
        + lumped_inner(grid, (phi1, phi2), (zero, target)) ** 2
    )
    assert mass == pytest.approx(1.0, abs=1e-4)


def test_lambda3_spectrum(sol3):
    rep, _ = nondegeneracy_report(sol3)
    assert abs(rep.lambda1) <= 1e-6
    # difference channel bottom of the explicit branch sits at 3/2 exactly
    assert abs(rep.lambda2 - 1.5) <= 1e-5
    assert rep.alignment >= 0.999999
    assert rep.gap == pytest.approx(rep.lambda2 - rep.lambda1, abs=1e-14)
    assert rep.lam == 3.0 and rep.n == sol3.n


def test_quasi_continuum_onset(sol3):
    # above the gap the discrete spectrum crowds toward the essential edge 2:
    # nothing but the two bound states below 1.95, at least two more by 2.2
    S = assemble_linearized(sol3)
    assert count_below(S, 1.95) == 2
    assert count_below(S, 2.2) >= 4


@pytest.mark.parametrize(("lam", "bound"), [(1.1, 1), (1.2, 2), (1.5, 2)])
def test_bound_state_count_below_lambda_3(lam, bound):
    # below lam = 3 the essential edge e = lam - 1 drops under 2. At 1.5,
    # lambda2 = 0.4825 is still bound (below e = 0.5); at 1.2, lambda2 =
    # 0.19983 lies just below e = 0.2 and the count at the edge itself sees
    # it; at 1.1 it sits in the discretized continuum above e = 0.1, and
    # the count at the edge covers only the translation mode
    sol = solve_heteroclinic(lam, n=2049)
    shift = essential_edge(lam)
    assert shift == lam - 1.0
    rep, _ = nondegeneracy_report(sol)
    assert rep.inertia_shift == shift
    assert rep.inertia_count == bound
    assert abs(rep.lambda1) <= 1e-6
    assert rep.lambda1 < rep.lambda2
    assert (rep.lambda2 < shift) == (bound == 2)
    assert rep.alignment >= 0.999999


def test_spectrum_near_unit_coupling_stays_cheap():
    # at lam = 1.05 lambda2 = 0.0508 sits just above e = 0.05; the poles
    # -0.05 (odd) and 0.025 (even) lie next to both sector bottoms, where
    # a fixed pole at -1 needed 1007 solves at this mesh
    rep, _ = nondegeneracy_report(solve_heteroclinic(1.05, n=2049))
    assert rep.solves <= 200
    assert rep.inertia_count == 1
    assert abs(rep.lambda1) <= 1e-6
    assert rep.lambda2 > rep.inertia_shift


@pytest.mark.parametrize("lam", [1.1, 1.5, 3.0])
def test_sector_bottoms_are_the_two_lowest_eigenvalues(lam):
    sol = solve_heteroclinic(lam, n=513)
    S = assemble_linearized(sol)
    dense = np.linalg.eigvalsh(to_dense(S))
    pairs, _ = lowest_eigenpairs(S, essential_edge(lam))
    assert np.allclose([theta for theta, _ in pairs], dense[:2], rtol=0.0, atol=1e-9)
    # the bottom pair is the odd translation mode, the second the even one;
    # the swap-reflection reverses the interleaved vector, and in natural
    # variables it maps (phi1, phi2)(z) to (phi2, phi1)(-z)
    (_, a), (_, b) = pairs
    assert np.allclose(a, -a[::-1], rtol=0.0, atol=1e-12)
    assert np.allclose(b, b[::-1], rtol=0.0, atol=1e-12)
    (a1, a2), (b1, b2) = natural(sol.grid, a), natural(sol.grid, b)
    assert np.allclose(a1, -a2[::-1], rtol=0.0, atol=1e-12)
    assert np.allclose(b1, b2[::-1], rtol=0.0, atol=1e-12)


def test_operator_off_the_mirror_is_rejected():
    # a potential on component 2 alone breaks the swap-reflection
    grid = make_grid(0.0, math.pi, 201)
    zero = np.zeros(201)
    S = operator(grid, zero, np.full(201, 0.5), zero)
    with pytest.raises(ValueError, match="swap-reflection"):
        lowest_eigenpairs(S, LAPLACIAN_SHIFT)


def test_constant_state_edge_value():
    # on the saturated state the diagonal potentials are (2, lam - 1); with
    # zero coupling the bottom of the spectrum is min(2, lam-1) + O(L^-2)
    grid = make_grid(-20.0, 20.0, 801)
    q1 = np.full(801, 2.0)
    q2 = np.full(801, 2.0)
    S = operator(grid, q1, q2, np.zeros(801))
    # 2 + (pi/40)^2 twice, then 2 + (2 pi/40)^2 twice
    pairs, cert = lowest_eigenpairs(S, 2.015)
    assert cert.count_below == 2
    bottom = pairs[0][0]
    assert bottom == pytest.approx(2.0, abs=0.05)


def test_translation_mode_second_order():
    def residual_at(n: int) -> float:
        # sup-norm of M applied to the sampled translation mode (v1', v2'):
        # zero in the continuum, pure discretization error numerically
        sol = solve_heteroclinic(3.0, n=n)
        d1, d2 = explicit_lambda3_derivative(sol.grid.nodes)
        r1, r2 = apply_natural(sol.grid, *potentials(sol), d1, d2)
        return float(max(np.max(np.abs(r1)), np.max(np.abs(r2))))

    r_coarse, r_fine = residual_at(2049), residual_at(4097)
    assert r_fine < r_coarse / 3.0


def test_reflection_symmetry_of_spectrum(sol3):
    # swapping components and reflecting z maps the operator to itself
    q1, q2, coupling = potentials(sol3)
    mirrored = operator(sol3.grid, q2[::-1], q1[::-1], coupling[::-1])
    shift = essential_edge(sol3.lam)
    a = [t for t, _ in lowest_eigenpairs(assemble_linearized(sol3), shift)[0]]
    b = [t for t, _ in lowest_eigenpairs(mirrored, shift)[0]]
    assert np.allclose(a, b, atol=1e-10)


def test_rayleigh_and_residual_certificates(sol3):
    # the report's natural-variable pairs satisfy M phi = theta phi in M's
    # own potentials and have unit lumped-mass norm
    tol = residual_tolerance(assemble_linearized(sol3))
    w = flux_stencil(sol3.grid).w
    q = potentials(sol3)
    _, modes = nondegeneracy_report(sol3)
    for theta, (phi1, phi2) in modes:
        r1, r2 = apply_natural(sol3.grid, *q, phi1, phi2)
        res1 = r1 - theta * phi1[1:-1]
        res2 = r2 - theta * phi2[1:-1]
        assert max(np.max(np.abs(res1)), np.max(np.abs(res2))) <= tol
        assert lumped_inner(sol3.grid, (phi1, phi2), (phi1, phi2)) == pytest.approx(1.0, abs=1e-12)
        assert phi1[0] == phi1[-1] == phi2[0] == phi2[-1] == 0.0
        rayleigh = float(np.sum(w * (phi1[1:-1] * r1 + phi2[1:-1] * r2)))
        assert rayleigh == pytest.approx(theta, abs=1e-9)


def test_lowest_eigenpairs_returns_the_certified_unit_vectors(sol3):
    # each psi is the vector of S whose residual was certified: unit
    # length, sign-fixed, and the report's modes are psi / sqrt(w)
    S = assemble_linearized(sol3)
    pairs, cert = lowest_eigenpairs(S, essential_edge(sol3.lam))
    for theta, psi in pairs:
        assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-14)
        assert np.linalg.norm(S.matvec(psi) - theta * psi) <= cert.max_residual
        assert psi[np.argmax(np.abs(psi))] > 0.0
    _, modes = nondegeneracy_report(sol3)
    for (theta, psi), (value, phi) in zip(pairs, modes):
        assert theta == value
        for got, want in zip(phi, natural(sol3.grid, psi)):
            assert got.tobytes() == want.tobytes()


def test_eigenvector_orthonormality(sol3):
    pairs, _ = lowest_eigenpairs(assemble_linearized(sol3), essential_edge(sol3.lam))
    _, modes = nondegeneracy_report(sol3)
    for i in range(2):
        for j in range(2):
            expected = 1.0 if i == j else 0.0
            assert pairs[i][1] @ pairs[j][1] == pytest.approx(expected, abs=1e-8)
            u, v = modes[i][1], modes[j][1]
            assert lumped_inner(sol3.grid, u, v) == pytest.approx(expected, abs=1e-8)


def test_eigenpairs_deterministic(sol3):
    S = assemble_linearized(sol3)
    shift = essential_edge(sol3.lam)
    first, first_cert = lowest_eigenpairs(S, shift)
    second, second_cert = lowest_eigenpairs(S, shift)
    assert first_cert == second_cert
    for (ta, a), (tb, b) in zip(first, second):
        assert ta == tb
        assert np.array_equal(a, b)


@pytest.mark.parametrize("lam", [3.0, 1e4])
def test_operator_from_jacobian_matches_paper_potentials(lam, sol3, sweep_solutions):
    # S = -W^{-1/2} J W^{-1/2} from the Newton Jacobian equals the operator
    # assembled from the potentials of the linearization
    sol = sol3 if lam == 3.0 else sweep_solutions[lam]
    from_jacobian = assemble_linearized(sol)
    from_potentials = operator(sol.grid, *potentials(sol))
    norm = float(np.max(np.sum(np.abs(from_potentials.data), axis=0)))
    diff = float(np.max(np.abs(from_jacobian.data - from_potentials.data)))
    assert diff <= 1e-15 * norm


def test_symmetrized_assembly_is_exactly_symmetric(sol3):
    S = assemble_linearized(sol3)
    assert symmetry_defect(S) == 0.0
    assert S.dim == 2 * (sol3.n - 2)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(16, 24),
    seed=st.integers(0, 2**32 - 1),
    scale=st.floats(0.0, 400.0),
    mu=st.floats(-500.0, 2500.0),
)
def test_inertia_count_matches_dense_eigenvalues(n, seed, scale, mu):
    # 2x2 node blocks and scalar couplings o_k I: the cyclic reduction, the
    # sequential recurrence it replaced and the dense spectrum agree
    rng = np.random.default_rng(seed)
    grid = make_grid(-1.0, 1.0, n)
    q1, q2, coupling = (scale * rng.uniform(-1.0, 1.0, n) for _ in range(3))
    S = operator(grid, q1, q2, coupling)
    eigenvalues = np.linalg.eigvalsh(to_dense(S))
    # keep mu clear of the spectrum; at an eigenvalue the count is ill-posed
    assume(np.min(np.abs(eigenvalues - mu)) > 1e-9 * np.max(np.abs(eigenvalues)))
    expected = int(np.sum(eigenvalues < mu))
    assert count_below(S, mu) == count_below_sequential(S, mu) == expected


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    nodes=st.integers(2, 70),
    seed=st.integers(0, 2**32 - 1),
    scale=st.sampled_from([1e-3, 1.0, 1e3, 1e6]),
    quantile=st.floats(0.0, 1.0),
)
def test_inertia_count_reads_the_whole_band(nodes, seed, scale, quantile):
    # any symmetric bandwidth-2 matrix over 2x2 node blocks, so couplings
    # with entries (2k + 1, 2k + 2) and (2k, 2k + 2) != (2k + 1, 2k + 3),
    # and node counts across several reduction passes, odd and even; mu
    # lies between two eigenvalues, a margin from each
    block = random_block(2 * nodes, seed, scale, clustered=False, split=0.0)
    eigenvalues = np.linalg.eigvalsh(to_dense(block))
    k = min(int(quantile * eigenvalues.size), eigenvalues.size - 1)
    below = eigenvalues[k - 1] if k else eigenvalues[0] - scale
    mu = 0.5 * (below + eigenvalues[k])
    assume(eigenvalues[k] - below > 1e-9 * scale)
    assert count_below(block, mu) == k


def test_inertia_count_at_an_eigenvalue_raises_singular_system_error():
    # diagonal S: at mu = S[2, 2] the pivot of node 1 is singular, a
    # RuntimeError the CLI reports as a numerical failure
    S = BandedMatrix.zeros(8, 2)
    S.data[2] = np.arange(1.0, 9.0)
    for count in (count_below, count_below_sequential):
        with pytest.raises(SingularSystemError, match="^singular pivot at node 1 ") as exc:
            count(S, 3.0)
        assert exc.value.index == 1
    assert count_below(S, 3.5) == count_below_sequential(S, 3.5) == 3


def test_inertia_count_matches_the_reference_on_verify_operators(monkeypatch):
    # every operator run_verification assembles: the six sweep couplings at
    # n = 8193 and the refinement at n = 16385, each at its essential edge
    # and across the bound states and the continuum above them
    taken = []

    def recording(S, mu):
        taken.append((S, mu))
        return count_below(S, mu)

    monkeypatch.setattr(spectrum, "count_below", recording)
    run_verification()
    # S has two unknowns per interior node of the n-node mesh
    assert sorted(S.dim for S, _ in taken) == [2 * (8193 - 2)] * 6 + [2 * (16385 - 2)]
    for S, edge in taken:
        for mu in (edge, 0.0, 1.0, 3.0):
            assert count_below(S, mu) == count_below_sequential(S, mu)


def test_translation_pole_keeps_the_sweep_cheap(sweep_solutions):
    # the odd sector's bottom is the translation mode, |lambda1| <= 2.5e-6
    # on the default sweep: inverse iteration from a pole just below zero
    # converges in a few solves, where a pole at -1 needed 23 here
    rep, _ = nondegeneracy_report(sweep_solutions[1e3])
    assert rep.solves <= 17
    assert rep.inertia_count == 2


def lifted_sum_channel(n: int, lift: float):
    """Two Laplacians on (0, pi) coupled by the constant potential
    (lift/2) [[1, 1], [1, 1]]: the difference channel (p, -p) keeps the
    Dirichlet eigenvalues mu_j and the sum channel (p, p) is lifted to
    mu_j + lift. The operator commutes with the swap-reflection; mode j of
    the difference channel has parity (-1)^j (odd for j = 1, like the
    translation mode) and mode j of the sum channel (-1)^(j+1)."""
    half = np.full(n, 0.5 * lift)
    return operator(make_grid(0.0, math.pi, n), half, half, half)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_inertia_certificate_spans_double_eigenvalues(k):
    # mu_j = (4/h^2) sin^2(jh/2) are the discrete Dirichlet eigenvalues on
    # (0, pi); the lift mu_k - mu_1 puts the bottom of the sum channel onto
    # mu_k, so mu_k is double. The count holds both copies: at k = 1 the
    # copies are the two sector bottoms and a shift above them certifies
    # both; at k = 2 both copies are even, the even solve returns one, and
    # a shift above counts the other and rejects the solve; at k = 3, 4, 5
    # the double lies past the two sector bottoms mu_1 and mu_2, and a
    # shift above it is rejected too
    n = 201
    h = math.pi / (n - 1)
    mu = np.array([4.0 / h**2 * math.sin(j * h / 2.0) ** 2 for j in range(1, 7)])
    S = lifted_sum_channel(n, mu[k - 1] - mu[0])
    exact = np.sort(np.concatenate([mu, mu + mu[k - 1] - mu[0]]))
    below, above = mu[k - 1] - 0.5, mu[k - 1] + 0.5  # clear of mu_{k-1}, mu_{k+1}
    assert count_below(S, below) == k - 1
    assert count_below(S, above) == k + 1

    if k == 1:
        shift = above  # both copies are computed
    elif k == 2:
        shift = below  # only theta_1 lies below the shift
    else:
        shift = 0.5 * (exact[1] + exact[2])  # between mu_2 and mu_3
    pairs, cert = lowest_eigenpairs(S, shift)
    assert np.allclose([t for t, _ in pairs], exact[:2], rtol=0.0, atol=1e-9)
    assert cert.max_residual <= cert.tolerance
    assert cert.shift == shift
    assert cert.count_below == sum(exact[:2] < shift)
    if k > 1:
        with pytest.raises(RuntimeError, match="inertia count"):
            lowest_eigenpairs(S, above)


def test_inertia_certificate_between_simple_eigenvalues():
    # the lift 0.5 of the sum channel splits every Laplacian double
    # eigenvalue: 1 (odd), 1.5 (even), 4 (even), 4.5 (odd), ...
    S = lifted_sum_channel(201, 0.5)
    for shift, count in ((0.5, 0), (1.2, 1), (2.5, 2)):
        _, cert = lowest_eigenpairs(S, shift)
        assert cert.shift == shift
        assert cert.count_below == count
    # the even pole 2.1 returns 1.5, not 4, which the count at 4.2 holds
    with pytest.raises(RuntimeError, match="inertia count found 3"):
        lowest_eigenpairs(S, 4.2)


def test_solver_that_skips_the_bottom_pair_is_rejected(monkeypatch):
    # the split spectrum 1, 1.5, 4, 4.5, ...; a solver that returns the
    # second eigenpair of each sector (4.5 and 4) computes nothing below 2.5
    S = lifted_sum_channel(201, 0.5)

    def second_eigenpair(block, pole, tol, parity):
        values, vectors = np.linalg.eigh(to_dense(block))
        return values[1], vectors[:, 1], 1

    monkeypatch.setattr(spectrum, "_sector_bottom", second_eigenpair)
    with pytest.raises(RuntimeError, match="inertia count"):
        lowest_eigenpairs(S, LAPLACIAN_SHIFT)


def test_sector_pair_with_a_large_residual_is_rejected(monkeypatch):
    # a unit vector that is no eigenvector of its sector block fails the
    # residual certificate on the full operator
    S = lifted_sum_channel(201, 0.5)

    def first_unit_vector(block, pole, tol, parity):
        return 1.0, np.eye(1, block.dim)[0], 1

    monkeypatch.setattr(spectrum, "_sector_bottom", first_unit_vector)
    with pytest.raises(RuntimeError, match="has residual .* above the tolerance"):
        lowest_eigenpairs(S, LAPLACIAN_SHIFT)


def test_sector_solver_does_not_stop_on_a_higher_eigenpair():
    # the start (1, 0, 1, 0, ...) is an eigenvector of eigenvalue 0 up to
    # a 1e-9 coupling to the bottom well -1 at index 1: its residual is
    # below tol at once, and only the factorization just below theta,
    # which fails, shows that a lower eigenvalue exists
    block = BandedMatrix.zeros(20, 2)
    block.data[2, 1::2] = 5.0
    block.data[2, 1] = -1.0
    block.data[1, 1] = block.data[3, 0] = 1e-9
    theta, x, _ = spectrum._sector_bottom(block, -2.0, 1e-8, 1)
    assert theta == pytest.approx(np.linalg.eigvalsh(to_dense(block))[0], abs=1e-8)
    assert abs(x[1]) == pytest.approx(1.0, abs=1e-8)


def test_sector_solver_that_cannot_reach_the_bottom_raises():
    # without the coupling the start never sees the bottom well: the
    # residual is 0, but the block never factors within tol of theta
    block = BandedMatrix.zeros(20, 2)
    block.data[2, 1::2] = 5.0
    block.data[2, 1] = -1.0
    with pytest.raises(RuntimeError, match=r"parity \+1 sector bottom not certified in 200 steps: residual 0"):
        spectrum._sector_bottom(block, -2.0, 1e-8, 1)


def random_block(dim, seed, scale, clustered, split):
    """Symmetric bandwidth-2 block with random entries of size scale. A
    clustered one is made mirror-symmetric with a diagonal well of depth
    8*scale at each end; the far end is then raised by split, so the two
    bottom eigenvalues, one eigenvector in each well, differ by about
    split plus the tunnelling between the wells."""
    rng = np.random.default_rng(seed)
    block = BandedMatrix.zeros(dim, 2)
    block.data[2] = scale * rng.uniform(-1.0, 1.0, dim)
    for offset in (1, 2):
        band = scale * rng.uniform(-1.0, 1.0, dim - offset)
        block.data[2 - offset, offset:] = band
        block.data[2 + offset, :-offset] = band
    if clustered:
        block.data[:] = 0.5 * (block.data + block.data[::-1, ::-1])
        block.data[2, [0, -1]] -= 8.0 * scale
        block.data[2, -1] += split
    return block


@settings(max_examples=150, deadline=None)
@given(
    dim=st.integers(5, 60),
    seed=st.integers(0, 2**32 - 1),
    scale=st.sampled_from([1e-3, 1.0, 1e3, 1e6]),
    clustered=st.booleans(),
    split=st.sampled_from([0.0, 1e-12, 1e-9, 1e-6, 1e-3, 1e-1]),
    pole_offset=st.floats(-10.0, 10.0),
    parity=st.sampled_from([1, -1]),
)
def test_sector_solver_finds_the_bottom(dim, seed, scale, clustered, split, pole_offset, parity):
    # any symmetric band, clustered bottoms included, and a pole up to ten
    # entry sizes above or below the bottom: the solver returns the bottom
    # eigenvalue within the residual tolerance, certified by its residual
    block = random_block(dim, seed, scale, clustered, split * scale)
    exact = np.linalg.eigvalsh(to_dense(block))
    tol = max(1e-8, 64.0 * np.finfo(float).eps * float(np.max(np.sum(np.abs(block.data), axis=0))))
    theta, x, count = spectrum._sector_bottom(block, exact[0] + pole_offset * scale, tol, parity)
    assert abs(theta - exact[0]) <= tol
    assert np.linalg.norm(x) == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.norm(block.matvec(x) - theta * x) <= tol
    assert count >= 2


def test_concurrent_calls_match_serial(sol3):
    S = assemble_linearized(sol3)
    shift = essential_edge(sol3.lam)
    serial, serial_cert = lowest_eigenpairs(S, shift)
    results = [None, None]

    def worker(slot):
        results[slot] = lowest_eigenpairs(S, shift)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
        assert not t.is_alive()
    for pairs, cert in results:
        assert cert == serial_cert
        for (ta, a), (tb, b) in zip(pairs, serial):
            assert ta == tb
            assert a.tobytes() == b.tobytes()


def test_report_from_given_pairs_matches_full_report(sol3):
    rep, pairs = nondegeneracy_report(sol3)
    S = assemble_linearized(sol3)
    again, cert = lowest_eigenpairs(S, essential_edge(sol3.lam))
    assert [theta for theta, _ in pairs] == [theta for theta, _ in again]
    # the report is read from the pairs it returns
    assert (rep.lambda1, rep.lambda2) == (pairs[0][0], pairs[1][0])
    assert rep.gap == pairs[1][0] - pairs[0][0]
    assert (rep.inertia_shift, rep.inertia_count) == (cert.shift, cert.count_below)
    assert rep.max_residual == cert.max_residual
    assert rep.solves == cert.solves > 0
    # two bound states below e(3) = 2
    assert rep.inertia_count == 2 and rep.inertia_shift == 2.0
    assert rep.lambda2 < rep.inertia_shift
    assert 0.0 < rep.max_residual <= residual_tolerance(S)
