from __future__ import annotations

import math
import threading

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from beclab import (
    assemble_linearized,
    assemble_operator,
    lowest_eigenpairs,
    make_grid,
    nondegeneracy_report,
    solve_heteroclinic,
    translation_residual,
)
from beclab import spectrum
from beclab.heteroclinic import explicit_lambda3_derivative
from beclab.spectrum import count_below, residual_tolerance, spectrum_report


def laplacian_operator(n: int):
    grid = make_grid(0.0, math.pi, n)
    zero = np.zeros(n)
    return assemble_operator(grid, 1.0, zero, zero, zero)


def test_laplacian_oracle_eigenvalues():
    # two decoupled Dirichlet Laplacians on (0, pi): eigenvalues k^2, each twice
    op = laplacian_operator(201)
    values = [theta for theta, _ in lowest_eigenpairs(op, 6)]
    assert np.allclose(values, [1.0, 1.0, 4.0, 4.0, 9.0, 9.0], atol=5e-3)


def test_laplacian_second_order_convergence():
    e_coarse = abs(lowest_eigenpairs(laplacian_operator(101), 1)[0][0] - 1.0)
    e_fine = abs(lowest_eigenpairs(laplacian_operator(201), 1)[0][0] - 1.0)
    assert 3.4 <= e_coarse / e_fine <= 4.6


def test_laplacian_eigenvector_shape():
    op = laplacian_operator(201)
    pairs = lowest_eigenpairs(op, 2)
    phi1, phi2 = pairs[0][1]
    # bottom eigenspace is span{(sin, 0), (0, sin)}; project onto it
    grid_z = np.linspace(0.0, math.pi, 201)
    target = np.sin(grid_z)
    zero = np.zeros(201)
    target /= math.sqrt(op.inner((target, zero), (target, zero)))
    mass = (
        op.inner((phi1, phi2), (target, zero)) ** 2
        + op.inner((phi1, phi2), (zero, target)) ** 2
    )
    assert mass == pytest.approx(1.0, abs=1e-4)
    assert phi1[0] == 0.0 and phi1[-1] == 0.0


def test_lambda3_spectrum(sol3):
    rep = nondegeneracy_report(sol3)
    assert abs(rep.lambda1) <= 1e-6
    # difference channel bottom of the explicit branch sits at 3/2 exactly
    assert abs(rep.lambda2 - 1.5) <= 1e-5
    assert rep.alignment >= 0.999999
    assert rep.gap == pytest.approx(rep.lambda2 - rep.lambda1, abs=1e-14)
    assert rep.lam == 3.0 and rep.n == sol3.n


def test_quasi_continuum_onset(sol3):
    # above the gap the discrete spectrum crowds toward the essential edge 2
    op = assemble_linearized(sol3)
    thetas = [t for t, _ in lowest_eigenpairs(op, 4)]
    assert 1.95 <= thetas[2] <= 2.2
    assert 1.95 <= thetas[3] <= 2.2


def test_essential_edge_unresolved_at_low_k(sol3, sweep_solutions):
    # the first few modes above the gap are extended scattering states, not
    # edge-localized; the report returns NaN rather than a fake edge value
    assert math.isnan(nondegeneracy_report(sol3).essential_edge_estimate)
    rep = nondegeneracy_report(sweep_solutions[1e2])
    assert math.isnan(rep.essential_edge_estimate)


def test_constant_state_edge_value():
    # on the saturated state the diagonal potentials are (2, lam - 1); with
    # zero coupling the bottom of the spectrum is min(2, lam-1) + O(L^-2)
    grid = make_grid(-20.0, 20.0, 801)
    q1 = np.full(801, 2.0)
    q2 = np.full(801, 2.0)
    op = assemble_operator(grid, 3.0, q1, q2, np.zeros(801))
    bottom = lowest_eigenpairs(op, 1)[0][0]
    assert bottom == pytest.approx(2.0, abs=0.05)


def test_translation_mode_second_order():
    def residual_at(n: int) -> float:
        sol = solve_heteroclinic(3.0, n=n)
        op = assemble_linearized(sol)
        d1, d2 = explicit_lambda3_derivative(sol.grid.nodes)
        return translation_residual(op, d1, d2)

    r_coarse, r_fine = residual_at(2049), residual_at(4097)
    assert r_fine < r_coarse / 3.0


def test_reflection_symmetry_of_spectrum(sol3):
    op = assemble_linearized(sol3)
    # swapping components and reflecting z maps the operator to itself;
    # stored potentials are interior-only, pad with unused boundary zeros
    def pad(interior: np.ndarray) -> np.ndarray:
        return np.concatenate(([0.0], interior, [0.0]))

    q1r = pad(op.q2[::-1])
    q2r = pad(op.q1[::-1])
    cr = pad(op.coupling[::-1])
    mirrored = assemble_operator(sol3.grid, sol3.lam, q1r, q2r, cr)
    a = [t for t, _ in lowest_eigenpairs(op, 4)]
    b = [t for t, _ in lowest_eigenpairs(mirrored, 4)]
    assert np.allclose(a, b, atol=1e-10)


def test_rayleigh_and_residual_certificates(sol3):
    op = assemble_linearized(sol3)
    tol = residual_tolerance(op)
    for theta, (phi1, phi2) in lowest_eigenpairs(op, 3):
        r1, r2 = op.apply_natural(phi1, phi2)
        res1 = r1 - theta * phi1[1:-1]
        res2 = r2 - theta * phi2[1:-1]
        assert max(np.max(np.abs(res1)), np.max(np.abs(res2))) <= tol
        assert op.inner((phi1, phi2), (phi1, phi2)) == pytest.approx(1.0, abs=1e-12)
        rayleigh = float(
            np.sum(op.weights * (phi1[1:-1] * r1 + phi2[1:-1] * r2))
        )
        assert rayleigh == pytest.approx(theta, abs=1e-9)


def test_eigenvector_orthonormality(sol3):
    op = assemble_linearized(sol3)
    pairs = lowest_eigenpairs(op, 4)
    for i, (_, u) in enumerate(pairs):
        for j, (_, v) in enumerate(pairs):
            expected = 1.0 if i == j else 0.0
            assert op.inner(u, v) == pytest.approx(expected, abs=1e-8)


def test_eigenpairs_deterministic(sol3):
    op = assemble_linearized(sol3)
    first = lowest_eigenpairs(op, 2)
    second = lowest_eigenpairs(op, 2)
    for (ta, (a1, a2)), (tb, (b1, b2)) in zip(first, second):
        assert ta == tb
        assert np.array_equal(a1, b1) and np.array_equal(a2, b2)


@pytest.mark.parametrize("lam", [3.0, 1e4])
def test_operator_from_jacobian_matches_paper_potentials(lam, sol3, sweep_solutions):
    # S = -W^{-1/2} J W^{-1/2} from the Newton Jacobian equals the operator
    # assembled from the potentials of the linearization
    sol = sol3 if lam == 3.0 else sweep_solutions[lam]
    v1, v2 = sol.v1, sol.v2
    from_jacobian = assemble_linearized(sol).matrix
    from_potentials = assemble_operator(
        sol.grid,
        lam,
        3.0 * v1**2 - 1.0 + lam * v2**2,
        3.0 * v2**2 - 1.0 + lam * v1**2,
        2.0 * lam * v1 * v2,
    ).matrix
    norm = float(np.max(np.sum(np.abs(from_potentials.data), axis=0)))
    diff = float(np.max(np.abs(from_jacobian.data - from_potentials.data)))
    assert diff <= 1e-15 * norm


def test_symmetrized_assembly_is_exactly_symmetric(sol3):
    op = assemble_linearized(sol3)
    assert op.matrix.symmetry_defect() == 0.0
    assert op.matrix.dim == 2 * (sol3.n - 2)


def test_k_validation(sol3):
    op = assemble_linearized(sol3)
    with pytest.raises(ValueError):
        lowest_eigenpairs(op, 0)
    with pytest.raises(ValueError):
        lowest_eigenpairs(op, 9)


def test_assembly_leaves_caller_arrays_alone():
    grid = make_grid(-5.0, 5.0, 41)
    q1, q2, coupling = np.full(41, 2.0), np.linspace(0.0, 1.0, 41), np.full(41, 0.5)
    before = [a.copy() for a in (q1, q2, coupling)]
    op = assemble_operator(grid, 3.0, q1, q2, coupling)
    for arr, old in zip((q1, q2, coupling), before):
        assert arr.flags.writeable
        assert np.array_equal(arr, old)
    q1[:] = -7.0  # the operator holds its own copy
    assert np.all(op.q1 == 2.0)
    assert not op.q1.flags.writeable


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(16, 24),
    seed=st.integers(0, 2**32 - 1),
    scale=st.floats(0.0, 400.0),
    mu=st.floats(-500.0, 2500.0),
)
def test_inertia_count_matches_dense_eigenvalues(n, seed, scale, mu):
    rng = np.random.default_rng(seed)
    grid = make_grid(-1.0, 1.0, n)
    q1, q2, coupling = (scale * rng.uniform(-1.0, 1.0, n) for _ in range(3))
    op = assemble_operator(grid, 1.0, q1, q2, coupling)
    eigenvalues = np.linalg.eigvalsh(op.matrix.to_dense())
    # keep mu clear of the spectrum; at an eigenvalue the count is ill-posed
    assume(np.min(np.abs(eigenvalues - mu)) > 1e-9 * np.max(np.abs(eigenvalues)))
    assert count_below(op, mu) == int(np.sum(eigenvalues < mu))


@pytest.mark.parametrize("k", [1, 3, 5])
def test_inertia_certificate_spans_double_eigenvalues(k):
    # theta_k and theta_{k+1} are the two copies of one Laplacian eigenvalue,
    # so the count is taken above the pair
    op = laplacian_operator(201)
    pairs = lowest_eigenpairs(op, k)
    cert = pairs.certificate
    expected = [1.0, 1.0, 4.0, 4.0, 9.0, 9.0][:k]
    assert np.allclose([t for t, _ in pairs], expected, atol=5e-3)
    assert cert.count_below == k + 1
    assert pairs[-1][0] < cert.shift < pairs[-1][0] + 2.0 * cert.tolerance
    assert cert.max_residual <= cert.tolerance


def test_inertia_certificate_between_simple_eigenvalues():
    op = laplacian_operator(201)
    pairs = lowest_eigenpairs(op, 2)
    cert = pairs.certificate
    assert cert.count_below == 2
    assert 1.0 < cert.shift < 4.0


def test_solver_that_skips_the_bottom_pair_is_rejected(monkeypatch):
    # distinct diagonal potentials split every Laplacian double eigenvalue
    grid = make_grid(0.0, math.pi, 201)
    zero = np.zeros(201)
    op = assemble_operator(grid, 1.0, zero, np.full(201, 0.5), zero)
    real_eigsh = spectrum.eigsh

    def skipping_eigsh(A, k, **kwargs):
        values, vectors = real_eigsh(A, k + 1, **kwargs)
        order = np.argsort(values)[1:]
        return values[order], vectors[:, order]

    monkeypatch.setattr(spectrum, "eigsh", skipping_eigsh)
    with pytest.raises(RuntimeError, match="inertia count"):
        lowest_eigenpairs(op, 3)


def test_concurrent_calls_match_serial(sol3):
    op = assemble_linearized(sol3)
    serial = lowest_eigenpairs(op, 4)
    results = [None, None]

    def worker(slot):
        results[slot] = lowest_eigenpairs(op, 4)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
        assert not t.is_alive()
    for pairs in results:
        assert pairs.certificate == serial.certificate
        for (ta, (a1, a2)), (tb, (b1, b2)) in zip(pairs, serial):
            assert ta == tb
            assert a1.tobytes() == b1.tobytes() and a2.tobytes() == b2.tobytes()


def test_report_from_given_pairs_matches_full_report(sol3):
    op = assemble_linearized(sol3)
    pairs = lowest_eigenpairs(op, 4)
    rep = spectrum_report(sol3, op, pairs)
    assert rep == nondegeneracy_report(sol3)
    assert rep.inertia_count == 4 and rep.inertia_shift == pairs.certificate.shift
    assert rep.lambda2 < rep.inertia_shift
    assert 0.0 < rep.max_residual <= residual_tolerance(op)
