from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beclab import (
    NonConvergenceError,
    SignViolationError,
    SingularJacobianError,
    StepUnderflow,
    continue_in_lambda,
    default_domain_halfwidth,
    explicit_lambda3,
    solve_heteroclinic,
)
from beclab import heteroclinic, newton
from beclab.grids import EVEN, MirrorSector, differentiate, flux_stencil
from beclab.heteroclinic import (
    ContinuationTrace,
    TraceEntry,
    _interleaved,
    _sector,
    correct_on_ladder,
    default_grid,
    hamiltonian_values,
    mesh_ladder,
)
from beclab.verify import jacobian_fd_error

SWEEP = (1e1, 1e2, 1e3, 1e4, 1e5, 1e6)


def interleave(v1, v2):
    # the interleaved interior unknowns [v1_1, v2_1, v1_2, v2_2, ...] of
    # _interleaved, from full fields
    return np.stack((v1, v2), axis=1)[1:-1].ravel()


def newton_problem(lam, n, L=None):
    # the sector residual, Jacobian and start vector that solve_heteroclinic
    # hands to newton_solve
    handed = []

    def record(residual, jacobian, init):
        handed.append((residual, jacobian, init))
        return init, 0, 0.0

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(heteroclinic, "newton_solve", record)
        solve_heteroclinic(lam, n=n, L=L)
    (problem,) = handed
    return problem


def explicit_sup(sol) -> float:
    e1, e2 = explicit_lambda3(sol.grid.nodes)
    return float(max(np.max(np.abs(sol.v1 - e1)), np.max(np.abs(sol.v2 - e2))))


def interface_width(sol) -> float:
    """Distance between the interpolated v1 = 0.1 and v1 = 0.9 crossings."""
    v, z = sol.v1, sol.grid.nodes

    def crossing(level: float) -> float:
        idx = int(np.searchsorted(v, level))
        assert 0 < idx < v.shape[0], f"level {level} not crossed"
        z0, z1 = z[idx - 1], z[idx]
        f0, f1 = v[idx - 1], v[idx]
        return float(z0 + (level - f0) * (z1 - z0) / (f1 - f0))

    return crossing(0.9) - crossing(0.1)


def test_explicit_branch_identities():
    z = np.linspace(-10.0, 10.0, 101)
    v1, v2 = explicit_lambda3(z)
    # the closed form is a pair of mirrored tanh ramps partitioning unity
    assert np.allclose(v1, v2[::-1], atol=1e-14)
    assert np.allclose(v1 + v2, 1.0, atol=1e-15)
    assert np.all(v1 > 0.0) and np.all(v1 < 1.0)
    assert v1[-1] > 0.9999 and v2[0] > 0.9999


def test_lambda3_anchor(sol3):
    assert explicit_sup(sol3) <= 1e-8
    assert sol3.newton_residual <= 1e-10
    assert sol3.hamiltonian_dev <= 1e-6
    assert sol3.flags.monotone and sol3.flags.bounded


def test_lambda3_anchor_tightens_under_doubling(sol3):
    sup_base = explicit_sup(solve_heteroclinic(3.0, n=4097))
    sup_doubled = explicit_sup(sol3)  # n = 8193
    assert sup_doubled <= 1e-8
    assert sup_doubled < sup_base / 10.0


def test_hamiltonian_along(sol3):
    ham = hamiltonian_values(sol3.v1, sol3.v2, sol3.dv1, sol3.dv2, sol3.lam)
    assert ham.shape == sol3.grid.nodes.shape
    assert sol3.hamiltonian_dev == float(np.max(np.abs(ham + 0.25)))
    assert sol3.hamiltonian_dev <= 1e-6


def test_sweep_every_solve_converges(sweep_trace, sweep_solutions):
    assert set(sweep_solutions) == set(SWEEP)
    for e in sweep_trace.entries:
        assert e.newton_residual <= 1e-10
        assert e.hamiltonian_dev <= 1e-6
        assert e.min_component > 0.0
    for s in sweep_solutions.values():
        assert s.flags.monotone and s.flags.bounded
        total = s.v1**2 + s.v2**2
        assert float(np.max(total[1:-1])) < 1.0


def test_sweep_crossing_scaling(sweep_solutions):
    scaled = []
    for lam, s in sweep_solutions.items():
        if lam < 100.0:
            continue
        i0 = int(np.argmin(np.abs(s.grid.nodes)))
        scaled.append(float(s.v1[i0]) * lam**0.25)
    band = max(scaled) / min(scaled)
    assert band <= 2.0


def test_sweep_tension_monotone(sweep_trace):
    pairs = zip(sweep_trace.entries, sweep_trace.entries[1:])
    for a, b in pairs:
        assert b.sigma_lambda > a.sigma_lambda
    targets = {e.lam: e.sigma_lambda for e in sweep_trace.entries}
    sigma = [targets[lam] for lam in SWEEP]
    assert all(b > a for a, b in zip(sigma, sigma[1:]))


def test_sweep_takes_one_decade_per_step(sweep_trace):
    assert tuple(e.lam for e in sweep_trace.entries) == (3.0,) + SWEEP
    assert len(sweep_trace.steps) == 6
    assert [s.halvings for s in sweep_trace.steps] == [0] * 6
    for step, sol in zip(sweep_trace.steps, sweep_trace.solutions[1:]):
        assert step.lam_to == sol.lam
        assert step.iterations == sol.newton_iterations >= 1
        # climbed on 513 nodes, corrected on 2049, finished on 8193
        assert len(step.coarse_iterations) == 2 and min(step.coarse_iterations) >= 1


def test_sweep_work_budget(sol3, monkeypatch):
    # counted, not timed: a return to small steps, or to climbing on a
    # finer mesh than the ladder's coarsest, fails here first
    solves, factorizations = [], []
    real_solve, real_lu = heteroclinic.solve_heteroclinic, newton.BandedLU

    def counting_solve(lam, *args, **kwargs):
        solves.append((lam, kwargs["n"]))
        return real_solve(lam, *args, **kwargs)

    def counting_lu(matrix):
        factorizations.append(matrix.dim)
        return real_lu(matrix)

    monkeypatch.setattr(heteroclinic, "solve_heteroclinic", counting_solve)
    monkeypatch.setattr(newton, "BandedLU", counting_lu)
    trace = continue_in_lambda(sol3, SWEEP)
    assert trace.solutions[-1].lam == 1e6
    # each target is solved once per mesh of the ladder, coarsest first,
    # ending on the requested 8193 nodes; a sector system has n - 2 rows
    assert solves == [(lam, n) for lam in SWEEP for n in (513, 2049, 8193)]
    assert set(factorizations) == {511, 2047, 8191}
    assert factorizations.count(511) <= 42
    assert factorizations.count(2047) <= 12
    assert factorizations.count(8191) <= 12


def test_two_mesh_step_matches_the_one_mesh_step(sweep_trace):
    # oracle: the one-mesh step, solve_heteroclinic(lam, n, init=previous).
    # The two differ by where Newton stops (the one-mesh step may stop at
    # 1e-10); the step seeded from the coarser meshes ends at the floor
    for prev, sol in zip(sweep_trace.solutions, sweep_trace.solutions[1:]):
        oracle = solve_heteroclinic(
            sol.lam, n=sol.n, init=(prev.grid.nodes, prev.v1)
        )
        assert np.max(np.abs(sol.v1 - oracle.v1)) <= 2e-8
        assert sol.newton_residual <= 1e-12


def fail_first_solve_on(mesh, monkeypatch):
    """Route continuation through the real solver, recording each
    (coupling, mesh) attempt; the first solve on `mesh` fails."""
    real = heteroclinic.solve_heteroclinic
    attempts = []

    def failing(lam, *args, **kwargs):
        attempts.append((lam, kwargs["n"]))
        if kwargs["n"] == mesh and [m for _, m in attempts].count(mesh) == 1:
            raise NonConvergenceError(1, 1.0)
        return real(lam, *args, **kwargs)

    monkeypatch.setattr(heteroclinic, "solve_heteroclinic", failing)
    return attempts


def test_correct_on_ladder_starts_on_the_coarsest_mesh():
    # 1025 nodes is not the coarsest mesh of 8193's ladder (513)
    with pytest.raises(ValueError, match="ladder of 8193 starts at 513"):
        correct_on_ladder(solve_heteroclinic(3.0, n=1025), 8193)


def test_coarse_failure_halves_the_step(sol3, monkeypatch):
    attempts = fail_first_solve_on(513, monkeypatch)
    trace = continue_in_lambda(sol3, SWEEP)
    # the failed coarsest solve at 10 is followed by no finer one there;
    # the halved proposal climbs the whole ladder
    half = pytest.approx(math.sqrt(30.0))
    assert attempts[:4] == [(10.0, 513), (half, 513), (half, 2049), (half, 8193)]
    assert sum(s.halvings for s in trace.steps) == 1
    assert [e.lam for e in trace.entries if e.lam in SWEEP] == list(SWEEP)


@pytest.mark.parametrize("mesh", [2049, 8193])
def test_failure_on_a_finer_mesh_halves_the_step(sol3, monkeypatch, mesh):
    attempts = fail_first_solve_on(mesh, monkeypatch)
    trace = continue_in_lambda(sol3, [10.0])
    tried = [(10.0, m) for m in (513, 2049, 8193) if m <= mesh]
    half = pytest.approx(math.sqrt(30.0))
    assert attempts == tried + [(half, 513), (half, 2049), (half, 8193)] + [
        (10.0, m) for m in (513, 2049, 8193)
    ]
    assert [s.halvings for s in trace.steps] == [1, 0]
    assert trace.solutions[-1].lam == 10.0


def test_only_the_first_step_resamples_the_requested_mesh(sol3, monkeypatch):
    # the climb seeds from the previous climb: after the first step every
    # seed comes from a coarser mesh, and each seed is one spline (v1's;
    # v2 is its mirror)
    sources, splines = [], []
    real_seed, real_resample = heteroclinic._seed_on_grid, heteroclinic.resample

    def counting_seed(z, *args):
        sources.append(z.size)
        splines.append(0)
        return real_seed(z, *args)

    def counting_resample(*args):
        splines[-1] += 1
        return real_resample(*args)

    monkeypatch.setattr(heteroclinic, "_seed_on_grid", counting_seed)
    monkeypatch.setattr(heteroclinic, "resample", counting_resample)
    trace = continue_in_lambda(sol3, SWEEP)
    assert len(trace.steps) == len(SWEEP)
    assert sources == [8193, 513, 2049] + [513, 513, 2049] * (len(SWEEP) - 1)
    assert 8193 not in sources[3:]
    assert splines == [1] * len(sources)


@pytest.mark.parametrize(
    "n,meshes",
    [
        (1025, [1025]),
        (2041, [2041]),
        (2043, [513, 2043]),
        (2049, [513, 2049]),
        (2051, [515, 2051]),
        (8161, [2041, 8161]),
        (8163, [513, 2043, 8163]),
    ],
)
def test_coarse_mesh_has_a_quarter_of_the_intervals(n, meshes, monkeypatch):
    # each mesh of the ladder has (m - 1)/4 + 1 nodes rounded up to odd, m
    # the next finer one; none below 513 nodes, the fewest
    # solve_heteroclinic accepts
    start = solve_heteroclinic(3.0, n=n)
    real = heteroclinic.solve_heteroclinic
    calls = []

    def recording(lam, *args, **kwargs):
        calls.append(kwargs["n"])
        return real(lam, *args, **kwargs)

    monkeypatch.setattr(heteroclinic, "solve_heteroclinic", recording)
    trace = continue_in_lambda(start, [10.0])
    assert calls == meshes == list(mesh_ladder(n))
    assert trace.solutions[-1].n == n
    assert len(trace.steps[0].coarse_iterations) == len(meshes) - 1


def test_interface_width_saturates_upward(sweep_solutions):
    widths = [interface_width(sweep_solutions[lam]) for lam in SWEEP]
    assert all(b < a for a, b in zip(widths, widths[1:]))
    assert widths[0] == pytest.approx(2.3826, abs=0.01)
    assert widths[-1] == pytest.approx(1.9401, abs=0.01)


def test_downward_continuation_widens_interface():
    # couplings below 3 are reached by direct solves from the lam = 3 seed
    lams = (3.0, 2.5, 2.0, 1.5, 1.2)
    ordered = [interface_width(solve_heteroclinic(lam, n=4097)) for lam in lams]
    assert all(b > a for a, b in zip(ordered, ordered[1:]))
    assert ordered[0] == pytest.approx(3.107, abs=0.02)
    assert ordered[-1] == pytest.approx(7.151, abs=0.15)


def test_domain_halfwidth_grows_toward_unit_coupling():
    assert default_domain_halfwidth(3.0) == 20.0
    assert default_domain_halfwidth(1.2) > 25.0
    assert default_domain_halfwidth(1e6) >= 20.0


def test_qualitative_checks(sweep_solutions):
    flags = sweep_solutions[1e4].flags
    assert flags.monotone and flags.bounded


def test_a_converged_dip_below_the_sign_floor_raises(monkeypatch):
    # Newton "converges" to a state whose v1 dips to -2e-11 at node 2, in
    # the saturated left tail: below the sign floor -1e-11, off the
    # positive branch
    def dipped(residual, jacobian, init):
        y = init.copy()
        y[2] = -2e-11  # even places of sector order are nodes 1..n//2
        return y, 1, 0.0

    monkeypatch.setattr(heteroclinic, "newton_solve", dipped)
    with pytest.raises(SignViolationError, match="sign violation after convergence at lam=3"):
        solve_heteroclinic(3.0, n=1025)


@pytest.mark.parametrize("entry", [-1e-12, 1.0 + 1e-12])
def test_a_value_outside_the_unit_interval_is_not_bounded(sol3, entry):
    # one entry past a limit state by more than the saturation band 1e-13:
    # below 0 in the left tail fails the lower bound; above 1 at the right
    # end, whose mirror partner v2 = v1[0] is 0, fails only the sum check
    # v1^2 + v2^2 <= 1 + 1e-13
    v1 = sol3.v1.copy()
    assert heteroclinic._bounded_flag(v1)
    v1[1 if entry < 0.0 else -1] = entry
    assert not heteroclinic._bounded_flag(v1)


def test_step_underflow_reports_last_converged(sol3, monkeypatch):
    calls = []

    def never_converges(lam, *args, **kwargs):
        calls.append(lam)
        raise NonConvergenceError(1, 1.0)

    monkeypatch.setattr(heteroclinic, "solve_heteroclinic", never_converges)
    with pytest.raises(StepUnderflow) as exc:
        continue_in_lambda(sol3, [1e6])
    assert exc.value.at_lambda == 3.0
    assert len(calls) == 9  # the first proposal and eight halvings


def test_continuation_propagates_non_solver_errors(sol3, monkeypatch):
    calls = []

    def broken(*args, **kwargs):
        calls.append(args)
        raise NotImplementedError("not a solver failure")

    monkeypatch.setattr(heteroclinic, "solve_heteroclinic", broken)
    with pytest.raises(NotImplementedError):
        continue_in_lambda(sol3, [10.0])
    assert len(calls) == 1


@pytest.mark.parametrize(
    "failure",
    [
        NonConvergenceError(1, 1.0),
        SingularJacobianError(0),
        SignViolationError("negative component"),
    ],
)
def test_continuation_halves_step_on_solver_failure(failure, monkeypatch):
    start = solve_heteroclinic(3.0, n=1025)
    real = heteroclinic.solve_heteroclinic
    proposals = []

    def fail_first(lam, *args, **kwargs):
        proposals.append(lam)
        if len(proposals) == 1:
            raise failure
        return real(lam, *args, **kwargs)

    monkeypatch.setattr(heteroclinic, "solve_heteroclinic", fail_first)
    trace = continue_in_lambda(start, [4.0])
    assert [s.halvings for s in trace.steps] == [1, 0]
    assert proposals[1] == pytest.approx(math.sqrt(12.0), rel=1e-12)  # geometric midpoint
    assert trace.solutions[-1].lam == 4.0


@pytest.fixture(scope="module")
def coarse_sweep():
    start = solve_heteroclinic(3.0, n=1025)
    return {s.lam: s for s in continue_in_lambda(start, SWEEP).solutions}


def record_proposals(monkeypatch, failures=0):
    """Route continuation through the real solver, recording each proposed
    coupling; the first `failures` proposals fail as non-convergence."""
    real = heteroclinic.solve_heteroclinic
    proposals = []

    def recording(lam, *args, **kwargs):
        proposals.append(lam)
        if len(proposals) <= failures:
            raise NonConvergenceError(1, 1.0)
        return real(lam, *args, **kwargs)

    monkeypatch.setattr(heteroclinic, "solve_heteroclinic", recording)
    return proposals


@pytest.mark.parametrize("start,target", [(1e5, 1e6)])
def test_decade_step_snaps_onto_target(coarse_sweep, monkeypatch, start, target):
    # a decade step from 1e5 rounds to 999999.9999999995, an ulp short of 1e6
    proposals = record_proposals(monkeypatch)
    trace = continue_in_lambda(coarse_sweep[start], [target])
    assert proposals == [target]
    assert [e.lam for e in trace.entries] == [start, target]


def test_halving_shrinks_the_step_actually_tried(sol3, monkeypatch):
    # the decade step from 3 is clipped to the target 4; a failure there
    # must halve 3 -> 4, not the decade, or the same solve is retried
    proposals = record_proposals(monkeypatch, failures=9)
    with pytest.raises(StepUnderflow):
        continue_in_lambda(sol3, [4.0])
    assert len(proposals) == 9
    assert len(set(proposals)) == 9
    assert proposals[0] == 4.0
    assert proposals[1] == pytest.approx(math.sqrt(12.0), rel=1e-12)
    assert all(3.0 < b < a for a, b in zip(proposals, proposals[1:]))


def test_continuation_target_validation(sol3):
    with pytest.raises(ValueError):
        continue_in_lambda(sol3, [])
    with pytest.raises(ValueError):
        continue_in_lambda(sol3, [10.0, 5.0])
    with pytest.raises(ValueError):
        continue_in_lambda(sol3, [0.5])
    # continuation runs only upward: a downward target list is rejected
    with pytest.raises(ValueError, match="increase strictly"):
        continue_in_lambda(sol3, [2.5, 2.0])


def test_solve_preconditions():
    with pytest.raises(ValueError):
        solve_heteroclinic(1.0, n=1025)
    with pytest.raises(ValueError):
        solve_heteroclinic(3.0, L=10.0, n=1025)
    with pytest.raises(ValueError):
        solve_heteroclinic(3.0, n=256)
    z = np.linspace(-20.0, 20.0, 100)
    v1, _ = explicit_lambda3(z)
    z[50] = z[49]
    with pytest.raises(ValueError, match="strictly increasing"):
        solve_heteroclinic(3.0, n=1025, init=(z, v1))


@pytest.mark.parametrize("n", [8192, 1026])
def test_even_node_count_is_rejected(n):
    with pytest.raises(ValueError, match=f"odd n .*n={n}"):
        solve_heteroclinic(3.0, n=n)


def test_solutions_are_mirror_symmetric_by_construction(sweep_solutions):
    # Newton runs in the even sector: v1(z) = v2(-z) node for node
    for sol in sweep_solutions.values():
        assert np.array_equal(sol.v1, sol.v2[::-1])


def arrays_held(sol) -> list[str]:
    return sorted(k for k, v in vars(sol).items() if isinstance(v, np.ndarray))


def test_a_solution_stores_v1_and_dv1_alone(sweep_trace, odd_mesh_solutions):
    # v2 is a read-only view of v1 reversed, and dv2 a read-only array
    # computed on each read: neither is stored, in a solution or in the
    # trace that holds it. v1 is the one array field; dv1 is kept once read
    fresh = solve_heteroclinic(3.0, n=513)
    assert arrays_held(fresh) == ["v1"]
    for sol in [fresh, *sweep_trace.solutions, *odd_mesh_solutions.values()]:
        fields = [f.name for f in dataclasses.fields(sol)]
        assert [f for f in fields if isinstance(getattr(sol, f), np.ndarray)] == ["v1"]
        assert np.shares_memory(sol.v1, sol.v2)
        assert not sol.v2.flags.writeable and not sol.dv2.flags.writeable
        assert sol.dv2 is not sol.dv2
        assert sol.dv1 is sol.dv1 and not sol.dv1.flags.writeable
        assert arrays_held(sol) == ["dv1", "v1"]
        assert set(vars(sol)) <= set(fields) | {"dv1", "hamiltonian_dev", "flags"}


def counting_differentiate(monkeypatch) -> list[int]:
    """Node counts of the meshes heteroclinic differentiates on, in order."""
    meshes = []

    def counted(values, grid):
        meshes.append(grid.n)
        return differentiate(values, grid)

    monkeypatch.setattr(heteroclinic, "differentiate", counted)
    return meshes


def test_only_solutions_whose_dv1_is_read_are_differentiated(monkeypatch):
    # the climb on 513 nodes and the rung on 2049 only seed the next mesh;
    # the trace reads dv1 on the requested mesh alone, once per solution
    start = solve_heteroclinic(3.0, n=8193)
    meshes = counting_differentiate(monkeypatch)
    trace = continue_in_lambda(start, (10.0, 100.0))
    assert meshes == [8193] * 3
    sol, iterations = correct_on_ladder(
        solve_heteroclinic(30.0, n=513, L=trace.solutions[1].L), 8193
    )
    assert len(iterations) == 3 and meshes == [8193] * 3
    _ = sol.dv2, sol.hamiltonian_dev, sol.flags
    assert meshes == [8193] * 4


@pytest.mark.parametrize("lam, n", [(3.0, 513), (1e3, 1025), (1e6, 8193)])
def test_lazy_fields_equal_the_eager_values(lam, n):
    # what the solve used to compute at once, on the same v1
    start = solve_heteroclinic(3.0, n=n)
    sol = start if lam == 3.0 else continue_in_lambda(start, [lam]).solutions[-1]
    v1, grid = sol.v1, sol.grid
    dv1 = differentiate(v1, grid)
    ham = hamiltonian_values(v1, v1[::-1], dv1, dv1[::-1], lam)
    flags = heteroclinic.SolutionFlags(
        monotone=heteroclinic._monotone_flag(v1), bounded=heteroclinic._bounded_flag(v1)
    )
    assert sol.dv1.tobytes() == dv1.tobytes()
    assert float(np.max(np.abs(ham + 0.25))).hex() == sol.hamiltonian_dev.hex()
    assert sol.flags == flags


def test_derivatives_are_mirror_exact(sweep_solutions, odd_mesh_solutions):
    # differentiate commutes with the mirror up to sign, bit for bit, so
    # dv1(z) = -dv2(-z) node for node and dv2 is differentiate(v2), the
    # signs of its zeros included (n = 8193 and n = 1001)
    for sol in [*sweep_solutions.values(), *odd_mesh_solutions.values()]:
        assert np.array_equal(sol.dv1, -sol.dv2[::-1])
        assert_dv2_is_differentiated(sol)


@pytest.fixture(scope="module")
def fine_sweep():
    return continue_in_lambda(solve_heteroclinic(3.0, n=32769), SWEEP)


def test_every_decade_takes_one_iteration_on_the_requested_mesh(sweep_trace, fine_sweep):
    # nested iteration: the climb is on 513 nodes, and each finer mesh of
    # the ladder corrects in one or two iterations; the requested mesh
    # (8193 or 32769 nodes) takes one and ends at the rounding floor
    for trace, coarser in ((sweep_trace, 2), (fine_sweep, 3)):
        for step, sol in zip(trace.steps, trace.solutions[1:]):
            assert step.halvings == 0 and step.iterations == 1
            assert len(step.coarse_iterations) == coarser
            assert max(step.coarse_iterations[1:]) <= 2
            assert sol.newton_residual <= 1e-12


def assert_dv2_is_differentiated(sol):
    # dv2 is dv1 mirrored, and equals differentiate(v2) bit for bit, the
    # signs of its zeros included
    expected = differentiate(sol.v2, sol.grid)
    assert np.array_equal(sol.dv2, expected)
    assert np.array_equal(np.signbit(sol.dv2), np.signbit(expected))


def test_dv2_is_differentiate_v2_on_the_fine_sweep(fine_sweep):
    for sol in fine_sweep.solutions:
        assert_dv2_is_differentiated(sol)


@settings(max_examples=30, deadline=None)
@given(
    half=st.integers(256, 1024),
    log_lam=st.floats(math.log(1.5), math.log(1e6)),
    width=st.floats(0.05, 0.8),
    shift=st.floats(-3.0, 3.0),
)
def test_dv2_is_differentiate_v2_on_saturated_states(half, log_lam, width, shift):
    # Newton "converges" at once to a tanh ramp whose tails are exactly 0
    # and 1, so dv1 has exact zeros there: -dv1 mirrored would turn them
    # into -0.0 where differentiate(v2) gives +0.0
    lam, n = math.exp(log_lam), 2 * half + 1
    grid = default_grid(lam, default_domain_halfwidth(lam), n)
    v1 = 0.5 * (1.0 + np.tanh((grid.nodes - shift) / width))
    assert v1[0] == 0.0 and v1[-1] == 1.0
    u = interleave(v1, v1[::-1])
    converged = lambda residual, jacobian, init: (u[: u.size // 2], 0, 0.0)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(heteroclinic, "newton_solve", converged)
        sol = solve_heteroclinic(lam, n=n)
    assert np.array_equal(sol.v1, v1)
    assert_dv2_is_differentiated(sol)


@pytest.mark.parametrize("lam", [3.0, 1e3])
def test_newton_residual_is_the_full_residual_on_odd_meshes(odd_mesh_solutions, lam):
    # on an exact mirror mesh every residual row equals its mirror row bit
    # for bit, so Newton's sector residual norm is the full-domain one
    sol = odd_mesh_solutions[lam]
    residual, _ = _interleaved(sol.grid, lam)
    full = residual(interleave(sol.v1, sol.v2))
    assert np.array_equal(full, full[::-1])
    assert sol.newton_residual == np.max(np.abs(full))
    assert np.array_equal(sol.v1, sol.v2[::-1])


@pytest.mark.parametrize("n", [1025, 8193])
def test_lambda3_start_is_the_mean_of_the_explicit_fields(monkeypatch, n):
    # Newton accepts the explicit seed at once only just below its stop, so
    # the start vector must keep its bits: the mean of each interleaved
    # unknown of the explicit lam = 3 fields with its mirror
    starts = []
    real = heteroclinic.newton_solve

    def recording(residual, jacobian, init):
        starts.append(init.copy())
        return real(residual, jacobian, init)

    monkeypatch.setattr(heteroclinic, "newton_solve", recording)
    sol = solve_heteroclinic(3.0, n=n)
    u = interleave(*explicit_lambda3(sol.grid.nodes))
    m = u.size // 2
    (start,) = starts
    assert np.array_equal(start, 0.5 * (u[:m] + u[: m - 1 : -1]))


def test_even_sector_jacobian_matches_finite_differences():
    rng = np.random.default_rng(13)
    grid = default_grid(50.0, 20.0, 513)
    sector_residual, sector_jacobian, y = newton_problem(50.0, 513, L=20.0)
    y = y + 0.05 * rng.uniform(-1.0, 1.0, y.shape)
    assert jacobian_fd_error(sector_residual, sector_jacobian, y) <= 1e-8
    # the sector residual is the full one's first half at the mirrored
    # state, bit for bit
    fold, field = _sector(grid.n)
    v1 = field(y)
    assert np.array_equal(fold(v1[1:-1]), y)
    u = interleave(v1, v1[::-1])
    residual, jacobian = _interleaved(grid, 50.0)
    full = residual(u)
    assert np.array_equal(full, full[::-1])
    assert np.array_equal(sector_residual(y), full[: y.shape[0]])
    assert np.array_equal(sector_residual(y), fold(full[0::2]))
    # and its Jacobian is the orthonormal even block of the full Jacobian
    block = sector_jacobian(y)
    assert np.array_equal(block.data, EVEN.band(jacobian(u)).data)


@settings(max_examples=40, deadline=None)
@given(
    half=st.integers(256, 1024),
    log_lam=st.floats(math.log(1.5), math.log(1e6)),
    amp=st.floats(0.0, 0.3),
    freq=st.floats(0.01, 3.0),
)
def test_sector_residual_is_the_mean_of_the_full_residual(half, log_lam, amp, freq):
    # at symmetric states off the solution (the lam = 3 branch plus a sin
    # perturbation), on every odd mesh n = 513..2049: the v1 rows alone
    # give the fold of the full residual at the mirrored state, which is
    # its mirror mean, bit for bit
    lam, n = math.exp(log_lam), 2 * half + 1
    grid = default_grid(lam, default_domain_halfwidth(lam), n)
    sector_residual, _, y = newton_problem(lam, n)
    y = y + amp * np.sin(freq * np.arange(y.size))
    fold, field = _sector(n)
    v1 = field(y)
    residual, _ = _interleaved(grid, lam)
    full = residual(interleave(v1, v1[::-1]))
    m = y.size
    assert np.array_equal(sector_residual(y), fold(full[0::2]))
    assert np.array_equal(sector_residual(y), 0.5 * (full[:m] + full[: m - 1 : -1]))


@settings(max_examples=60, deadline=None)
@given(
    n=st.sampled_from([513, 1025, 8193]),
    lam=st.sampled_from([3.0, 50.0, 1e4]),
    amp=st.floats(0.0, 0.3),
    seed=st.integers(0, 2**32 - 1),
)
def test_sector_jacobian_is_the_even_block_of_the_full_jacobian(n, lam, amp, seed):
    # written directly in sector order, bit for bit the fold of the full
    # Jacobian at the mirrored state: so the hygiene check of the full
    # Jacobian covers Newton's too. The perturbation moves every node, the
    # middle one, whose coupling adds to its diagonal, included
    grid = default_grid(lam, default_domain_halfwidth(lam), n)
    fold, field = _sector(n)
    e1, e2 = explicit_lambda3(grid.nodes)
    rng = np.random.default_rng(seed)
    y = fold(0.5 * (e1 + e2[::-1])[1:-1]) + amp * rng.uniform(-1.0, 1.0, n - 2)
    v1 = field(y)
    st_ = flux_stencil(grid)
    _, full = heteroclinic._interior_residual_jacobian(st_, lam)
    block = heteroclinic._sector_jacobian(st_, lam)(y)
    assert (block.dim, block.bandwidth) == (n - 2, 2)
    assert block.data.tobytes() == EVEN.band(full(v1, v1[::-1])).data.tobytes()


def test_newton_builds_neither_the_full_band_nor_its_fold(sol3, monkeypatch):
    # the full Jacobian and MirrorSector.band serve the spectrum and the
    # hygiene check; a solve or a continuation that reached either fails here
    make = heteroclinic._interior_residual_jacobian

    def refuse(*args):
        raise AssertionError("Newton built a full band or folded one")

    def rows_only(st_, lam):
        rows, _ = make(st_, lam)
        return rows, refuse

    monkeypatch.setattr(heteroclinic, "_interior_residual_jacobian", rows_only)
    monkeypatch.setattr(MirrorSector, "band", refuse)
    start = solve_heteroclinic(3.0, n=2049)
    trace = continue_in_lambda(start, (10.0, 100.0))
    assert [s.lam for s in trace.solutions] == [3.0, 10.0, 100.0]


def test_solve_never_evaluates_the_full_residual(monkeypatch):
    # Newton reads the sector residual from the v1 rows; the interleaved
    # full residual and Jacobian are for the hygiene check alone
    calls = {"interleaved": 0, "rows": 0}
    make, interleaved = heteroclinic._interior_residual_jacobian, heteroclinic._interleaved

    def counting(st_, lam):
        rows, jacobian = make(st_, lam)

        def counted_rows(va, vb):
            calls["rows"] += 1
            return rows(va, vb)

        return counted_rows, jacobian

    def counted_interleaved(grid, lam):
        calls["interleaved"] += 1
        return interleaved(grid, lam)

    monkeypatch.setattr(heteroclinic, "_interior_residual_jacobian", counting)
    monkeypatch.setattr(heteroclinic, "_interleaved", counted_interleaved)
    start = solve_heteroclinic(3.0, n=1025)
    solve_heteroclinic(10.0, n=1025, init=(start.grid.nodes, start.v1))
    assert calls["interleaved"] == 0
    assert calls["rows"] > 2


def test_refine_solution_tightens():
    # refine from a coarse base where the mesh error dominates the deviation
    base = solve_heteroclinic(10.0, n=1025)
    fine = solve_heteroclinic(
        base.lam, L=base.L, n=2 * base.n - 1, init=(base.grid.nodes, base.v1)
    )
    assert fine.lam == base.lam
    assert fine.L == base.L
    assert fine.n == 2 * base.n - 1
    assert fine.newton_residual <= 1e-10
    assert fine.hamiltonian_dev < base.hamiltonian_dev / 3.0


def test_seed_from_a_coarser_solution():
    coarse = solve_heteroclinic(10.0, n=1025)
    fine = solve_heteroclinic(10.0, n=2049, init=(coarse.grid.nodes, coarse.v1))
    assert fine.n == 2049 and fine.L == coarse.L
    assert fine.newton_residual <= 1e-10
    direct = solve_heteroclinic(10.0, n=2049)
    assert np.max(np.abs(fine.v1 - direct.v1)) <= 1e-9


def test_one_mesh_per_solve_attempt(monkeypatch):
    start = solve_heteroclinic(3.0, n=1025)
    meshes, attempts = [], []
    real_grid, real_solve = heteroclinic.default_grid, heteroclinic.solve_heteroclinic

    def counting_grid(*args):
        meshes.append(args)
        return real_grid(*args)

    def counting_solve(*args, **kwargs):
        attempts.append(args[0])
        return real_solve(*args, **kwargs)

    monkeypatch.setattr(heteroclinic, "default_grid", counting_grid)
    monkeypatch.setattr(heteroclinic, "solve_heteroclinic", counting_solve)
    trace = continue_in_lambda(start, [10.0], n=1025)
    assert len(attempts) == len(trace.steps) + sum(s.halvings for s in trace.steps)
    assert len(meshes) == len(attempts) > 0


def test_refine_solution_widens_domain(sweep_solutions):
    base = sweep_solutions[1e3]
    wide = solve_heteroclinic(
        base.lam, L=base.L + 6.0, n=base.n, init=(base.grid.nodes, base.v1)
    )
    assert wide.L == base.L + 6.0
    assert wide.newton_residual <= 1e-10
    assert wide.hamiltonian_dev <= 1e-6
    assert wide.flags.monotone and wide.flags.bounded


def test_trace_requires_monotone_couplings(sol3):
    entry = TraceEntry(
        lam=3.0,
        newton_residual=0.0,
        hamiltonian_dev=0.0,
        sigma_lambda=1.0,
        crossing_value=0.5,
        min_component=0.1,
    )
    with pytest.raises(ValueError):
        ContinuationTrace(entries=(entry, entry), steps=(), solutions=(sol3, sol3))
    # a trace only climbs: a decreasing pair is rejected too
    lower = dataclasses.replace(entry, lam=2.0)
    with pytest.raises(ValueError, match="strictly increasing"):
        ContinuationTrace(entries=(entry, lower), steps=(), solutions=(sol3, sol3))
