from __future__ import annotations

import math

import numpy as np
import pytest

from beclab import (
    ContinuationPolicy,
    FieldPair,
    NonConvergenceError,
    SignViolationError,
    SingularJacobianError,
    StepUnderflow,
    continue_in_lambda,
    default_domain_halfwidth,
    explicit_lambda3,
    hamiltonian_along,
    interface_width,
    qualitative_checks,
    refine_solution,
    rescale_general,
    solve_heteroclinic,
)
from beclab import heteroclinic
from beclab.heteroclinic import ContinuationTrace, TraceEntry

SWEEP = (1e1, 1e2, 1e3, 1e4, 1e5, 1e6)


def explicit_sup(sol) -> float:
    e1, e2 = explicit_lambda3(sol.grid.nodes)
    return float(max(np.max(np.abs(sol.v1 - e1)), np.max(np.abs(sol.v2 - e2))))


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
    assert sol3.flags.pinning_dev <= 1e-8
    assert sol3.flags.symmetric_dev <= 1e-7


def test_lambda3_anchor_tightens_under_doubling(sol3):
    sup_base = explicit_sup(solve_heteroclinic(3.0, n=4097))
    sup_doubled = explicit_sup(sol3)  # n = 8193
    assert sup_doubled <= 1e-8
    assert sup_doubled < sup_base / 10.0


def test_hamiltonian_along(sol3):
    ham, dev = hamiltonian_along(sol3)
    assert ham.shape == sol3.grid.nodes.shape
    assert dev == float(np.max(np.abs(ham + 0.25)))
    assert dev <= 1e-6


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
    # the trace records both the approach step and the exact target for each
    # requested coupling, so compare only entries separated in lambda
    pairs = zip(sweep_trace.entries, sweep_trace.entries[1:])
    for a, b in pairs:
        if b.lam > a.lam * (1.0 + 1e-6):
            assert b.sigma_lambda > a.sigma_lambda
    targets = {e.lam: e.sigma_lambda for e in sweep_trace.entries}
    sigma = [targets[lam] for lam in SWEEP]
    assert all(b > a for a, b in zip(sigma, sigma[1:]))


def test_interface_width_saturates_upward(sweep_solutions):
    widths = [interface_width(sweep_solutions[lam]) for lam in SWEEP]
    assert all(b < a for a, b in zip(widths, widths[1:]))
    assert widths[0] == pytest.approx(2.3826, abs=0.01)
    assert widths[-1] == pytest.approx(1.9401, abs=0.01)


def test_downward_continuation_widens_interface():
    start = solve_heteroclinic(3.0, n=4097)
    trace = continue_in_lambda(start, [2.5, 2.0, 1.5, 1.2])
    widths = {s.lam: interface_width(s) for s in trace.solutions}
    ordered = [widths[lam] for lam in (3.0, 2.5, 2.0, 1.5, 1.2)]
    assert all(b > a for a, b in zip(ordered, ordered[1:]))
    assert ordered[0] == pytest.approx(3.107, abs=0.02)
    assert ordered[-1] == pytest.approx(7.151, abs=0.15)


def test_domain_halfwidth_grows_toward_unit_coupling():
    assert default_domain_halfwidth(3.0) == 20.0
    assert default_domain_halfwidth(1.2) > 25.0
    assert default_domain_halfwidth(1e6) >= 20.0


def test_qualitative_checks(sweep_solutions):
    rep = qualitative_checks(sweep_solutions[1e4])
    assert rep.monotone_v1 and rep.monotone_v2
    assert rep.half_monotone_consistent
    assert rep.bounded
    assert rep.envelope_nodes >= 8
    assert rep.envelope_coeff < 0.0
    assert rep.pinning_dev <= 1e-6
    assert rep.symmetric_dev <= 1e-6


def test_step_underflow_reports_last_converged(sol3, monkeypatch):
    calls = []

    def never_converges(lam, *args, **kwargs):
        calls.append(lam)
        raise NonConvergenceError(1, 1.0)

    monkeypatch.setattr(heteroclinic, "solve_heteroclinic", never_converges)
    policy = ContinuationPolicy(max_halvings=1)
    with pytest.raises(StepUnderflow) as exc:
        continue_in_lambda(sol3, [1e6], policy=policy)
    assert exc.value.at_lambda == 3.0
    assert len(calls) == 2  # the first proposal and one halving


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
    policy = ContinuationPolicy(initial_step_factor=4.0 / 3.0)
    trace = continue_in_lambda(start, [4.0], policy=policy)
    assert [s.halvings for s in trace.steps] == [1, 0]
    assert proposals[1] == pytest.approx(math.sqrt(12.0), rel=1e-12)  # geometric midpoint
    assert trace.solutions[-1].lam == 4.0


def test_continuation_target_validation(sol3):
    with pytest.raises(ValueError):
        continue_in_lambda(sol3, [])
    with pytest.raises(ValueError):
        continue_in_lambda(sol3, [10.0, 5.0])
    with pytest.raises(ValueError):
        continue_in_lambda(sol3, [0.5])


def test_solve_preconditions():
    with pytest.raises(ValueError):
        solve_heteroclinic(1.0)
    with pytest.raises(ValueError):
        solve_heteroclinic(3.0, L=10.0)
    with pytest.raises(ValueError):
        solve_heteroclinic(3.0, n=256)
    bad = FieldPair(v1=np.zeros(100), v2=np.zeros(100))
    with pytest.raises(ValueError):
        solve_heteroclinic(3.0, n=1025, init=bad)
    with pytest.raises(ValueError):
        FieldPair(v1=np.zeros(5), v2=np.zeros(7))


def test_refine_solution_tightens():
    # refine from a coarse base where the mesh error dominates the deviation
    base = solve_heteroclinic(10.0, n=1025)
    fine = refine_solution(base, n=2 * base.n - 1)
    assert fine.lam == base.lam
    assert fine.L == base.L
    assert fine.n == 2 * base.n - 1
    assert fine.newton_residual <= 1e-10
    assert fine.hamiltonian_dev < base.hamiltonian_dev / 3.0


def test_refine_solution_widens_domain(sweep_solutions):
    base = sweep_solutions[1e3]
    wide = refine_solution(base, L=base.L + 6.0)
    assert wide.L == base.L + 6.0
    assert wide.newton_residual <= 1e-10
    assert wide.hamiltonian_dev <= 1e-6
    assert wide.flags.monotone and wide.flags.bounded


def test_rescale_general_canonical_map():
    res = rescale_general(1.0, 4.0, 1.0, 2.0, 1.0, 12.0)
    assert res.valid
    assert res.canonical_lambda == pytest.approx(6.0, abs=1e-14)
    s1, s2, s3, s4 = res.scaling
    assert s1 == pytest.approx(1.0)
    assert s3 == pytest.approx(np.sqrt(2.0))

    res_bad = rescale_general(1.0, 1.0, 1.0, 2.0, 1.0, 12.0)
    assert not res_bad.valid

    with pytest.raises(ValueError):
        rescale_general(0.0, 1.0, 1.0, 1.0, 1.0, 3.0)


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
