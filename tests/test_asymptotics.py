from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from beclab import (
    PSI0,
    ErrorReport,
    build_composite,
    fit_error_orders,
    fit_loglog,
    measure_errors,
    shift_estimate,
)
from beclab import asymptotics, profiles
from beclab.calculus import resample

SWEEP = (1e1, 1e2, 1e3, 1e4, 1e5, 1e6)


@pytest.fixture(scope="module")
def reports(sweep_solutions, blowup_wide):
    out = {}
    for lam in SWEEP:
        approx = build_composite(lam, blowup_wide)
        out[lam] = measure_errors(sweep_solutions[lam], approx)
    return out


def test_outer_order_window(reports):
    fit_lams = [lam for lam in SWEEP if lam >= 100.0]
    orders = fit_error_orders([reports[lam] for lam in fit_lams])
    # weighted outer sup carries a log factor on top of lam^{-3/4}, which
    # tilts the fitted slope toward -0.65; the window brackets that.
    assert -0.90 <= orders.outer <= -0.60
    assert orders.outer == pytest.approx(-0.678, abs=0.05)
    assert -0.90 <= orders.outer_deriv <= -0.60
    # core sub-window errors follow the clean power laws
    assert orders.inner == pytest.approx(-0.75, abs=0.08)
    inner_deriv = fit_loglog([(lam, reports[lam].inner_deriv_core) for lam in fit_lams])
    assert inner_deriv == pytest.approx(-0.50, abs=0.08)


def test_inner_core_band(reports):
    scaled = [reports[lam].inner_sup_core * lam**0.75 for lam in SWEEP]
    assert max(scaled) / min(scaled) <= 3.0


def test_jump_matches_closed_form(reports, blowup_wide):
    # at the right match point the gluing defect reduces to
    # psi0*y - tanh(psi0*y) at y = match + xi, up to the Gaussian far-field
    # remainder of the core profile.
    for lam in (1e4, 1e6):
        m = math.log(lam) * lam**-0.25
        xi = blowup_wide.kappa / PSI0 * lam**-0.25
        y = m + xi
        predicted = PSI0 * y - math.tanh(PSI0 * y)
        assert reports[lam].jump == pytest.approx(predicted, rel=1e-5)


def test_jump_slope_is_log_limited(reports):
    # (ln lam)^3 lam^{-3/4} gives a shallow fitted slope near -0.38; the
    # jump is a gluing diagnostic, not one of the error-law exponents.
    slope = fit_loglog([(lam, reports[lam].jump) for lam in SWEEP if lam >= 100.0])
    assert slope == pytest.approx(-0.383, abs=0.05)


def test_shifted_variant_beats_leading(sweep_solutions, blowup_wide):
    for lam in (1e2, 1e4, 1e6):
        sol = sweep_solutions[lam]
        shifted = measure_errors(sol, build_composite(lam, blowup_wide))
        leading = measure_errors(
            sol, build_composite(lam, blowup_wide, variant="leading")
        )
        assert shifted.outer_sup_weighted < leading.outer_sup_weighted


def test_shift_estimate_accuracy(sweep_solutions, blowup_wide):
    target = blowup_wide.kappa / PSI0
    rel4 = abs(
        shift_estimate(sweep_solutions[1e4], kappa=blowup_wide.kappa) * 1e4**0.25
        - target
    ) / target
    rel6 = abs(
        shift_estimate(sweep_solutions[1e6], kappa=blowup_wide.kappa) * 1e6**0.25
        - target
    ) / target
    assert rel4 <= 0.10
    assert rel6 <= 0.05
    # measured values sit far inside the windows
    assert rel4 <= 0.01 and rel6 <= 0.01


def test_shift_estimate_precondition(sweep_solutions, blowup_wide):
    with pytest.raises(ValueError):
        shift_estimate(sweep_solutions[1e1], kappa=blowup_wide.kappa)


@pytest.mark.parametrize("edge", [0, 1])
def test_shift_minimizer_at_a_bracket_edge_raises(sweep_solutions, blowup_wide, monkeypatch, edge):
    def at_edge(f, a, b, tol):
        x = (a, b)[edge]
        return x, f(x)

    monkeypatch.setattr(asymptotics, "golden_minimize", at_edge)
    with pytest.raises(RuntimeError, match="shift minimizer at bracket edge"):
        shift_estimate(sweep_solutions[1e4], kappa=blowup_wide.kappa)


def test_build_composite_preconditions(blowup_wide):
    with pytest.raises(ValueError):
        build_composite(5.0, blowup_wide)
    with pytest.raises(ValueError):
        build_composite(1e2, blowup_wide, variant="other")
    with pytest.raises(ValueError):
        build_composite(1e7, blowup_wide)  # ln(1e7) exceeds X = 15


def test_composite_scalar_matches_array(blowup_wide):
    approx = build_composite(1e4, blowup_wide)
    z = np.array([-2.0, -0.05, 0.0, 0.05, 2.0])
    a1, a2 = approx.values(z)
    for k, zk in enumerate(z):
        s1, s2 = approx.values(np.array([zk]))
        assert s1[0] == a1[k] and s2[0] == a2[k]
    assert approx.jump() > 0.0


def test_measure_errors_guards(sweep_solutions, blowup_wide):
    approx = build_composite(1e4, blowup_wide)
    with pytest.raises(ValueError):
        measure_errors(sweep_solutions[1e2], approx)


def _v2_side_outer_errors(sol, approx):
    # measure_errors' outer norms, taken on v2's saturation side z < -match
    z = sol.grid.nodes
    cap = asymptotics._WEIGHT_BUDGET / asymptotics._C_WEIGHT
    left = (z < -approx.match_point) & (z >= -cap)
    _, a2 = approx.values(z)
    _, d2 = approx.derivatives(z)
    weight = np.exp(asymptotics._C_WEIGHT * np.abs(z[left]))
    scale = np.abs(z[left]) + approx.lam**-0.25
    return (
        float(np.max(np.abs(sol.v2 - a2)[left] * weight)),
        float(np.max(np.abs(sol.dv2 - d2)[left] * weight / scale)),
    )


@pytest.mark.parametrize("variant", ["leading", "shifted"])
def test_outer_errors_mirror_on_the_v2_side(
    sweep_solutions, odd_mesh_solutions, blowup_wide, variant
):
    # solutions are centred by construction and their derivatives mirror
    # bit for bit, so v1's side measures both: the value and derivative
    # norms are the same doubles on v2's side
    sols = list(sweep_solutions.values()) + [odd_mesh_solutions[1e3]]
    for sol in sols:
        approx = build_composite(sol.lam, blowup_wide, variant)
        rep = measure_errors(sol, approx)
        outer, deriv = _v2_side_outer_errors(sol, approx)
        assert outer == rep.outer_sup_weighted
        assert deriv == rep.outer_deriv_weighted


def _two_branch_outer(z, xi):
    # the outer pieces as separate fronts: U1(s) = tanh(s/sqrt(2)) on the
    # right and U2(s) = tanh(-s/sqrt(2)) on the left, at s = z + xi and
    # s = z - xi, with their derivatives
    r2 = math.sqrt(2.0)
    s1, s2 = z + xi, z - xi
    return (
        np.tanh(1.0 * s1 / r2),
        np.tanh(-1.0 * s2 / r2),
        1.0 / (r2 * np.cosh(s1 / r2) ** 2),
        -1.0 / (r2 * np.cosh(s2 / r2) ** 2),
    )


@pytest.mark.parametrize("variant", ["leading", "shifted"])
@pytest.mark.parametrize("lam", [1e2, 1e4, 1e6])
def test_composite_outer_pieces_match_two_branch_formulas(
    sweep_solutions, blowup_wide, variant, lam
):
    # the whole-line front and its mirror give the two-branch pieces and
    # the gluing jump bit for bit
    approx = build_composite(lam, blowup_wide, variant)
    z, m, xi = sweep_solutions[lam].grid.nodes, approx.match_point, approx.xi
    right, left = z > m, z < -m
    a1, a2 = approx.values(z)
    d1, d2 = approx.derivatives(z)
    u1, u2, du1, du2 = _two_branch_outer(z, xi)
    assert np.array_equal(a1[right], u1[right]) and np.array_equal(a2[left], u2[left])
    assert np.array_equal(d1[right], du1[right]) and np.array_equal(d2[left], du2[left])
    inner1, inner2 = approx.values(np.array([m, -m]))
    r1, _, _, _ = _two_branch_outer(np.array([m]), xi)
    _, l2, _, _ = _two_branch_outer(np.array([-m]), xi)
    jump = max(abs(r1[0] - inner1[0]), abs(inner2[0]), abs(inner1[1]), abs(l2[0] - inner2[1]))
    assert approx.jump() == jump


def test_fit_error_orders_preconditions(reports):
    with pytest.raises(ValueError):
        fit_error_orders([reports[1e2], reports[1e3], reports[1e4]])
    with pytest.raises(ValueError):
        fit_error_orders([reports[lam] for lam in (1e1, 1e2, 1e2, 1e3)])


def test_error_report_validation():
    with pytest.raises(ValueError):
        ErrorReport(
            lam=1e2,
            c_weight=1.0,
            outer_sup_weighted=-1.0,
            outer_deriv_weighted=0.0,
            inner_sup=0.0,
            inner_deriv=0.0,
            inner_sup_core=0.0,
            inner_deriv_core=0.0,
            jump=0.0,
        )


def test_composite_builds_each_core_spline_once(blowup_default, monkeypatch):
    # the four core splines are built on first use and kept, and the inner
    # piece is resample's, bit for bit
    builds = []
    real = profiles._spline

    def counting(nodes, values):
        builds.append(values)
        return real(nodes, values)

    monkeypatch.setattr(profiles, "_spline", counting)
    b = dataclasses.replace(blowup_default)  # no splines built yet
    lam = 1e3
    approx = build_composite(lam, b)
    z = np.linspace(-approx.match_point, approx.match_point, 301)
    for _ in range(3):
        v1, v2 = approx.values(z)
        d1, d2 = approx.derivatives(z)
    assert len(builds) == 4
    x, nodes = lam**0.25 * z, b.grid.nodes
    assert np.array_equal(v1, lam**-0.25 * resample(nodes, b.V1, x))
    assert np.array_equal(v2, lam**-0.25 * resample(nodes, b.V2, x))
    assert np.array_equal(d1, resample(nodes, b.dV1, x))
    assert np.array_equal(d2, resample(nodes, b.dV2, x))
