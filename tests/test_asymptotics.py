from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from beclab import (
    PSI0,
    ErrorReport,
    Grid,
    build_composite,
    fit_error_orders,
    measure_errors,
    shift_estimate,
)

SWEEP = (1e1, 1e2, 1e3, 1e4, 1e5, 1e6)


@pytest.fixture(scope="module")
def reports(sweep_solutions, blowup_wide):
    out = {}
    for lam in SWEEP:
        approx = build_composite(lam, blowup_wide)
        out[lam] = measure_errors(sweep_solutions[lam], approx)
    return out


def test_outer_order_window(reports):
    orders = fit_error_orders([reports[lam] for lam in SWEEP if lam >= 100.0])
    # weighted outer sup carries a log factor on top of lam^{-3/4}, which
    # tilts the fitted slope toward -0.65; the window brackets that.
    assert -0.90 <= orders.outer.slope <= -0.60
    assert orders.outer.slope == pytest.approx(-0.678, abs=0.05)
    assert -0.90 <= orders.outer_deriv.slope <= -0.60
    # core sub-window errors follow the clean power laws
    assert orders.inner.slope == pytest.approx(-0.75, abs=0.08)
    assert orders.inner_deriv.slope == pytest.approx(-0.50, abs=0.08)


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
    orders = fit_error_orders([reports[lam] for lam in SWEEP if lam >= 100.0])
    assert orders.jump.slope == pytest.approx(-0.383, abs=0.05)


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


def test_shift_estimate_default_kappa(sweep_solutions):
    xi = shift_estimate(sweep_solutions[1e4])
    assert xi * 1e4**0.25 == pytest.approx(0.545271 / PSI0, rel=0.01)


def test_shift_estimate_precondition(sweep_solutions):
    with pytest.raises(ValueError):
        shift_estimate(sweep_solutions[1e1])


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
        s1, s2 = approx.values(float(zk))
        assert s1 == a1[k] and s2 == a2[k]
    assert approx.jump() > 0.0


def test_measure_errors_guards(sweep_solutions, blowup_wide):
    approx = build_composite(1e4, blowup_wide)
    with pytest.raises(ValueError):
        measure_errors(sweep_solutions[1e2], approx)


def test_measure_errors_translation_invariant(sweep_solutions, blowup_wide):
    sol = sweep_solutions[1e4]
    approx = build_composite(1e4, blowup_wide)
    base = measure_errors(sol, approx)
    shifted_grid = Grid(nodes=sol.grid.nodes + 0.5, grading=sol.grid.grading)
    shifted = dataclasses.replace(sol, grid=shifted_grid)
    moved = measure_errors(shifted, approx)
    assert moved.outer_sup_weighted == pytest.approx(
        base.outer_sup_weighted, rel=1e-9
    )
    assert moved.inner_sup == pytest.approx(base.inner_sup, rel=1e-9)
    assert moved.inner_sup_core == pytest.approx(base.inner_sup_core, rel=1e-9)


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
