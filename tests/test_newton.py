from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import bisect

from beclab import (
    BandedMatrix,
    NonConvergenceError,
    SingularJacobianError,
    newton_solve,
)


def scalar_jacobian(value: float) -> BandedMatrix:
    jac = BandedMatrix.zeros(1, 0)
    jac.set_entry(0, 0, value)
    return jac


def scalar_problem():
    def residual(u):
        return u**2 - 2.0

    def jacobian(u):
        return scalar_jacobian(2.0 * u[0])

    return residual, jacobian


def test_sqrt_two_from_unit_start():
    residual, jacobian = scalar_problem()
    result = newton_solve(residual, jacobian, np.array([1.0]))
    assert result.iterations < 10
    assert result.residual_norm <= 1e-10
    # the residual fixes the error: |u - sqrt(2)| = |u^2 - 2| / (u + sqrt(2))
    assert abs(result.solution[0] - math.sqrt(2.0)) <= result.residual_norm / 2.0


@settings(max_examples=200, deadline=None)
@given(c=st.floats(0.25, 100.0), x0=st.floats(0.5, 20.0))
def test_scalar_square_root_property(c, x0):
    def residual(u):
        return u**2 - c

    def jacobian(u):
        return scalar_jacobian(2.0 * u[0])

    init = np.array([x0])
    result = newton_solve(residual, jacobian, init)
    assert init[0] == x0
    assert result.residual_norm <= 1e-10
    assert float(np.max(np.abs(residual(result.solution)))) == result.residual_norm
    # |x - sqrt(c)| = |x^2 - c| / (x + sqrt(c)), up to rounding of sqrt(c)
    root = math.sqrt(c)
    assert abs(result.solution[0] - root) <= result.residual_norm / root + 4e-16 * root


def test_damping_rescues_overshooting_iteration():
    # arctan from a far start: the full Newton step overshoots and the
    # undamped iteration diverges; backtracking recovers the root.
    def residual(u):
        return np.arctan(u)

    def jacobian(u):
        return scalar_jacobian(1.0 / (1.0 + u[0] ** 2))

    u = 2.0
    for _ in range(6):
        u = u - math.atan(u) * (1.0 + u**2)  # full step, no line search
    assert abs(u) > 1e3  # undamped iterate has blown up

    result = newton_solve(residual, jacobian, np.array([2.0]))
    oracle = bisect(math.atan, -0.5, 1.9, xtol=1e-12)
    assert abs(result.solution[0] - oracle) <= 1e-8


def test_iteration_budget_exhaustion():
    # from 1e30 each full step only halves u: about 100 halvings are needed
    # to reach sqrt(2), twice the 50-step budget
    residual, jacobian = scalar_problem()
    with pytest.raises(NonConvergenceError) as exc:
        newton_solve(residual, jacobian, np.array([1e30]))
    assert exc.value.iterations == 50
    assert exc.value.best_residual > 0.0


def test_singular_jacobian():
    # a zero row and a vanishing pivot are both reported at the iteration
    # where the step solve fails
    with pytest.raises(SingularJacobianError) as exc:
        newton_solve(lambda u: u**2, lambda u: scalar_jacobian(0.0), np.array([1.0]))
    assert exc.value.iteration == 0

    def dependent_rows(u):
        jac = BandedMatrix.zeros(2, 1)
        for i in range(2):
            for j in range(2):
                jac.set_entry(i, j, 1.0)
        return jac

    with pytest.raises(SingularJacobianError) as exc:
        newton_solve(lambda u: u + 1.0, dependent_rows, np.array([1.0, 2.0]))
    assert exc.value.iteration == 0


def test_banded_jacobian_path():
    # coupled 2x2 system: u0^2 + u1 = 3, u0 + u1^2 = 3, root (sqrt(2)+..) near (1.2, 1.2)
    def residual(u):
        return np.array([u[0] ** 2 + u[1] - 3.0, u[0] + u[1] ** 2 - 3.0])

    def jacobian(u):
        jac = BandedMatrix.zeros(2, 1)
        jac.set_entry(0, 0, 2.0 * u[0])
        jac.set_entry(0, 1, 1.0)
        jac.set_entry(1, 0, 1.0)
        jac.set_entry(1, 1, 2.0 * u[1])
        return jac

    result = newton_solve(residual, jacobian, np.array([1.0, 1.5]))
    root = 0.5 * (math.sqrt(13.0) - 1.0)  # symmetric branch u0 = u1
    assert np.allclose(result.solution, root, atol=1e-10)


def test_converged_at_start_takes_no_step():
    residual, jacobian = scalar_problem()
    result = newton_solve(residual, jacobian, np.array([math.sqrt(2.0)]))
    assert result.iterations == 0


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_start_fails_before_any_factorisation(bad):
    # an infinite residual norm passes every Armijo test (inf <= inf), so
    # the iteration must stop before it steps
    calls = []

    def jacobian(u):
        calls.append(u)
        return scalar_jacobian(1.0)

    with pytest.raises(NonConvergenceError) as exc:
        newton_solve(lambda u: u + bad, jacobian, np.array([1.0]))
    assert calls == []
    assert exc.value.iterations == 0 and exc.value.best_residual == np.inf
