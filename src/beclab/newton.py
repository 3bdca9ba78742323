"""Damped Newton iteration for nonlinear systems.

The step is globalised by backtracking: a step multiplier t starts at 1 and
is multiplied by _DAMPING until the Armijo-style residual decrease
``|r(u + t*s)| <= (1 - c*t)*|r(u)|`` holds (sup norm, c = 1e-4) or the
multiplier falls below _MIN_STEP. The interface problems here make plain
Newton overshoot near strong layers; damping recovers convergence without
any tuning per problem.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from .banded import BandedLU, BandedMatrix, SingularSystemError

__all__ = [
    "NewtonResult",
    "NonConvergenceError",
    "SingularJacobianError",
    "newton_solve",
]

_ARMIJO = 1e-4

# Stop when the sup-norm residual is at most _RESIDUAL_TOL, or fail after
# _MAX_ITERS steps or when backtracking shrinks a step below _MIN_STEP.
_RESIDUAL_TOL = 1e-10
_MAX_ITERS = 50
_DAMPING = 0.5
_MIN_STEP = 2.0**-20


class NewtonResult(NamedTuple):
    solution: np.ndarray
    iterations: int
    residual_norm: float


class NonConvergenceError(RuntimeError):
    def __init__(self, iterations: int, best_residual: float):
        self.iterations = iterations
        self.best_residual = best_residual
        super().__init__(
            f"Newton did not converge after {iterations} iterations "
            f"(best residual {best_residual:.3e})"
        )


class SingularJacobianError(RuntimeError):
    def __init__(self, iteration: int):
        self.iteration = iteration
        super().__init__(f"singular Jacobian at iteration {iteration}")


def _sup(r: np.ndarray) -> float:
    if not np.all(np.isfinite(r)):
        return np.inf
    return float(np.max(np.abs(r), initial=0.0))


def newton_solve(
    residual: Callable[[np.ndarray], np.ndarray],
    jacobian: Callable[[np.ndarray], BandedMatrix],
    init: np.ndarray,
) -> NewtonResult:
    """Run damped Newton from `init` until the sup-norm residual falls below
    _RESIDUAL_TOL.

    The jacobian callback returns a BandedMatrix; each step is one banded
    LU factorisation and solve. A FilledBand is written once, by its fill,
    straight into the factorisation's own storage.
    Raises NonConvergenceError (carrying iterations and best residual) when
    the iteration budget or the backtracking floor is exhausted, or at
    once, before any factorisation, when the residual at init is not
    finite; and
    SingularJacobianError when the linear solve reports a singular pivot.
    """
    u = np.atleast_1d(np.asarray(init, dtype=float)).copy()
    r = residual(u)
    rnorm = _sup(r)
    if rnorm == np.inf:  # inf <= (1 - c*t)*inf would accept every trial
        raise NonConvergenceError(0, rnorm)
    best = rnorm
    for it in range(_MAX_ITERS):
        if rnorm <= _RESIDUAL_TOL:
            return NewtonResult(u, it, rnorm)
        try:
            step = BandedLU(jacobian(u)).solve(-r)
        except SingularSystemError as exc:
            raise SingularJacobianError(it) from exc
        t = 1.0
        while True:
            trial = u + t * step
            r_trial = residual(trial)
            rn_trial = _sup(r_trial)
            if rn_trial <= (1.0 - _ARMIJO * t) * rnorm or rn_trial <= _RESIDUAL_TOL:
                break
            t *= _DAMPING
            if t < _MIN_STEP:
                raise NonConvergenceError(it + 1, min(best, rn_trial))
        u, r, rnorm = trial, r_trial, rn_trial
        best = min(best, rnorm)
    if rnorm <= _RESIDUAL_TOL:
        return NewtonResult(u, _MAX_ITERS, rnorm)
    raise NonConvergenceError(_MAX_ITERS, best)
