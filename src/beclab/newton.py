"""Damped Newton iteration for nonlinear systems.

The step is globalised by backtracking: a step multiplier t starts at 1 and
is multiplied by `damping` until the Armijo-style residual decrease
``|r(u + t*s)| <= (1 - c*t)*|r(u)|`` holds (sup norm, c = 1e-4) or the
multiplier falls below `min_step`. The interface problems here make plain
Newton overshoot near strong layers; damping recovers convergence without
any tuning per problem.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .banded import BandedLU, BandedMatrix, SingularSystemError

__all__ = [
    "NewtonSettings",
    "NewtonResult",
    "NonConvergenceError",
    "SingularJacobianError",
    "newton_solve",
]

_ARMIJO = 1e-4


@dataclass(frozen=True)
class NewtonSettings:
    residual_tol: float = 1e-10
    max_iters: int = 50
    damping: float = 0.5
    min_step: float = 2.0**-20

    def __post_init__(self):
        if self.residual_tol <= 0.0:
            raise ValueError("residual_tol must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if not 0.0 < self.damping < 1.0:
            raise ValueError("damping must lie in (0, 1)")
        if not 0.0 < self.min_step <= 1.0:
            raise ValueError("min_step must lie in (0, 1]")


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
    settings: NewtonSettings = NewtonSettings(),
) -> NewtonResult:
    """Run damped Newton from `init` until the sup-norm residual falls below
    settings.residual_tol.

    The jacobian callback returns a BandedMatrix; each step is one banded
    LU factorisation and solve.
    Raises NonConvergenceError (carrying iterations and best residual) when
    the iteration budget or the backtracking floor is exhausted, and
    SingularJacobianError when the linear solve reports a singular pivot.
    """
    u = np.atleast_1d(np.asarray(init, dtype=float)).copy()
    r = residual(u)
    rnorm = _sup(r)
    best = rnorm
    for it in range(settings.max_iters):
        if rnorm <= settings.residual_tol:
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
            if rn_trial <= (1.0 - _ARMIJO * t) * rnorm or rn_trial <= settings.residual_tol:
                break
            t *= settings.damping
            if t < settings.min_step:
                raise NonConvergenceError(it + 1, min(best, rn_trial))
        u, r, rnorm = trial, r_trial, rn_trial
        best = min(best, rnorm)
    if rnorm <= settings.residual_tol:
        return NewtonResult(u, settings.max_iters, rnorm)
    raise NonConvergenceError(settings.max_iters, best)
