from __future__ import annotations

import pytest

from beclab import (
    continue_in_lambda,
    run_verification,
    solve_blowup,
    solve_heteroclinic,
)

# Decade sweep shared by the integration and acceptance tests.
SWEEP = (1e1, 1e2, 1e3, 1e4, 1e5, 1e6)


@pytest.fixture(scope="session")
def blowup_default():
    return solve_blowup(X=12.0, n=4097)


@pytest.fixture(scope="session")
def blowup_wide():
    return solve_blowup(X=15.0, n=4097)


@pytest.fixture(scope="session")
def sol3():
    return solve_heteroclinic(3.0, n=8193)


@pytest.fixture(scope="session")
def sweep_trace(sol3):
    return continue_in_lambda(sol3, SWEEP)


@pytest.fixture(scope="session")
def sweep_solutions(sweep_trace):
    return {s.lam: s for s in sweep_trace.solutions if s.lam in SWEEP}


@pytest.fixture(scope="session")
def odd_mesh_solutions():
    # lam = 3 direct and 1e3 by continuation on n = 1001, where n - 1 is
    # not a power of two
    start = solve_heteroclinic(3.0, n=1001)
    return {s.lam: s for s in continue_in_lambda(start, [1e3]).solutions}


@pytest.fixture(scope="session")
def verification():
    # One full verification run shared by the acceptance gate.
    return run_verification()
