from __future__ import annotations

import numpy as np
import pytest

from banded_helpers import add_diagonal
from beclab import BandedMatrix, default_sweep, run_verification
from beclab import verify
from beclab.verify import _hygiene_states, jacobian_fd_error

EXPECTED_CRITERIA = (
    "closed_form_anchors",
    "blowup_profile",
    "heteroclinic_sweep",
    "theorem_1_1_outer_order",
    "theorem_1_1_inner_band",
    "theorem_1_1_shift",
    "theorem_1_2_gap",
    "corollary_1_4_coefficient",
    "corollary_1_4_residual_order",
    "numerics_hygiene",
)


def test_default_sweep_decades():
    assert default_sweep() == (1e1, 1e2, 1e3, 1e4, 1e5, 1e6)


def test_full_report_passes(verification):
    assert tuple(v.name for v in verification.verdicts) == EXPECTED_CRITERIA
    assert verification.passed
    assert verification.failures() == []
    assert verification.scale == 1.0
    assert set(verification.tables) == {"energy", "errors", "spectrum"}
    assert verification.tables["energy"]["lambda"] == list(default_sweep())


def test_gap_counts_two_bound_states(verification):
    # Theorem 1.2 as a count: below the essential edge lie exactly the zero
    # mode and lambda2, at every sweep coupling
    gap = next(v for v in verification.verdicts if v.name == "theorem_1_2_gap")
    assert gap.details["bound_states"] == [2] * len(default_sweep())
    solves = verification.tables["spectrum"]["solves"]
    assert len(solves) == len(default_sweep())
    assert all(isinstance(s, int) and s > 0 for s in solves)


def test_zero_scale_negative_control():
    # collapsing every tolerance window must fail every criterion; a gate
    # that cannot fail verifies nothing
    report = run_verification(n=2049, scale=0.0)
    assert not report.passed
    assert len(report.failures()) == len(EXPECTED_CRITERIA)


def test_preconditions(monkeypatch):
    # every case is rejected up front, before the first solve
    def no_solve(*args, **kwargs):
        raise AssertionError("run_verification solved before rejecting its input")

    monkeypatch.setattr(verify, "solve_heteroclinic", no_solve)
    with pytest.raises(ValueError):
        run_verification(lams=(1e1, 1e2))
    for n in (4099, 8192):  # (4099 + 1)/2 = 2050 is even
        with pytest.raises(ValueError, match=f"1 \\(mod 4\\).*n={n}"):
            run_verification(n=n)
    with pytest.raises(ValueError):
        run_verification(lams=(1e1, 2e1, 4e1, 8e1))
    with pytest.raises(ValueError):
        run_verification(scale=-1.0)
    # valid fit sets, so only the composite-coupling bounds can reject them
    with pytest.raises(ValueError, match="inner window"):
        run_verification(lams=(1e2, 1e3, 1e4, 1e5, 1e8))  # ln(1e8) exceeds X = 15
    with pytest.raises(ValueError, match="lam >= 10"):
        run_verification(lams=(5.0, 1e2, 1e3, 1e4, 1e5))
    # a valid sweep but for one coupling given twice: continuation would
    # reject it only after the anchors, the core profile and the shooting
    with pytest.raises(ValueError, match="lam=100 is repeated"):
        run_verification(lams=(10, 100, 100, 1e3, 1e4, 1e5))


def test_assembled_jacobians_match_finite_differences():
    errors = _hygiene_states()
    assert len(errors) == 2  # interface assembly and core assembly
    assert max(errors) <= 1e-5
    # both assemblies are exact row-wise derivatives; the measured error is
    # pure finite-difference truncation
    assert max(errors) <= 1e-8


def test_jacobian_fd_error_flags_wrong_jacobian():
    def residual(u):
        return u**2 - 2.0

    def wrong_jacobian(u):
        jac = BandedMatrix.zeros(u.shape[0], 0)
        add_diagonal(jac, 0, 3.0 * u)  # should be 2u
        return jac

    err = jacobian_fd_error(residual, wrong_jacobian, np.array([1.0, 2.0]))
    assert err > 1e-1
