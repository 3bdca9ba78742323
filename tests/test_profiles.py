from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from beclab import (
    PSI0,
    extract_kappa,
    kappa_shooting,
    outer_derivative,
    outer_value,
    resample,
    rescale_blowup,
    solve_blowup,
)

# Frozen oracle values from the mirror-symmetric shooting integration
# (DOP853, rtol 1e-13): center value a = V1(0) and far-field offset kappa.
KAPPA_FROZEN = 0.545271399338
CENTER_FROZEN = 0.612175041607


def test_outer_closed_form_at_origin():
    assert outer_value(1, 0.0) == 0.0
    assert outer_derivative(1, 0.0) == PSI0
    assert outer_value(2, 0.0) == 0.0


def test_outer_saturation():
    assert abs(outer_value(1, 30.0) - 1.0) <= math.exp(-30.0)
    assert abs(outer_value(2, -30.0) - 1.0) <= math.exp(-30.0)
    assert abs(outer_derivative(1, 30.0)) <= math.exp(-20.0)


def test_outer_mirror_between_branches():
    # branch 1 lives on z >= 0, branch 2 on z <= 0
    z = np.linspace(0.0, 5.0, 41)
    assert np.allclose(outer_value(2, -z), outer_value(1, z), atol=1e-15)
    # U2(z) = U1(-z), so the derivatives mirror with a sign flip
    assert np.allclose(outer_derivative(2, -z), -outer_derivative(1, z), atol=1e-15)


def test_outer_half_line_domains():
    with pytest.raises(ValueError):
        outer_value(1, -0.5)
    with pytest.raises(ValueError):
        outer_value(2, 0.5)
    with pytest.raises(ValueError):
        outer_derivative(1, np.array([1.0, -1.0]))


def test_outer_branch_validation():
    with pytest.raises(ValueError):
        outer_value(3, 0.0)
    with pytest.raises(ValueError):
        outer_derivative(0, 0.0)


def test_outer_satisfies_scalar_front_equation():
    # -U'' + U^3 - U = 0, checked with a second difference
    h = 1e-4
    z = np.linspace(0.1, 4.0, 33)
    u = outer_value(1, z)
    upp = (outer_value(1, z + h) - 2.0 * u + outer_value(1, z - h)) / h**2
    assert np.allclose(upp, u**3 - u, atol=1e-6)


def test_blowup_center_symmetry(blowup_default):
    p = blowup_default
    i0 = int(np.argmin(np.abs(p.grid.nodes)))
    assert abs(p.V1[i0] - p.V2[i0]) <= 1e-6
    assert abs(p.dV1[i0] + p.dV2[i0]) <= 1e-6
    assert abs(p.V1[i0] - CENTER_FROZEN) <= 1e-6


def test_blowup_first_integral(blowup_default):
    p = blowup_default
    ham = p.dV1**2 + p.dV2**2 - (p.V1 * p.V2) ** 2
    assert float(np.max(np.abs(ham - 0.5))) <= 1e-6
    assert p.hamiltonian_dev <= 1e-6
    assert p.residual <= 1e-10


def test_blowup_mirror_symmetry(blowup_default):
    p = blowup_default
    dev = np.abs(p.V1 - p.V2[::-1]) / (1.0 + np.abs(p.grid.nodes))
    assert float(np.max(dev)) <= 1e-6


def test_blowup_slope_band(blowup_default):
    p = blowup_default
    interior = p.dV1[1:-1]
    # strict bounds hold up to differentiation roundoff in the flat tails
    assert float(np.min(interior)) > -1e-12
    assert float(np.max(interior)) < PSI0 + 1e-9
    # far-field saturation of the slope
    assert abs(p.dV1[-1] - PSI0) <= 1e-9
    assert float(np.max(np.diff(p.V2))) <= 1e-11


def test_blowup_tail_envelope(blowup_default):
    # V2 decays at least exponentially past the core (true decay is Gaussian)
    p = blowup_default
    x = p.grid.nodes
    sel = (x >= 2.0) & (p.V2 > 1e-12)
    x2 = float(p.V2[int(np.argmin(np.abs(x - 2.0)))])
    assert np.all(p.V2[sel] <= x2 * np.exp(-(x[sel] - 2.0)) + 1e-13)


def test_blowup_first_integral_second_order():
    dev_coarse = solve_blowup(12.0, 2049).hamiltonian_dev
    dev_fine = solve_blowup(12.0, 4097).hamiltonian_dev
    assert 3.4 <= dev_coarse / dev_fine <= 4.6


def test_kappa_against_shooting(blowup_default):
    shot = kappa_shooting()
    assert abs(shot.kappa - KAPPA_FROZEN) <= 1e-9
    assert abs(shot.crossing - CENTER_FROZEN) <= 1e-9
    # slope at the crossing follows from the first integral
    slope = math.sqrt((0.5 + shot.crossing**4) / 2.0)
    assert abs(shot.slope - slope) <= 1e-12
    assert blowup_default.kappa > 0.0
    assert abs(blowup_default.kappa - shot.kappa) <= 1e-6


def test_shooting_read_point_stability():
    k5 = kappa_shooting(read_at=5.0).kappa
    k8 = kappa_shooting(read_at=8.0).kappa
    assert abs(k5 - k8) <= 1e-9


def test_extract_kappa_window_consistency():
    ka = extract_kappa(solve_blowup(10.0, 2049))
    kb = extract_kappa(solve_blowup(14.0, 2869))
    assert abs(ka - kb) <= 1e-6


def test_extract_kappa_rejects_unconverged_far_field(blowup_default):
    p = blowup_default
    x = p.grid.nodes
    tampered = dataclasses.replace(p, V1=p.V1 + 0.1 * np.exp(x - p.X))
    with pytest.raises(ValueError):
        extract_kappa(tampered)


def test_rescale_identity(blowup_default):
    p = blowup_default
    q = rescale_blowup(p, 1.0, 0.0)
    assert np.allclose(q.V1, p.V1, atol=1e-12)
    assert np.allclose(q.V2, p.V2, atol=1e-12)
    assert q.kappa == pytest.approx(p.kappa, abs=1e-14)
    assert q.psi0 == p.psi0


def test_rescale_doubles_hamiltonian(blowup_default):
    q = rescale_blowup(blowup_default, 2.0, 0.0)
    ham = q.dV1**2 + q.dV2**2 - (q.V1 * q.V2) ** 2
    assert q.psi0**2 == pytest.approx(8.0, abs=1e-14)
    assert float(np.max(np.abs(ham - 8.0))) <= 1e-4


def test_rescale_translation(blowup_default):
    p = blowup_default
    q = rescale_blowup(p, 1.0, 2.0)
    # V1(x-2) has far field psi0*x + (kappa - 2*psi0)
    assert q.kappa == pytest.approx(p.kappa - 2.0 * PSI0, abs=1e-12)
    assert abs(extract_kappa(q) - q.kappa) <= 1e-6
    i = int(np.argmin(np.abs(q.grid.nodes - 3.0)))
    shifted = resample(p.grid.nodes, p.V1, float(q.grid.nodes[i]) - 2.0)
    assert q.V1[i] == pytest.approx(shifted, abs=1e-10)


def test_rescale_validation(blowup_default):
    with pytest.raises(ValueError):
        rescale_blowup(blowup_default, -1.0, 0.0)
    with pytest.raises(ValueError):
        rescale_blowup(blowup_default, 1.0, 100.0)


def test_solve_blowup_preconditions():
    with pytest.raises(ValueError):
        solve_blowup(X=3.0)
    with pytest.raises(ValueError):
        solve_blowup(X=12.0, n=256)
