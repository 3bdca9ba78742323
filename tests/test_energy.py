from __future__ import annotations

import math

import numpy as np
import pytest

from beclab import (
    LEADING_TENSION,
    PSI0,
    EnergyReport,
    blowup_energy_coefficient,
    expansion_residual,
    fit_loglog,
    make_grid,
    outer_derivative,
    outer_value,
    partition_constant,
    quadrature,
    sigma_full_form,
    sigma_gradient_form,
    solve_heteroclinic,
)
from beclab.heteroclinic import hamiltonian_values

SWEEP = (1e1, 1e2, 1e3, 1e4, 1e5, 1e6)

# Frozen value of the core energy coefficient I1 (stable to 5e-6 across
# window and mesh refinement).
I1_FROZEN = -0.2570439


def test_leading_tension_closed_form():
    assert LEADING_TENSION == 2.0 * math.sqrt(2.0) / 3.0


def test_partition_constant():
    assert abs(partition_constant() - LEADING_TENSION) <= 1e-8


def test_partition_halves():
    # each saturated front contributes sqrt(2)/3 of gradient energy
    grid = make_grid(0.0, 40.0, 4097)
    half = quadrature(outer_derivative(grid.nodes) ** 2, grid)
    assert abs(half - math.sqrt(2.0) / 3.0) <= 1e-8


def test_front_equipartition():
    # first integral of the scalar front: (U')^2 = (1 - U^2)^2 / 2
    grid = make_grid(0.0, 40.0, 4097)
    u = outer_value(grid.nodes)
    du = outer_derivative(grid.nodes)
    grad = quadrature(du**2, grid)
    pot = quadrature(0.5 * (1.0 - u**2) ** 2, grid)
    assert abs(grad - pot) <= 1e-8


def test_lambda3_tension_closed_form(sol3):
    sigma = sigma_gradient_form(sol3)
    assert abs(sigma - math.sqrt(2.0) / 3.0) <= 1e-7
    fine = solve_heteroclinic(
        3.0, L=sol3.L, n=2 * sol3.n - 1, init=(sol3.grid.nodes, sol3.v1)
    )
    assert abs(sigma_gradient_form(fine) - math.sqrt(2.0) / 3.0) <= 1e-8


def test_gradient_and_full_forms_agree_on_solutions(sweep_solutions):
    for s in sweep_solutions.values():
        assert abs(sigma_gradient_form(s) - sigma_full_form(s)) <= 1e-6


def test_full_form_detects_non_solution(sol3):
    # perturbing a converged solution breaks the first-integral identity
    # that makes the two functionals equal
    bump = 0.05 / np.cosh(sol3.grid.nodes)
    v2 = sol3.v2 + bump
    dv2 = sol3.dv2 - 0.05 * np.sinh(sol3.grid.nodes) / np.cosh(sol3.grid.nodes) ** 2
    grad_density = sol3.dv1**2 + dv2**2
    h = hamiltonian_values(sol3.v1, v2, sol3.dv1, dv2, sol3.lam)
    grad = quadrature(grad_density, sol3.grid)
    full = quadrature(grad_density - h - 0.25, sol3.grid)
    assert abs(grad - full) > 1e-3


def test_limit_state_has_zero_excess_energy():
    # H = -1/4 on both limit states, so the full density dv^2 - H - 1/4
    # vanishes there
    one, zero = np.ones(5), np.zeros(5)
    for v1, v2 in ((one, zero), (zero, one)):
        h = hamiltonian_values(v1, v2, zero, zero, 7.0)
        assert np.array_equal(h, np.full(5, -0.25))
        assert np.array_equal(zero**2 + zero**2 - h - 0.25, zero)


def test_core_coefficient_frozen_and_stable(blowup_default, blowup_wide):
    i1 = blowup_energy_coefficient(blowup_default)
    assert i1 < 0.0
    assert abs(i1 - I1_FROZEN) <= 5e-6
    assert abs(i1 - blowup_energy_coefficient(blowup_wide)) <= 1e-6


def test_core_coefficient_mirror_identity(blowup_default):
    # mirror symmetry: integrating the other component gives the same value
    p = blowup_default
    i1 = blowup_energy_coefficient(p)
    mirror = quadrature(p.dV2 * (p.dV2 + PSI0), p.grid)
    assert abs(i1 - mirror) <= 1e-9


def test_expansion_residual_report(sweep_solutions, blowup_wide):
    rep = expansion_residual(sweep_solutions[1e6], blowup_wide)
    ratio = (rep.sigma_gradient - rep.leading) / (rep.first_order - rep.leading)
    assert 0.98 <= ratio <= 1.02
    assert rep.leading == LEADING_TENSION
    assert rep.I1 < 0.0
    assert abs(rep.residual) <= 1e-5


def test_expansion_residual_order(sweep_solutions, blowup_wide):
    samples = []
    for lam in SWEEP:
        if lam < 100.0:
            continue
        rep = expansion_residual(sweep_solutions[lam], blowup_wide)
        samples.append((lam, abs(rep.residual)))
    slope = fit_loglog(samples)
    assert slope <= -0.6
    assert slope == pytest.approx(-0.78, abs=0.05)


def test_tension_increases_toward_leading_value(sweep_solutions):
    sigmas = [sigma_gradient_form(sweep_solutions[lam]) for lam in SWEEP]
    assert all(b > a for a, b in zip(sigmas, sigmas[1:]))
    assert all(s < LEADING_TENSION for s in sigmas)


def test_energy_report_validation():
    with pytest.raises(ValueError):
        EnergyReport(
            lam=1e4,
            sigma_gradient=-1.0,
            sigma_full=0.9,
            leading=LEADING_TENSION,
            I1=-0.25,
            first_order=0.9,
            residual=0.0,
        )
    with pytest.raises(ValueError):
        EnergyReport(
            lam=1e4,
            sigma_gradient=0.9,
            sigma_full=0.9,
            leading=LEADING_TENSION,
            I1=0.25,
            first_order=0.9,
            residual=0.0,
        )
    with pytest.raises(ValueError):
        EnergyReport(
            lam=1e4,
            sigma_gradient=0.9,
            sigma_full=0.9,
            leading=LEADING_TENSION,
            I1=-0.25,
            first_order=0.5,
            residual=0.0,
        )
