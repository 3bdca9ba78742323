from __future__ import annotations

import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import DOP853, solve_ivp

from beclab import (
    PSI0,
    extract_kappa,
    kappa_shooting,
    outer_derivative,
    outer_value,
    solve_blowup,
)
from beclab import profiles, shooting

# Frozen oracle values from the mirror-symmetric shooting integration
# (DOP853, rtol 1e-13): center value a = V1(0) and far-field offset kappa.
KAPPA_FROZEN = 0.545271399338
CENTER_FROZEN = 0.612175041607


def test_outer_closed_form_at_origin():
    assert outer_value(0.0) == 0.0
    assert outer_derivative(0.0) == PSI0


def test_outer_saturation():
    assert abs(outer_value(30.0) - 1.0) <= math.exp(-30.0)
    assert abs(outer_value(-30.0) + 1.0) <= math.exp(-30.0)
    assert abs(outer_derivative(30.0)) <= math.exp(-20.0)
    assert abs(outer_derivative(-30.0)) <= math.exp(-20.0)


def test_outer_mirror_between_branches():
    # one front on the whole line: U is odd and U' even, bit for bit, so
    # v2's outer piece U(-z) is exactly v1's mirror
    z = np.concatenate(
        (np.linspace(0.0, 40.0, 4001), np.random.default_rng(3).uniform(0.0, 40.0, 1000))
    )
    assert np.array_equal(outer_value(-z), -outer_value(z))
    assert np.array_equal(outer_derivative(-z), outer_derivative(z))


def test_outer_satisfies_scalar_front_equation():
    # -U'' + U^3 - U = 0 on both half-lines, checked with a second
    # difference, and U' matches the difference quotient of U
    h = 1e-4
    z = np.linspace(-4.0, 4.0, 65)
    u = outer_value(z)
    upp = (outer_value(z + h) - 2.0 * u + outer_value(z - h)) / h**2
    assert np.allclose(upp, u**3 - u, atol=1e-6)
    up = (outer_value(z + h) - outer_value(z - h)) / (2.0 * h)
    assert np.allclose(outer_derivative(z), up, atol=1e-8)


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


def test_blowup_coarse_core_mesh_names_the_remedy():
    # at n = 1025 the first integral misses 1e-6 (1.45e-6 at X = 12)
    with pytest.raises(RuntimeError, match=r"n=1025, X=12; refine the core mesh"):
        solve_blowup(12.0, 1025)


def test_core_mesh_rule():
    # CORE_N up to X = 37, so every core inside the default window keeps
    # its bits; the intervals double per doubling of X beyond
    assert [profiles.core_n(X) for X in (0.0, 10.0, 15.0, 37.0)] == [4097] * 4
    assert [profiles.core_n(X) for X in (38.0, 74.0, 75.0, 77.0)] == [8193, 8193, 16385, 16385]


@pytest.mark.parametrize("X", [37.0, 38.0, 74.0, 77.0])
def test_core_mesh_rule_passes_the_first_integral_check(X):
    # both ends of each node count's band, up to X = 77, the widest core a
    # checked mesh admits (ln lam <= 76.11 at --n 2041)
    assert solve_blowup(X, profiles.core_n(X)).hamiltonian_dev <= 1e-6


def test_wide_core_on_the_default_mesh_still_raises():
    # the deviation is about 6.6e-10 X^2 on 4097 nodes: 1.06e-6 at X = 40
    message = r"deviation 1\.06\de-06 exceeds 1e-6 on the core mesh n=4097, X=40"
    with pytest.raises(RuntimeError, match=message):
        solve_blowup(40.0, 4097)


def _converged_to(change):
    """A newton_solve stub that returns the start, the ramp and its mirror
    (V1 at even places, V2 at odd ones), after change(V1, V2) edits it."""
    def stub(residual, jacobian, init):
        u = init.copy()
        change(u[0::2], u[1::2])
        return u, 1, 0.0

    return stub


def _dip(v1, v2):
    v2[100] = -1e-3


def _bump(v1, v2):
    v1[100] = v1[102]


def _stretch(v1, v2):
    v1 *= 1.01


@pytest.mark.parametrize(
    "change, message",
    [
        (_dip, "negative component after convergence"),
        (_bump, "core profile lost monotonicity"),
        (_stretch, "mirror symmetry violated"),
    ],
)
def test_a_converged_core_that_fails_validation_raises(monkeypatch, change, message):
    monkeypatch.setattr(profiles, "newton_solve", _converged_to(change))
    with pytest.raises(RuntimeError, match=message):
        solve_blowup(12.0, 1025)


def test_kappa_against_shooting(blowup_default):
    shot = kappa_shooting()
    assert abs(shot.kappa - KAPPA_FROZEN) <= 1e-9
    assert abs(shot.crossing - CENTER_FROZEN) <= 1e-9
    # slope at the crossing follows from the first integral
    slope = math.sqrt((0.5 + shot.crossing**4) / 2.0)
    assert abs(shot.slope - slope) <= 1e-12
    assert blowup_default.kappa > 0.0
    assert abs(blowup_default.kappa - shot.kappa) <= 1e-6


def test_shooting_read_point_stability(monkeypatch):
    kappas = []
    for read_at in (5.0, 6.0):
        monkeypatch.setattr(shooting, "_READ_AT", read_at)
        kappas.append(kappa_shooting().kappa)
    assert abs(kappas[0] - kappas[1]) <= 1e-9


def test_shooting_read_past_the_separatrix_raises(monkeypatch):
    # the orbit from the final bracket crosses zero (V2 < 0) at x = 6.93,
    # so a read point beyond it no longer lies on the connecting orbit
    monkeypatch.setattr(shooting, "_READ_AT", 7.0)
    with pytest.raises(RuntimeError, match="left the separatrix"):
        kappa_shooting()


def test_shooting_bracket_on_one_side_raises(monkeypatch):
    monkeypatch.setattr(shooting, "_classify_many", lambda a: np.ones(a.size, dtype=int))
    with pytest.raises(RuntimeError, match="does not straddle the separatrix"):
        kappa_shooting()


def test_multisection_bracket_straddles_the_separatrix(monkeypatch):
    # every point classified so far, with its side of the separatrix; each
    # round classifies points inside the previous bracket, whose ends are
    # the nearest classified points around them and must differ in side
    seen = {}
    rounds = []
    real = shooting._classify_many

    def recording(points):
        sides = real(points)
        if seen:
            lo = max(x for x in seen if x < points.min())
            hi = min(x for x in seen if x > points.max())
            rounds.append((seen[lo], seen[hi]))
        seen.update(zip(points.tolist(), sides.tolist()))
        return sides

    monkeypatch.setattr(shooting, "_classify_many", recording)
    shot = kappa_shooting()
    assert len(rounds) >= 10
    assert all(s_lo != s_hi for s_lo, s_hi in rounds)
    # the sides change once along the parameter, and the crossing lies in
    # that final bracket, at most two ulps wide
    points = sorted(seen)
    changes = [(a, b) for a, b in zip(points, points[1:]) if seen[a] != seen[b]]
    assert len(changes) == 1
    lo, hi = changes[0]
    assert lo <= shot.crossing <= hi
    assert hi - lo <= 2.0 * math.ulp(lo)


def test_alternating_sides_keep_every_change_in_the_bracket(monkeypatch):
    # at ulp resolution the sides near the separatrix may alternate: a
    # round that changes side more than once keeps the bracket from its
    # first change to its last and ends the multisection
    rounds, reads = [], []

    def alternating(points):
        rounds.append(points)
        if len(rounds) == 1:
            return np.array([-1, 1])  # the initial bracket's ends
        sides = np.where(np.arange(points.size) < 10, -1, 1)
        sides[11] = -1  # interior sides ... -1 | +1 -1 +1 | +1 ...
        return sides

    def one_step(a, t_bound):
        reads.append(float(a[0]))
        yield t_bound, np.array([1.0, 0.5, 0.0, -0.5])  # V2 > 0, V2' < 0

    monkeypatch.setattr(shooting, "_classify_many", alternating)
    monkeypatch.setattr(shooting, "_solver", one_step)
    shot = kappa_shooting()
    assert len(rounds) == 2  # no round after the alternating one
    lo, hi = rounds[0]
    points = np.linspace(lo, hi, shooting._SECTIONS + 2)
    # the three changes lie between points 10 and 13 (interior 9 to 12)
    assert np.array_equal(rounds[1], points[1:-1])
    assert reads == [shot.crossing] == [0.5 * (points[10] + points[13])]


def test_multisection_kappa_matches_bisection():
    # value from the one-orbit-at-a-time bisection the multisection replaced
    assert abs(kappa_shooting().kappa - 0.5452713993378442) <= 1e-13


def test_shooting_orbit_unclassified_at_horizon_raises(monkeypatch):
    # no orbit from the initial bracket has left the separatrix by x = 0.5
    monkeypatch.setattr(shooting, "_HORIZON", 0.5)
    with pytest.raises(RuntimeError, match="unclassified"):
        kappa_shooting()


def _rhs(x, y):
    # y stacks K orbits as the blocks V1, V2, V1', V2' of K entries each
    v1, v2, w = np.split(y, [y.size // 4, y.size // 2])
    return np.concatenate((w, v2 * v2 * v1, v1 * v1 * v2))


def _initial_state(a):
    b = np.sqrt((PSI0**2 + (a * a) ** 2) / 2.0)
    return np.concatenate((a, a, b, -b))


def test_stepper_agrees_with_scipys_dop853_on_the_connecting_orbit():
    # at the stepper's own step ends; V2 and V2' are left out: the
    # separatrix amplifies any difference like exp(psi0 x^2 / 2), for
    # either integrator
    a = np.array([kappa_shooting().crossing])
    x, y = map(np.array, zip(*shooting._solver(a, shooting._READ_AT)))
    assert x[-1] == shooting._READ_AT
    ref = solve_ivp(
        _rhs, (0.0, shooting._READ_AT), _initial_state(a), method="DOP853",
        t_eval=x, rtol=1e-13, atol=1e-15,
    ).y.T
    assert np.max(np.abs(y[:, [0, 2]] - ref[:, [0, 2]])) <= 1e-13
    v1, v2, w1, w2 = y.T
    assert np.max(np.abs(w1 * w1 + w2 * w2 - (v1 * v2) ** 2 - PSI0**2)) <= 1e-14


def test_stepper_underflows_where_scipys_dop853_fails():
    # the initial bracket ends, stacked: both orbits blow up, and both
    # integrators give up at the same x
    a = np.array([0.55, 0.68])
    ends = []
    with pytest.raises(RuntimeError, match="step size underflow"):
        for x, _ in shooting._solver(a, shooting._HORIZON):
            ends.append(x)
    ref = DOP853(_rhs, 0.0, _initial_state(a), shooting._HORIZON, rtol=1e-13, atol=1e-15)
    while ref.status == "running":
        ref.step()
    assert ref.status == "failed"
    assert abs(ends[-1] - ref.t) <= 1e-9


def test_kappa_shooting_is_the_same_in_fresh_processes():
    # one interpreter with a single BLAS and OpenMP thread, one with the
    # inherited settings: the stepper's sums must not depend on threading
    src = str(Path(shooting.__file__).resolve().parents[1])
    code = (
        "from beclab import kappa_shooting; r = kappa_shooting(); "
        "print(r.kappa.hex(), r.crossing.hex())"
    )
    single = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    outputs = []
    for extra in (single, {}):
        env = {**os.environ, **extra, "PYTHONPATH": os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)}
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        outputs.append(out.stdout)
    assert outputs[0] == outputs[1]
    assert len(outputs[0].split()) == 2


def test_extract_kappa_window_consistency():
    pa, pb = solve_blowup(10.0, 2049), solve_blowup(14.0, 2869)
    ka, kb = extract_kappa(pa.grid, pa.V1), extract_kappa(pb.grid, pb.V1)
    assert abs(ka - kb) <= 1e-6


def test_extract_kappa_rejects_unconverged_far_field(blowup_default):
    p = blowup_default
    x = p.grid.nodes
    with pytest.raises(ValueError):
        extract_kappa(p.grid, p.V1 + 0.1 * np.exp(x - p.X))


def test_profile_is_built_whole(blowup_default, blowup_wide):
    # kappa is computed before the profile is built; the slope PSI0 and the
    # half-width X, the mesh's end node, are not stored
    for p, X in ((blowup_default, 12.0), (blowup_wide, 15.0)):
        fields = {f.name for f in dataclasses.fields(p)}
        assert not fields & {"psi0", "X"}
        assert p.X == p.grid.b == X
        assert p.kappa == extract_kappa(p.grid, p.V1)


def test_solve_blowup_preconditions():
    with pytest.raises(ValueError):
        solve_blowup(X=3.0, n=4097)
    with pytest.raises(ValueError):
        solve_blowup(X=12.0, n=256)
