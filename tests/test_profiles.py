from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from scipy.integrate import DOP853

from beclab import (
    PSI0,
    extract_kappa,
    kappa_shooting,
    outer_derivative,
    outer_value,
    solve_blowup,
)
from beclab import shooting

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
    # the orbit from the final bracket turns back (V2' > 0) at x = 6.46, so
    # a read point beyond it no longer lies on the connecting orbit
    monkeypatch.setattr(shooting, "_READ_AT", 6.5)
    with pytest.raises(RuntimeError, match="left the separatrix"):
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


def test_stepper_tableau_is_scipys():
    for s in range(1, 12):
        assert np.array_equal(shooting._A[s], DOP853.A[s, :s])
    assert np.array_equal(DOP853.A[0], np.zeros(12))
    for ours, theirs in ((shooting._C, DOP853.C), (shooting._B, DOP853.B),
                         (shooting._E3, DOP853.E3), (shooting._E5, DOP853.E5)):
        assert ours.shape == theirs.shape and np.array_equal(ours, theirs)


def _scipy_steps(a, t_bound):
    b = np.sqrt((PSI0**2 + a**4) / 2.0)
    ref = DOP853(
        shooting._rhs, 0.0, np.concatenate((a, a, b, -b)), t_bound,
        rtol=shooting._RTOL, atol=shooting._ATOL,
    )
    steps = []
    while ref.status == "running":
        ref.step()
        if ref.status != "failed":
            steps.append((ref.t, ref.y.copy()))
    return steps, ref.status


@pytest.mark.parametrize(
    "a, t_bound",
    [
        # the initial bracket ends, stacked: both blow up, and both
        # steppers give up at the same step
        ((0.55, 0.68), shooting._HORIZON),
        # the connecting orbit to the read point
        ((0.6121750416071583,), shooting._READ_AT),
    ],
)
def test_stepper_takes_scipys_steps(a, t_bound):
    a = np.array(a)
    theirs, status = _scipy_steps(a, t_bound)
    ours = []
    try:
        for x, y in shooting._solver(a, t_bound):
            ours.append((x, y))
        assert status == "finished"
    except RuntimeError as exc:
        assert "step size underflow" in str(exc) and status == "failed"
    assert len(ours) == len(theirs) > 50
    assert [x for x, _ in ours] == [x for x, _ in theirs]
    for (_, y), (_, ref) in zip(ours, theirs):
        assert np.all(np.abs(y - ref) <= 2.0 * np.spacing(np.abs(ref)))


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
