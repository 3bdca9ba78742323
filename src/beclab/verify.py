"""End-to-end verification sweep and per-criterion verdicts.

Aggregates the quantitative checks the package exists to make: the
closed-form anchors, the core profile cross-check, the heteroclinic
sweep hygiene, the matched-expansion error orders and shift, the
spectral gap and translation-mode alignment, the tension expansion, and
discretization hygiene (Jacobian consistency, deterministic reruns).

Every threshold is multiplied by a single scale factor (default 1):
scale 0 collapses all tolerance windows to points, which makes the
slope- and band-type criteria fail by construction and so doubles as a
negative control of the harness itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .asymptotics import (
    ErrorReport,
    build_composite,
    check_composite_coupling,
    fit_error_orders,
    measure_errors,
    shift_estimate,
)
from .banded import BandedMatrix
from .calculus import fit_loglog
from .energy import (
    LEADING_TENSION,
    EnergyReport,
    expansion_residual,
    partition_constant,
)
from .grids import make_grid
from .heteroclinic import (
    HeteroclinicSolution,
    _interleaved,
    continue_in_lambda,
    default_grid,
    explicit_lambda3,
    solve_heteroclinic,
)
from .profiles import PSI0, _core_residual_jacobian, core_n, outer_derivative, solve_blowup
from .shooting import kappa_shooting
from .spectrum import SpectrumReport, nondegeneracy_report

__all__ = [
    "CriterionVerdict",
    "VerificationReport",
    "default_sweep",
    "jacobian_fd_error",
    "run_verification",
]


@dataclass(frozen=True)
class CriterionVerdict:
    name: str
    passed: bool
    details: dict


@dataclass(frozen=True)
class VerificationReport:
    scale: float
    lams: tuple
    verdicts: tuple
    passed: bool
    tables: dict

    def failures(self) -> list[str]:
        return [v.name for v in self.verdicts if not v.passed]


def default_sweep() -> tuple:
    return tuple(10.0**k for k in range(1, 7))


def _window(value: float, center: float, halfwidth: float, scale: float) -> bool:
    return abs(value - center) <= halfwidth * scale


def _ratio_cap(ratio: float, cap: float, scale: float) -> bool:
    return ratio <= 1.0 + (cap - 1.0) * scale


def jacobian_fd_error(
    residual: Callable[[np.ndarray], np.ndarray],
    jacobian: Callable[[np.ndarray], BandedMatrix],
    u0: np.ndarray,
) -> float:
    """Worst relative column error of the assembled Jacobian against
    central finite differences of the residual at state u0.

    Row i of the residual reads only the entries within the Jacobian's
    bandwidth bw of i, so columns 2*bw + 1 apart share no row and are
    differenced together (Curtis, Powell & Reid, IMA J. Appl. Math. 13,
    1974): 2*(2*bw + 1) residual calls in all. Each row of a group's
    difference depends on one perturbed column alone, so every column's
    error is the one its own difference would give, bit for bit.
    """
    jac = jacobian(u0)
    dim, bw = u0.shape[0], jac.bandwidth
    worst = 0.0
    for first in range(min(2 * bw + 1, dim)):
        group = np.arange(first, dim, 2 * bw + 1)
        steps = 1e-6 * np.maximum(1.0, np.abs(u0[group]))
        up = u0.copy()
        dn = u0.copy()
        up[group] += steps
        dn[group] -= steps
        diff = residual(up) - residual(dn)
        for k, step in zip(group.tolist(), steps.tolist()):
            rows = slice(max(0, k - bw), min(dim, k + bw + 1))
            column = jac.column(k)
            fd = diff[rows] / (2.0 * step)
            err = float(np.max(np.abs(fd - column[rows])))
            worst = max(worst, err / max(1.0, float(np.max(np.abs(column)))))
    return worst


def _hygiene_states() -> list[float]:
    """Relative FD errors for both assembled Jacobians on coarse states
    perturbed by sin(k) at entry k, irregular but drawn without random numbers."""
    errors = []

    grid = default_grid(50.0, 20.0, 41)
    residual, jacobian = _interleaved(grid, 50.0)
    e1, e2 = explicit_lambda3(grid.nodes)
    base = np.stack((e1, e2), axis=1)[1:-1].ravel()  # [v1_1, v2_1, v1_2, ...]
    state = base + 0.05 * np.sin(np.arange(base.size))
    errors.append(jacobian_fd_error(residual, jacobian, state))

    core = make_grid(-6.0, 6.0, 41)
    residual_c, jacobian_c = _core_residual_jacobian(core)
    x = core.nodes
    base_c = np.empty(2 * core.n)
    base_c[0::2] = np.maximum(PSI0 * x + 0.5, 0.05)
    base_c[1::2] = np.maximum(-PSI0 * x + 0.5, 0.05)
    state_c = base_c + 0.05 * np.sin(np.arange(base_c.size))
    errors.append(jacobian_fd_error(residual_c, jacobian_c, state_c))
    return errors


def _rerun_identical() -> bool:
    a = solve_heteroclinic(3.0, n=1025)
    b = solve_heteroclinic(3.0, n=1025)
    pa = solve_blowup(X=10.0, n=1025)
    pb = solve_blowup(X=10.0, n=1025)
    same = a.v1.tobytes() == b.v1.tobytes() and pa.V1.tobytes() == pb.V1.tobytes()
    return same and pa.kappa == pb.kappa


@dataclass(frozen=True)
class _PointResult:
    lam: float
    errors: ErrorReport
    spectrum: SpectrumReport
    energy: EnergyReport


def run_verification(
    lams: Sequence[float] | None = None,
    X: float = 15.0,
    n: int = 8193,
    scale: float = 1.0,
) -> VerificationReport:
    """Run the full sweep and evaluate every acceptance criterion.

    lams must be distinct and contain at least 4 couplings >= 100
    spanning at least 3 decades (the order fits), all >= 10 (the
    composite construction needs a clear scale separation) with
    ln(max) <= X so the stretched window stays inside the core data.
    n must be 1 mod 4: the closed-form anchor also solves on (n + 1)/2
    nodes, and every interface mesh needs an odd node count.
    """
    if n % 4 != 1:
        raise ValueError(f"need n = 1 (mod 4) so that n and (n + 1)/2 are odd, got n={n}")
    sweep = default_sweep() if lams is None else tuple(sorted(float(v) for v in lams))
    for lam, following in zip(sweep, sweep[1:]):
        if lam == following:
            raise ValueError(f"sweep coupling lam={lam:g} is repeated")
    fit_set = [lam for lam in sweep if lam >= 100.0]
    if len(fit_set) < 4 or fit_set[-1] < 1e3 * fit_set[0]:
        raise ValueError(
            "order fits need >= 4 sweep couplings >= 100 spanning >= 3 decades"
        )
    for lam in (sweep[0], sweep[-1]):
        check_composite_coupling(lam, X)
    if not 0.0 <= scale:
        raise ValueError(f"threshold scale must be >= 0, got {scale}")

    verdicts: list[CriterionVerdict] = []

    # -- closed-form anchors ------------------------------------------------
    du0 = float(outer_derivative(0.0))
    pc = partition_constant()

    def explicit_sup(sol: HeteroclinicSolution) -> float:
        e1, e2 = explicit_lambda3(sol.grid.nodes)
        return float(max(np.max(np.abs(sol.v1 - e1)), np.max(np.abs(sol.v2 - e2))))

    base_n = (n - 1) // 2 + 1
    start = solve_heteroclinic(3.0, n=n)
    sup_base = explicit_sup(solve_heteroclinic(3.0, n=base_n))
    sup_doubled = explicit_sup(start)
    anchors_pass = (
        abs(du0 - PSI0) <= 1e-12 * scale
        and abs(pc - LEADING_TENSION) <= 1e-8 * scale
        and sup_doubled <= 1e-8 * scale
    )
    verdicts.append(
        CriterionVerdict(
            "closed_form_anchors",
            anchors_pass,
            {
                "outer_slope_error": abs(du0 - PSI0),
                "partition_error": abs(pc - LEADING_TENSION),
                "explicit_sup_base": sup_base,
                "explicit_sup_doubled": sup_doubled,
            },
        )
    )

    # -- blow-up profile ----------------------------------------------------
    blowup = solve_blowup(X=X, n=core_n(X))
    shot = kappa_shooting()
    kappa_colloc = blowup.kappa
    mirror = float(np.max(np.abs(blowup.V1 - blowup.V2[::-1])))
    blowup_pass = (
        blowup.hamiltonian_dev <= 1e-6 * scale
        and kappa_colloc > 0.0
        and abs(kappa_colloc - shot.kappa) <= 1e-6 * scale
        and mirror <= 1e-6 * scale
    )
    verdicts.append(
        CriterionVerdict(
            "blowup_profile",
            blowup_pass,
            {
                "hamiltonian_dev": blowup.hamiltonian_dev,
                "kappa_collocation": kappa_colloc,
                "kappa_shooting": shot.kappa,
                "kappa_disagreement": abs(kappa_colloc - shot.kappa),
                "mirror_dev": mirror,
            },
        )
    )

    # -- heteroclinic sweep -------------------------------------------------
    trace = continue_in_lambda(start, sweep)
    solutions = {s.lam: s for s in trace.solutions if s.lam in sweep}
    ham_max = max(s.hamiltonian_dev for s in solutions.values())
    qualitative = all(
        s.flags.monotone and s.flags.bounded for s in solutions.values()
    )
    scaled_crossing = [
        e.crossing_value * e.lam**0.25
        for e in trace.entries
        if e.lam in sweep and e.lam >= 100.0
    ]
    band = max(scaled_crossing) / min(scaled_crossing)
    sweep_pass = (
        len(solutions) == len(sweep)
        and ham_max <= 1e-6 * scale
        and qualitative
        and _ratio_cap(band, 2.0, scale)
    )
    verdicts.append(
        CriterionVerdict(
            "heteroclinic_sweep",
            sweep_pass,
            {
                "converged": len(solutions),
                "requested": len(sweep),
                "hamiltonian_dev_max": ham_max,
                "qualitative_flags": qualitative,
                "crossing_band_ratio": band,
            },
        )
    )

    # -- per-coupling post-processing ----------------------------------------
    def job(lam: float) -> _PointResult:
        sol = solutions[lam]
        approx = build_composite(lam, blowup)
        err = measure_errors(sol, approx)
        spec, _ = nondegeneracy_report(sol)
        energy = expansion_residual(sol, blowup)
        return _PointResult(lam=lam, errors=err, spectrum=spec, energy=energy)

    points = [job(lam) for lam in sweep]

    fit_lams = [p.lam for p in points if p.lam >= 100.0]
    fit_points = [p for p in points if p.lam >= 100.0]
    orders = fit_error_orders([p.errors for p in fit_points])

    # -- expansion error orders (outer weighted sup) --------------------------
    outer_pass = _window(orders.outer, -0.75, 0.15, scale)
    verdicts.append(
        CriterionVerdict(
            "theorem_1_1_outer_order",
            outer_pass,
            {
                "outer_slope": orders.outer,
                "outer_deriv_slope": orders.outer_deriv,
                "inner_slope": orders.inner,
                "fit_couplings": fit_lams,
            },
        )
    )

    # -- inner core error band -------------------------------------------------
    scaled_core = [p.errors.inner_sup_core * p.lam**0.75 for p in points]
    core_band = max(scaled_core) / min(scaled_core)
    verdicts.append(
        CriterionVerdict(
            "theorem_1_1_inner_band",
            _ratio_cap(core_band, 3.0, scale),
            {"core_band_ratio": core_band, "scaled_core": scaled_core},
        )
    )

    # -- interface shift ---------------------------------------------------------
    target = PSI0 ** (-1) * kappa_colloc
    shift_details = {}
    shift_pass = True
    for lam_ref, tol in ((1e4, 0.10), (1e6, 0.05)):
        lam_use = lam_ref if lam_ref in solutions else max(solutions)
        rel = abs(
            shift_estimate(solutions[lam_use], kappa=kappa_colloc) * lam_use**0.25
            - target
        ) / target
        shift_details[f"rel_error_at_{lam_use:g}"] = rel
        shift_pass = shift_pass and rel <= tol * scale
    shift_details["target"] = target
    verdicts.append(CriterionVerdict("theorem_1_1_shift", shift_pass, shift_details))

    # -- spectral gap and alignment ---------------------------------------------
    gap_ok = all(
        abs(p.spectrum.lambda1) <= (p.spectrum.lambda2 / 10.0) * scale for p in points
    )
    align_ok = all(p.spectrum.alignment >= 1.0 - 1e-3 * scale for p in points)
    lam2 = [p.spectrum.lambda2 for p in fit_points]
    lam2_band = max(lam2) / min(lam2)
    lam2_slope = fit_loglog(list(zip(fit_lams, lam2)))
    base_point = min(points, key=lambda p: abs(p.lam - 1e3))
    base = solutions[base_point.lam]
    refined = solve_heteroclinic(
        base.lam, L=base.L + 6.0, n=2 * base.n - 1, init=(base.grid.nodes, base.v1)
    )
    l1_base = abs(base_point.spectrum.lambda1)
    l1_refined = abs(nondegeneracy_report(refined)[0].lambda1)
    gap_pass = (
        gap_ok
        and align_ok
        and _ratio_cap(lam2_band, 3.0, scale)
        and _window(lam2_slope, 0.0, 0.1, scale)
        and l1_refined < l1_base
    )
    verdicts.append(
        CriterionVerdict(
            "theorem_1_2_gap",
            gap_pass,
            {
                "near_zero_max": max(abs(p.spectrum.lambda1) for p in points),
                "alignment_min": min(p.spectrum.alignment for p in points),
                "lambda2_band_ratio": lam2_band,
                "lambda2_trend_slope": lam2_slope,
                "lambda1_refinement": [l1_base, l1_refined],
                "refinement_coupling": base.lam,
                "bound_states": [p.spectrum.inertia_count for p in points],
            },
        )
    )

    # -- tension expansion coefficient --------------------------------------------
    top = points[-1]
    i1 = top.energy.I1
    coeff_ratio = (top.energy.sigma_gradient - LEADING_TENSION) * top.lam**0.25 / (2.0 * i1)
    verdicts.append(
        CriterionVerdict(
            "corollary_1_4_coefficient",
            _window(coeff_ratio, 1.0, 0.02, scale),
            {"coefficient_ratio": coeff_ratio, "I1": i1, "at_coupling": top.lam},
        )
    )

    # -- tension expansion remainder ------------------------------------------------
    residual_slope = fit_loglog([(p.lam, abs(p.energy.residual)) for p in fit_points])
    form_gap = max(abs(p.energy.sigma_gradient - p.energy.sigma_full) for p in points)
    residual_pass = (
        residual_slope <= -0.6 * (2.0 - scale) and i1 < 0.0 and form_gap <= 1e-6 * scale
    )
    verdicts.append(
        CriterionVerdict(
            "corollary_1_4_residual_order",
            residual_pass,
            {
                "residual_slope": residual_slope,
                "I1": i1,
                "form_agreement_max": form_gap,
            },
        )
    )

    # -- numerics hygiene ---------------------------------------------------------------
    fd_errors = _hygiene_states()
    identical = _rerun_identical()
    hygiene_pass = max(fd_errors) <= 1e-5 * scale and identical
    verdicts.append(
        CriterionVerdict(
            "numerics_hygiene",
            hygiene_pass,
            {"jacobian_fd_errors": fd_errors, "rerun_identical": identical},
        )
    )

    tables = {
        "energy": {
            "lambda": [p.lam for p in points],
            "sigma": [p.energy.sigma_gradient for p in points],
            "first_order": [p.energy.first_order for p in points],
            "residual": [p.energy.residual for p in points],
        },
        "errors": {
            "lambda": [p.lam for p in points],
            "outer_weighted": [p.errors.outer_sup_weighted for p in points],
            "outer_deriv_weighted": [p.errors.outer_deriv_weighted for p in points],
            "inner_sup": [p.errors.inner_sup for p in points],
            "inner_deriv": [p.errors.inner_deriv for p in points],
            "inner_sup_core": [p.errors.inner_sup_core for p in points],
            "jump": [p.errors.jump for p in points],
        },
        "spectrum": {
            "lambda": [p.lam for p in points],
            "lambda1": [p.spectrum.lambda1 for p in points],
            "lambda2": [p.spectrum.lambda2 for p in points],
            "alignment": [p.spectrum.alignment for p in points],
            "gap": [p.spectrum.gap for p in points],
            "solves": [p.spectrum.solves for p in points],
        },
    }
    return VerificationReport(
        scale=scale,
        lams=sweep,
        verdicts=tuple(verdicts),
        passed=all(v.passed for v in verdicts),
        tables=tables,
    )
