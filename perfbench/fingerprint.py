"""Accuracy fingerprint: tolerance classes, reference recording and checking.

A fingerprint is a flat ``key -> value`` map read from a workload's results
(see workloads.py). The reference in reference.json stores, per key, the
value recorded at the commit that introduced the benchmark, a tolerance
class and the numeric tolerance. ``CLASSES`` states each class's check and
the reason for it; every reference entry names its class.
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path

REFERENCE = Path(__file__).resolve().parent / "reference.json"

EPS = 2.0**-52
NEWTON_TOL = 1e-10  # NewtonSettings.residual_tol
ROUNDOFF_BELOW = 1e-9
VALUE_RTOL, VALUE_ATOL = 1e-5, 1e-7
EIG_MULT = 16.0
EIG_FIELD_ATOL = 2e-6
CERT_MULT = 64.0  # spectrum.residual_tolerance: max(1e-8, 64 eps ||S||)

# The measured perturbations quoted below are two solver-path changes that
# keep the discretisation: Newton stopping at 1e-12 instead of 1e-10, and
# continuation stepping whole decades instead of tenths of one.
CLASSES = {
    "exact": {
        "check": "equal",
        "why": "booleans, integers, strings and missing values are discrete "
        "outcomes; any change is a change of behaviour",
    },
    "value": {
        "check": "near",
        "why": "a functional of a converged discrete solution (kappa, I1, "
        "tension, error norms, fitted slopes). The measured perturbations "
        "moved these by at most 2.4e-7 relative and 1.7e-7 absolute (3e-9 on "
        "error norms); 1e-5 relative plus 1e-7 absolute leaves a margin of "
        "20 or more and stays 2000 times inside the tightest verdict window (2%)",
    },
    "newton_certificate": {
        "check": "at most",
        "why": "a Newton stopping certificate: any valid solve may stop "
        "anywhere below the Newton tolerance 1e-10, so the check is that bound",
    },
    "deviation_certificate": {
        "check": "at most",
        "why": "the first-integral deviation max|H + 1/4|, a discretisation "
        "certificate near 1e-7: the measured perturbations moved it by up to "
        "8%, a loss of accuracy moves it by orders of magnitude, so it may "
        "at most double",
    },
    "roundoff": {
        "check": "at most",
        "why": "a value below 1e-9 that sits at rounding level (anchor errors, "
        "symmetry and pinning defects, finite-difference Jacobian errors); its "
        "own digits are noise (the perturbations changed some by 90%), so it "
        "must stay at rounding level: at most 100 times the reference or 1e-12",
    },
    "eigenvalue": {
        "check": "near",
        "why": "a backward-stable symmetric eigensolver is accurate to "
        "O(eps*||S||) absolute and ||S|| ~ 4/h^2 + 2 lam reaches 1e8 on fine "
        "meshes, so a solver swap is judged at 16 eps ||S||_inf (||S||_inf "
        "bounded from the grid of that coupling). On top comes 2e-6 for the "
        "fields themselves: the measured perturbations moved the near-zero "
        "eigenvalue by up to 1.5e-7",
    },
    "eigen_derived": {
        "check": "near",
        "why": "gap, band ratio, trend slope and extreme values built from "
        "eigenvalues: the eigenvalue tolerance propagated to first order "
        "(sum for differences, relative for ratios, max for extremes)",
    },
    "alignment": {
        "check": "near",
        "why": "cosine between the bottom eigenvector and the translation "
        "mode; each solver certifies its residual below max(1e-8, 64 eps "
        "||S||), which moves the vector by at most that over the gap "
        "(Davis-Kahan), twice for two solvers",
    },
}


def _finite(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def passes(entry, got) -> bool:
    kind = CLASSES[entry["class"]]["check"]
    ref, tol = entry["value"], entry.get("tol")
    if kind == "equal":
        return got == ref and type(got) is type(ref)
    if not _finite(got):
        return False
    if kind == "at most":
        return got <= tol
    bound = tol * abs(ref) if entry.get("relative") else tol
    return abs(got - ref) <= bound + entry.get("atol", 0.0)


def compare(reference, values):
    """Mismatched keys of ``values`` against the reference entries; a key
    missing from ``values`` is a mismatch, keys the reference lacks are not."""
    return [
        {"key": key, "got": values.get(key), "ref": entry["value"], "tol": entry.get("tol"),
         "class": entry["class"]}
        for key, entry in reference.items()
        if key not in values or not passes(entry, values[key])
    ]


def load_reference():
    return json.loads(REFERENCE.read_text())["workloads"]


# -- recording ----------------------------------------------------------------
def operator_norm_bound(nodes, lam):
    """Upper bound of ||S||_inf for the symmetrized Hessian on this mesh:
    the flux stencil rows plus |q| <= 2 + lam and |coupling| <= lam."""
    import numpy as np

    x = np.asarray(nodes)
    hm, hp = x[1:-1] - x[:-2], x[2:] - x[1:-1]
    w = 0.5 * (hm + hp)
    row = (1.0 / hm + 1.0 / hp) / w
    off = (1.0 / hp[:-1]) / np.sqrt(w[:-1] * w[1:])
    row[:-1] += off
    row[1:] += off
    return float(row.max()) + 2.0 + 2.0 * lam


def _spectral(lam, n, extra_L=0.0):
    """(eigenvalue tolerance, eigenpair residual certificate) at coupling
    lam on the default grid of n nodes, widened by extra_L."""
    from beclab.heteroclinic import default_domain_halfwidth, default_grid

    grid = default_grid(lam, default_domain_halfwidth(lam) + extra_L, n)
    norm = operator_norm_bound(grid.nodes, lam)
    return EIG_MULT * EPS * norm + EIG_FIELD_ATOL, max(1e-8, CERT_MULT * EPS * norm)


def spectral_tolerances(workload, values):
    """key -> (class, tol, relative) for the eigenvalue-derived keys."""
    out = {}
    if workload == "cli_suite":
        eig, cert = _spectral(1e3, 8193)
        base = "spectrum/spectrum.json:report."
        gap = values.get(base + "gap")
        out[base + "lambda1"] = ("eigenvalue", eig, False)
        out[base + "lambda2"] = ("eigenvalue", eig, False)
        out[base + "gap"] = ("eigen_derived", 2 * eig, False)
        out[base + "essential_edge_estimate"] = ("eigenvalue", eig, False)
        out[base + "alignment"] = ("alignment", 2 * cert / gap, False)
        return out
    if workload != "verify_default":
        return out
    n = 8193
    lams = sorted(
        float(k.split("@", 1)[1]) for k in values if k.startswith("spectrum.lambda2@")
    )
    per = {lam: _spectral(lam, n) for lam in lams}
    rel2 = {}
    for lam in lams:
        eig, cert = per[lam]
        tag = f"{lam:g}"
        lam2 = values[f"spectrum.lambda2@{tag}"]
        gap = values[f"spectrum.gap@{tag}"]
        out[f"spectrum.lambda1@{tag}"] = ("eigenvalue", eig, False)
        out[f"spectrum.lambda2@{tag}"] = ("eigenvalue", eig, False)
        out[f"spectrum.gap@{tag}"] = ("eigen_derived", 2 * eig, False)
        out[f"spectrum.alignment@{tag}"] = ("alignment", 2 * cert / gap, False)
        rel2[lam] = eig / lam2
    fit = [rel2[lam] for lam in lams if lam >= 100.0]
    gap_key = "verdict.theorem_1_2_gap."
    out[gap_key + "near_zero_max"] = ("eigen_derived", max(per[l][0] for l in lams), False)
    out[gap_key + "alignment_min"] = (
        "eigen_derived",
        max(out[f"spectrum.alignment@{l:g}"][1] for l in lams),
        False,
    )
    out[gap_key + "lambda2_band_ratio"] = ("eigen_derived", 2 * max(fit), True)
    # least-squares slope over decade-spaced couplings moves by < 1x the
    # largest relative change of its samples
    out[gap_key + "lambda2_trend_slope"] = ("eigen_derived", max(fit), False)
    ref_lam = values[gap_key + "refinement_coupling"]
    out[gap_key + "lambda1_refinement[0]"] = ("eigenvalue", _spectral(ref_lam, n)[0], False)
    out[gap_key + "lambda1_refinement[1]"] = (
        "eigenvalue",
        # verify refines to L + 6 and 2n - 1 nodes
        _spectral(ref_lam, 2 * n - 1, extra_L=6.0)[0],
        False,
    )
    return out


_NEWTON = re.compile(r"newton_residual|blowup_summary\.json:report\.residual$")
_DEVIATION = re.compile(r"hamiltonian_dev")


def classify(workload, values):
    """Reference entries for one workload's fingerprint values."""
    spectral = spectral_tolerances(workload, values)
    entries = {}
    for key, value in sorted(values.items()):
        if not _finite(value) or isinstance(value, int):
            entry = {"class": "exact"}
        elif key in spectral:
            cls, tol, relative = spectral[key]
            entry = {"class": cls, "tol": tol}
            if relative:
                entry["relative"] = True
        elif _NEWTON.search(key):
            entry = {"class": "newton_certificate", "tol": NEWTON_TOL}
        elif _DEVIATION.search(key):
            entry = {"class": "deviation_certificate", "tol": 2.0 * value}
        elif abs(value) < ROUNDOFF_BELOW:
            entry = {"class": "roundoff", "tol": max(100.0 * abs(value), 1e-12)}
        else:
            entry = {"class": "value", "tol": VALUE_RTOL, "relative": True, "atol": VALUE_ATOL}
        entries[key] = dict(value=value, **entry)
    return entries
