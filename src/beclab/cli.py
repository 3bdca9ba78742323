"""Command-line surface: solves, sweeps, and the verification report.

Exit codes are a stable contract: 0 success, 1 usage or precondition
violation, 2 numerical failure (non-convergence, step underflow),
3 verification failure. All outputs are flat files (CSV curves, JSON
reports) carrying the resolved configuration, with pinned formatting so
reruns are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, fields
from pathlib import Path

from .asymptotics import build_composite, measure_errors
from .banded import SingularSystemError
from .energy import expansion_residual
from .heteroclinic import (
    HeteroclinicSolution,
    StepUnderflow,
    _seed_on_grid,
    continue_in_lambda,
    default_domain_halfwidth,
    default_grid,
    solve_heteroclinic,
)
from .newton import NonConvergenceError
from .profiles import solve_blowup
from .runio import read_seed_csv, write_csv, write_json
from .spectrum import REPORT_PAIRS, assemble_linearized, lowest_eigenpairs, spectrum_report
from .verify import run_verification
from . import __version__

__all__ = ["RunConfig", "main", "entry"]

# Couplings reachable by a direct Newton solve from the explicit seed;
# outside this window `solve` routes through continuation automatically.
_DIRECT_WINDOW = (2.0, 30.0)


@dataclass(frozen=True)
class RunConfig:
    """Resolved per-command parameters (flags over config file over
    defaults); a field the command does not read stays None."""

    command: str
    lam: float | None = None
    lam_range: tuple[float, float, int] | None = None
    X: float | None = None
    L: float | None = None
    n: int | None = None
    tol: float | None = None
    out: str | None = None
    seed: str | None = None
    variant: str | None = None

    def asdict(self) -> dict:
        resolved = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if value is None:
                continue
            resolved[f.name] = list(value) if isinstance(value, tuple) else value
        return resolved


def _parse_range(text: str) -> tuple[float, float, int]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"expected a:b:per_decade, got {text!r}")
    lo, hi, per = float(parts[0]), float(parts[1]), int(parts[2])
    if not (1.0 < lo <= hi) or per < 1:
        raise ValueError(f"need 1 < a <= b and per_decade >= 1, got {text!r}")
    return lo, hi, per


def _variant(text: str) -> str:
    if text not in ("leading", "shifted"):
        raise ValueError(f"variant must be 'leading' or 'shifted', got {text!r}")
    return text


def range_couplings(rng: tuple[float, float, int]) -> list[float]:
    """Log-uniform couplings from a to b inclusive at per_decade points."""
    lo, hi, per = rng
    k0 = round(per * math.log10(lo))
    k1 = round(per * math.log10(hi))
    lams = [10.0 ** (k / per) for k in range(k0, k1 + 1)]
    lams[0], lams[-1] = lo, hi
    return sorted(set(lams))


# field -> (flag, conversion of the flag's text, JSON type of the config
# value); the config key is the flag without dashes, '-' read as '_'
_FLAGS = {
    "lam": ("--lambda", float, (int, float)),
    "lam_range": ("--lambda-range", _parse_range, str),
    "X": ("--X", float, (int, float)),
    "L": ("--L", float, (int, float)),
    "n": ("--n", int, int),
    "tol": ("--tol", float, (int, float)),
    "out": ("--out", str, str),
    "seed": ("--seed", str, str),
    "variant": ("--variant", _variant, str),
}

# command -> the fields it reads and their defaults (None: no default)
_COMMAND_FIELDS = {
    "blowup": {"X": 12.0, "n": 4097, "out": "."},
    "solve": {"lam": None, "L": None, "n": 8193, "seed": None, "out": "."},
    "continue": {"lam_range": None, "n": 8193, "out": "."},
    "composite": {
        "lam": None, "X": 15.0, "L": None, "n": 8193, "seed": None,
        "variant": "shifted", "out": ".",
    },
    "spectrum": {"lam": None, "L": None, "n": 8193, "seed": None, "out": "."},
    "energy": {
        "lam": None, "lam_range": None, "X": 15.0, "L": None, "n": 8193,
        "seed": None, "out": ".",
    },
    "verify": {
        "lam_range": (10.0, 1e6, 1), "X": 15.0, "n": 8193, "tol": 1.0, "out": ".",
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


def _resolve(args: argparse.Namespace) -> RunConfig:
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
            if isinstance(value, bool) or not isinstance(value, kind):
                raise ValueError(f"config key {key!r}: {value!r} is not a valid {flag} value")
            merged[by_key[key]] = convert(value)
    for field in reads:
        value = getattr(args, field)
        if value is not None:
            merged[field] = value
    return RunConfig(command=args.command, **merged)


def _outdir(cfg: RunConfig) -> Path:
    path = Path(cfg.out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _solve_at(cfg: RunConfig, lam: float) -> HeteroclinicSolution:
    """Direct solve near the explicit coupling, continuation otherwise,
    or a direct solve from a user seed file when one is given."""
    n = cfg.n
    if cfg.seed is not None:
        z, v1, v2 = read_seed_csv(cfg.seed)
        L = cfg.L if cfg.L is not None else default_domain_halfwidth(lam)
        seed = _seed_on_grid(z, v1, v2, default_grid(lam, L, n))
        return solve_heteroclinic(lam, L=L, n=n, init=seed)
    if _DIRECT_WINDOW[0] <= lam <= _DIRECT_WINDOW[1]:
        return solve_heteroclinic(lam, L=cfg.L, n=n)
    start = solve_heteroclinic(3.0, L=cfg.L, n=n)
    trace = continue_in_lambda(start, [lam], n=n)
    return trace.solutions[-1]


def _solution_files(cfg: RunConfig, sol: HeteroclinicSolution, outdir: Path) -> None:
    header = dict(cfg.asdict(), resolved_L=sol.L, resolved_n=sol.n)
    write_csv(
        outdir / "solution.csv",
        {"z": sol.grid.nodes, "v1": sol.v1, "v2": sol.v2, "dv1": sol.dv1, "dv2": sol.dv2},
        config=header,
    )
    summary = {
        "lambda": sol.lam,
        "newton_residual": sol.newton_residual,
        "hamiltonian_dev": sol.hamiltonian_dev,
        "monotone": sol.flags.monotone,
        "bounded": sol.flags.bounded,
        "symmetric_dev": sol.flags.symmetric_dev,
        "pinning_dev": sol.flags.pinning_dev,
    }
    write_json(outdir / "solution_summary.json", summary, config=header)


def _cmd_blowup(cfg: RunConfig) -> int:
    profile = solve_blowup(X=cfg.X, n=cfg.n)
    outdir = _outdir(cfg)
    write_csv(
        outdir / "blowup_profile.csv",
        {
            "x": profile.grid.nodes,
            "V1": profile.V1,
            "V2": profile.V2,
            "dV1": profile.dV1,
            "dV2": profile.dV2,
        },
        config=cfg.asdict(),
    )
    summary = {
        "kappa": profile.kappa,
        "psi0": profile.psi0,
        "hamiltonian_dev": profile.hamiltonian_dev,
        "residual": profile.residual,
        "X": profile.X,
        "n": profile.grid.n,
    }
    write_json(outdir / "blowup_summary.json", summary, config=cfg.asdict())
    return 0


def _cmd_solve(cfg: RunConfig) -> int:
    if cfg.lam is None:
        raise ValueError("solve requires --lambda")
    sol = _solve_at(cfg, cfg.lam)
    _solution_files(cfg, sol, _outdir(cfg))
    return 0


def _cmd_continue(cfg: RunConfig) -> int:
    if cfg.lam_range is None:
        raise ValueError("continue requires --lambda-range a:b:per_decade")
    lams = [lam for lam in range_couplings(cfg.lam_range) if lam > 3.0]
    if not lams:
        raise ValueError("continuation range must reach beyond the seed coupling 3")
    start = solve_heteroclinic(3.0, n=cfg.n)
    trace = continue_in_lambda(start, lams, n=cfg.n)
    outdir = _outdir(cfg)
    entries = trace.entries
    write_csv(
        outdir / "trace.csv",
        {
            "lambda": [e.lam for e in entries],
            "newton_residual": [e.newton_residual for e in entries],
            "hamiltonian_dev": [e.hamiltonian_dev for e in entries],
            "sigma_lambda": [e.sigma_lambda for e in entries],
            "crossing_value": [e.crossing_value for e in entries],
            "min_component": [e.min_component for e in entries],
        },
        config=cfg.asdict(),
    )
    summary = {
        "points": len(entries),
        "final_lambda": entries[-1].lam,
        "total_halvings": sum(s.halvings for s in trace.steps),
        "steps": [
            {"from": s.lam_from, "to": s.lam_to, "halvings": s.halvings}
            for s in trace.steps
        ],
    }
    write_json(outdir / "trace_summary.json", summary, config=cfg.asdict())
    return 0


def _cmd_composite(cfg: RunConfig) -> int:
    if cfg.lam is None:
        raise ValueError("composite requires --lambda")
    profile = solve_blowup(X=cfg.X, n=4097)
    sol = _solve_at(cfg, cfg.lam)
    approx = build_composite(cfg.lam, profile, variant=cfg.variant)
    report = measure_errors(sol, approx)
    outdir = _outdir(cfg)
    a1, a2 = approx.values(sol.grid.nodes)
    write_csv(
        outdir / "composite.csv",
        {
            "z": sol.grid.nodes,
            "v1": sol.v1,
            "v2": sol.v2,
            "approx1": a1,
            "approx2": a2,
        },
        config=cfg.asdict(),
    )
    write_json(outdir / "error_report.json", report, config=cfg.asdict())
    return 0


def _cmd_spectrum(cfg: RunConfig) -> int:
    if cfg.lam is None:
        raise ValueError("spectrum requires --lambda")
    sol = _solve_at(cfg, cfg.lam)
    op = assemble_linearized(sol)
    pairs = lowest_eigenpairs(op, REPORT_PAIRS)
    report = spectrum_report(sol, op, pairs)
    outdir = _outdir(cfg)
    columns = {"z": sol.grid.nodes}
    for i, (_value, (phi1, phi2)) in enumerate(pairs, start=1):
        columns[f"phi1_{i}"] = phi1
        columns[f"phi2_{i}"] = phi2
    write_csv(outdir / "modes.csv", columns, config=cfg.asdict())
    write_json(outdir / "spectrum.json", report, config=cfg.asdict())
    return 0


def _cmd_energy(cfg: RunConfig) -> int:
    if (cfg.lam is None) == (cfg.lam_range is None):
        raise ValueError("energy requires exactly one of --lambda and --lambda-range")
    if cfg.lam_range is not None and (cfg.L is not None or cfg.seed is not None):
        raise ValueError("energy reads --L and --seed only with --lambda")
    profile = solve_blowup(X=cfg.X, n=4097)
    if cfg.lam_range is not None:
        lams = range_couplings(cfg.lam_range)
        upward = [lam for lam in lams if lam > 3.0]
        if len(upward) != len(lams):
            raise ValueError("energy sweep couplings must exceed the seed coupling 3")
        start = solve_heteroclinic(3.0, n=cfg.n)
        trace = continue_in_lambda(start, upward, n=cfg.n)
        sols = [s for s in trace.solutions if s.lam in set(upward)]
    else:
        sols = [_solve_at(cfg, cfg.lam)]
    reports = [expansion_residual(s, profile) for s in sols]
    outdir = _outdir(cfg)
    write_csv(
        outdir / "energy.csv",
        {
            "lambda": [r.lam for r in reports],
            "sigma": [r.sigma_gradient for r in reports],
            "first_order": [r.first_order for r in reports],
            "residual": [r.residual for r in reports],
        },
        config=cfg.asdict(),
    )
    write_json(outdir / "energy.json", reports, config=cfg.asdict())
    return 0


def _cmd_verify(cfg: RunConfig) -> int:
    report = run_verification(
        lams=range_couplings(cfg.lam_range), X=cfg.X, n=cfg.n, scale=cfg.tol
    )
    outdir = _outdir(cfg)
    for name, table in report.tables.items():
        write_csv(outdir / f"verify_{name}.csv", table, config=cfg.asdict())
    payload = {
        "passed": report.passed,
        "scale": report.scale,
        "couplings": list(report.lams),
        "criteria": [
            {"name": v.name, "passed": v.passed, "details": v.details}
            for v in report.verdicts
        ],
    }
    write_json(outdir / "verdict.json", payload, config=cfg.asdict())
    for verdict in report.verdicts:
        state = "PASS" if verdict.passed else "FAIL"
        print(f"[{state}] {verdict.name}")
    if not report.passed:
        print(
            "verification failed: " + ", ".join(report.failures()), file=sys.stderr
        )
        return 3
    return 0


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
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as stop:
        return int(stop.code or 0)
    try:
        cfg = _resolve(args)
        return _COMMANDS[cfg.command](cfg)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"beclab {args.command}: {exc}", file=sys.stderr)
        return 1
    except StepUnderflow as exc:
        print(
            f"beclab {args.command}: continuation stalled, last converged "
            f"coupling {exc.at_lambda:g}",
            file=sys.stderr,
        )
        return 2
    except (NonConvergenceError, SingularSystemError, RuntimeError) as exc:
        print(f"beclab {args.command}: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
