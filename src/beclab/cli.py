"""Command-line surface: solves, sweeps, and the verification report.

Exit codes are a stable contract: 0 success, 1 usage or precondition
violation, 2 numerical failure (non-convergence, step underflow, a
singular pivot of the spectrum's inertia count), 3 verification failure.
All outputs are flat files (CSV curves, JSON reports) carrying the
resolved configuration, with pinned formatting so reruns are
byte-identical.

A single --lambda (solve, composite, spectrum, energy) is reached by one of
two paths (_solve_at): a direct solve, from a --seed file or, below 10,
from the explicit lam = 3 seed; and otherwise the matched composite
corrected by Newton on the mesh ladder. Sweeps (continue,
energy --lambda-range, verify) continue from 3.
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
    measure_errors,
)
from .energy import expansion_residual
from .heteroclinic import (
    ContinuationTrace,
    HeteroclinicSolution,
    StepUnderflow,
    continue_in_lambda,
    correct_on_ladder,
    default_domain_halfwidth,
    default_grid,
    mesh_ladder,
    solve_heteroclinic,
)
from .profiles import PSI0, BlowupProfile, core_n, solve_blowup
from .runio import read_seed_csv, write_csv, write_json
from .spectrum import nondegeneracy_report
from .verify import run_verification
from . import __version__

__all__ = ["main", "entry"]

# Half-width of the core domain: the --X default of composite, energy and
# verify, and the core profile whose composite seeds solve and spectrum.
_CORE_X = 15.0


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
        "lam": None, "X": _CORE_X, "L": None, "n": 8193, "seed": None,
        "variant": "shifted", "out": ".",
    },
    "spectrum": {"lam": None, "L": None, "n": 8193, "seed": None, "out": "."},
    "energy": {
        "lam": None, "lam_range": None, "X": _CORE_X, "L": None, "n": 8193,
        "seed": None, "out": ".",
    },
    "verify": {
        "lam_range": (10.0, 1e6, 1), "X": _CORE_X, "n": 8193, "tol": 1.0, "out": ".",
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


def _solve_at(
    cfg: argparse.Namespace, lam: float, X: float
) -> tuple[HeteroclinicSolution, BlowupProfile | None]:
    """The solution at lam, and the core profile whose composite seeded it
    (None for a direct solve). Every mesh of the chosen path is built
    before any solve (_check_mesh).

    - A user seed file, or a coupling below COMPOSITE_LAM_MIN (10): one
      direct solve, seeded from the file or from the explicit lam = 3
      seed.
    - Every other coupling: the paper's construction. The core is solved
      on [-X', X'], where X' is X while ln lam <= X and the ceiling of
      ln lam beyond, on core_n(X') nodes. Its shifted composite seeds the
      coarsest mesh of mesh_ladder(n), and correct_on_ladder carries that
      solve to each finer mesh, all on [-L, L].
    """
    n, L = cfg.n, cfg.L
    width = default_domain_halfwidth(lam) if L is None else L
    if cfg.seed is not None or lam < COMPOSITE_LAM_MIN:
        _check_mesh(lam, [n], width, n, "--lambda")
        init = None
        if cfg.seed is not None:
            z, v1, _ = read_seed_csv(cfg.seed)  # v2 is v1 mirrored
            init = (z, v1)
        return solve_heteroclinic(lam, L=L, n=n, init=init), None
    ladder = mesh_ladder(n)
    _check_mesh(lam, ladder, width, n, "--lambda")
    if math.log(lam) > X * (1.0 + 1e-12):  # beyond check_composite_coupling's window
        X = float(math.ceil(math.log(lam)))
    profile = solve_blowup(X=X, n=core_n(X))
    grid = default_grid(lam, width, ladder[0])
    seed, _ = build_composite(lam, profile).values(grid.nodes)
    coarse = solve_heteroclinic(lam, L=width, n=ladder[0], init=(grid.nodes, seed))
    return correct_on_ladder(coarse, n)[0], profile


def _sweep_from_seed(lams: list[float], n: int) -> ContinuationTrace:
    """The upward branch from the lam = 3 solve through the increasing
    couplings lams; a coupling of 3 is that solve itself. A coupling below
    3, or no coupling above it, is a usage error."""
    if lams[0] < 3.0:
        raise ValueError(
            f"coupling {lams[0]:g} lies below the seed coupling 3, "
            "from which sweeps continue upward"
        )
    if lams[-1] == 3.0:
        raise ValueError("a sweep must reach above the seed coupling 3")
    half = default_domain_halfwidth(lams[-1])
    _check_mesh(lams[-1], mesh_ladder(n), half, n, "--lambda-range")
    start = solve_heteroclinic(3.0, n=n)
    return continue_in_lambda(start, [lam for lam in lams if lam > 3.0])


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
    sol, _ = _solve_at(cfg, cfg.lam, _CORE_X)
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
    trace = _sweep_from_seed(range_couplings(cfg.lam_range), cfg.n)
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
        "total_halvings": sum(s.halvings for s in trace.steps),
        "steps": [
            {
                "from": s.lam_from,
                "to": s.lam_to,
                "halvings": s.halvings,
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
    sol, _ = _solve_at(cfg, cfg.lam, _CORE_X)
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
    profile = None
    if cfg.lam_range is not None:
        lams = range_couplings(cfg.lam_range)
        wanted = set(lams)
        sols = [s for s in _sweep_from_seed(lams, cfg.n).solutions if s.lam in wanted]
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
    except StepUnderflow as exc:
        print(
            f"beclab {args.command}: continuation stalled, last converged "
            f"coupling {exc.at_lambda:g}",
            file=sys.stderr,
        )
        return 2
    except RuntimeError as exc:
        print(f"beclab {args.command}: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
