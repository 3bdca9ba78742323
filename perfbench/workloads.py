"""The three benchmark workloads and the accuracy values each one yields.

Every call into beclab goes through a module attribute
(``heteroclinic.solve_heteroclinic``, ``cli.main``) so that a tracer that
replaced the attribute sees it. ``run`` is the timed part; ``outcome``
reads the results afterwards and is not timed.
"""

from __future__ import annotations

import hashlib
import json
import time
from contextlib import nullcontext
from pathlib import Path

SWEEP = tuple(10.0**k for k in range(1, 7))
FINE_N = 32769

CLI_ARGV = {
    "blowup": ["blowup"],
    "solve": ["solve", "--lambda", "1e4"],
    "continue": ["continue", "--lambda-range", "10:1e6:1"],
    "composite": ["composite", "--lambda", "1e4"],
    "spectrum": ["spectrum", "--lambda", "1e3"],
    "energy": ["energy", "--lambda-range", "10:1e6:1"],
}

# operations attempted per repetition: verify criteria, sweep targets, CLI commands
OPS = {"verify_default": 10, "sweep_fine": len(SWEEP), "cli_suite": len(CLI_ARGV)}

# Fields of the continue summary that describe the continuation path, not
# the answer: a different step policy changes them while every solution
# stays within tolerance. Their cost shows as heteroclinic.continuation.steps.
_PATH_FIELDS = ("report.points", "report.steps", "report.total_halvings")


def flatten(prefix, obj, out):
    """Flatten nested dicts and lists into ``out`` as ``prefix.key[i]`` keys."""
    if hasattr(obj, "tolist"):
        obj = obj.tolist()  # numpy scalar or array
    if isinstance(obj, dict):
        for key in sorted(obj):
            flatten(f"{prefix}.{key}" if prefix else str(key), obj[key], out)
    elif isinstance(obj, (list, tuple)):
        for i, value in enumerate(obj):
            flatten(f"{prefix}[{i}]", value, out)
    elif obj is None or isinstance(obj, (bool, int, float, str)):
        out[prefix] = obj
    else:
        raise TypeError(f"cannot fingerprint {type(obj).__name__} at {prefix}")


# -- verify_default ------------------------------------------------------------
def run_verify(tracer, order):
    from beclab import verify

    return verify.run_verification()


def outcome_verify(report):
    values = {}
    for verdict in report.verdicts:
        values[f"verdict.{verdict.name}.passed"] = bool(verdict.passed)
        flatten(f"verdict.{verdict.name}", verdict.details, values)
    table = report.tables["spectrum"]
    for key in ("lambda1", "lambda2", "alignment", "gap"):
        for lam, value in zip(table["lambda"], table[key]):
            values[f"spectrum.{key}@{lam:g}"] = float(value)
    failed = sum(not v.passed for v in report.verdicts)
    return len(report.verdicts), failed, values, {}


# -- sweep_fine ------------------------------------------------------------------
def run_sweep(tracer, order):
    from beclab import heteroclinic

    start = heteroclinic.solve_heteroclinic(3.0, n=FINE_N)
    return heteroclinic.continue_in_lambda(start, SWEEP, n=FINE_N)


def outcome_sweep(trace):
    values = {}
    for sol, entry in zip(trace.solutions, trace.entries):
        if sol.lam not in SWEEP:
            continue
        tag = f"{sol.lam:g}"
        values[f"newton_residual@{tag}"] = float(sol.newton_residual)
        values[f"hamiltonian_dev@{tag}"] = float(sol.hamiltonian_dev)
        values[f"sigma_lambda@{tag}"] = float(entry.sigma_lambda)
        values[f"crossing_value@{tag}"] = float(entry.crossing_value)
    reached = sum(f"newton_residual@{lam:g}" in values for lam in SWEEP)
    return len(SWEEP), len(SWEEP) - reached, values, {}


# -- cli_suite -----------------------------------------------------------------------
def run_cli(tracer, order):
    """Run the six commands in ``order`` in the current directory, each
    writing into its own fresh subdirectory."""
    from beclab import cli

    codes, seconds = {}, {}
    for name in order or CLI_ARGV:
        t0 = time.perf_counter()
        with tracer.span(f"cli.{name}") if tracer else nullcontext():
            codes[name] = cli.main(CLI_ARGV[name] + ["--out", name])
        seconds[name] = time.perf_counter() - t0
    return codes, seconds


def outcome_cli(result):
    codes, seconds = result
    values, digests = {}, {}
    for name in sorted(codes):
        values[f"{name}.exit_code"] = codes[name]
        folder = Path(name)
        if not folder.is_dir():
            continue
        for path in sorted(folder.iterdir()):
            digests[f"{name}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
            if path.suffix != ".json":
                continue
            flat = {}
            flatten("", json.loads(path.read_text()), flat)
            for key, value in flat.items():
                if key.startswith("config"):
                    continue
                if path.name == "trace_summary.json" and key.startswith(_PATH_FIELDS):
                    continue
                values[f"{name}/{path.name}:{key}"] = value
    failed = sum(code != 0 for code in codes.values())
    return len(codes), failed, values, {"digests": digests, "command_s": seconds}


WORKLOADS = {
    "verify_default": (run_verify, outcome_verify),
    "sweep_fine": (run_sweep, outcome_sweep),
    "cli_suite": (run_cli, outcome_cli),
}
