"""beclab benchmark: one run of one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Every repetition is a fresh interpreter
(worker.py) that imports beclab from ``src`` and runs the workload once, so
each one pays the set-up a user pays and starts with cold caches.
Repetitions follow each other closely (closed loop, one caller) until
``--seconds`` have passed; between them, PROBES interpreters only import
beclab, to sample set-up time more often.

With ``--trace 0`` the last line reports the end-to-end metrics of
BENCHMARK.json; with ``--trace 1`` repetitions alternate between untraced
and traced, and it reports the per-layer metrics of the traced ones plus
the tracing overhead (traced minus untraced median wall time). The line
before it holds the details: machine, every repetition, the wall-time
summary, fingerprint mismatches and self-check failures. See README.md.
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

from fingerprint import compare, load_reference  # noqa: E402
from workloads import CLI_ARGV, OPS, WORKLOADS  # noqa: E402

PROBES = 4
RUN_LIMIT_S = 170.0  # a run must end within 180 s


class RepFailed(Exception):
    pass


def spawn(args, timeout):
    """Run worker.py with ``args``; its last stdout line, plus the set-up
    time from before the process start to the worker's ready stamp."""
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *args],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise RepFailed(f"worker {' '.join(args)} exceeded {timeout:.0f} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RepFailed(f"worker exit {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    out = json.loads(lines[-1])
    out["setup_s"] = out["ready"] - t0
    return out


def high_percentile(samples):
    """The highest percentile with at least ten samples above it."""
    if len(samples) < 11:
        return None
    ordered = sorted(samples)
    k = len(ordered) - 11
    return {"percentile": 100.0 * (k + 1) / len(ordered), "value": ordered[k]}


def median(values, default=0.0):
    return statistics.median(values) if values else default


def probe(probes):
    """One more set-up sample; False when beclab cannot be imported."""
    try:
        probes.append(spawn(["--probe"], timeout=60))
    except RepFailed as exc:
        print(f"run.py: cannot start beclab: {exc}", file=sys.stderr)
        return False
    return True


def repetitions(workload, seed, seconds, trace, run_start, probes):
    """Repetitions until ``seconds`` have passed, with the set-up probes
    interleaved so that they sample the whole run, not one moment of it."""
    rng = random.Random(seed)
    spans = OUT / f"trace-{workload}-seed{seed}.json"
    reps, longest = [], 0.0
    start = time.monotonic()
    while True:
        traced = trace and len(reps) % 2 == 1
        order = rng.sample(sorted(CLI_ARGV), len(CLI_ARGV)) if workload == "cli_suite" else []
        args = ["--workload", workload, "--order", ",".join(order)]
        if traced:
            args += ["--trace", "--spans", str(spans)]
        t0 = time.monotonic()
        budget = RUN_LIMIT_S - (t0 - run_start)
        try:
            rep = spawn(args, timeout=max(budget, 1.0))
        except RepFailed as exc:
            rep = {"error": str(exc)}
        longest = max(longest, time.monotonic() - t0)
        rep.update(traced=traced, order=order)
        reps.append(rep)
        if len(probes) < PROBES:
            probe(probes)
        now = time.monotonic()
        enough = now - start >= seconds and (not trace or len(reps) >= 2)
        if enough or now - run_start + 1.5 * longest > RUN_LIMIT_S:
            while len(probes) < PROBES and probe(probes):
                pass
            return reps, spans


def self_checks(workload, reps):
    """Failures of the checks every run makes on its own repetitions."""
    problems = []
    done = [r for r in reps if "error" not in r]
    first = done[0] if done else None
    for r in done[1:]:
        if r["fingerprint"] != first["fingerprint"]:
            kind = "traced" if r["traced"] != first["traced"] else "repeated"
            problems.append(f"{kind} repetition gave a different fingerprint")
        if workload == "cli_suite" and r["digests"] != first["digests"]:
            problems.append(
                f"command order {r['order']} wrote different bytes than {first['order']}"
            )
    for r in done:
        if r.get("unrestored"):
            problems.append(f"tracer left wrappers installed: {r['unrestored']}")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    run_start = time.monotonic()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = bench["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in section}
    reference = load_reference()[args.workload]
    OUT.mkdir(parents=True, exist_ok=True)

    probes = []
    if not probe(probes):
        return 2
    reps, spans = repetitions(
        args.workload, args.seed, args.seconds, bool(args.trace), run_start, probes
    )
    done = [r for r in reps if "error" not in r]
    plain = [r for r in done if not r["traced"]]
    traced = [r for r in done if r["traced"]]

    attempted = sum(r.get("attempted", OPS[args.workload]) for r in reps)
    failed = sum(r["failed"] if "error" not in r else OPS[args.workload] for r in reps)
    mismatches = [compare(reference, r["fingerprint"]) for r in done]
    checked = len(reference) * len(done)
    wrong = sum(len(m) for m in mismatches)
    problems = self_checks(args.workload, reps)
    correct = len(done) == len(reps) and failed == 0 and wrong == 0 and not problems

    walls = [r["wall_s"] for r in plain]
    if args.trace:
        traced_walls = [r["wall_s"] for r in traced]
        metrics = {
            name: median([r["layers"][name] for r in traced])
            for name in (traced[0]["layers"] if traced else ())
        }
        metrics["trace.wall_s"] = median(traced_walls)
        metrics["trace.overhead_s"] = median(traced_walls) - median(walls)
        metrics["workload.cpu_per_wall"] = median([r["cpu_s"] / r["wall_s"] for r in plain])
    else:
        metrics = {
            "wall_s": median(walls),
            "setup_s": median([p["setup_s"] for p in probes + plain]),
            "peak_rss_mb": median([r["peak_rss_mb"] for r in plain]),
            "ops_ok_ratio": (attempted - failed) / attempted,
            "fingerprint_ok_ratio": (checked - wrong) / checked if checked else 0.0,
        }
    absent = sorted(set(units) - set(metrics))
    if traced and absent:
        print(f"run.py: metrics not produced: {absent}", file=sys.stderr)
        return 2

    details = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "machine": probes[0]["machine"],
        "wall_s": {"median": median(walls), "high": high_percentile(walls), "samples": len(walls)},
        "setup_s_samples": [p["setup_s"] for p in probes + plain],
        "repetitions": [
            {
                k: r.get(k)
                for k in ("traced", "order", "wall_s", "setup_s", "peak_rss_mb", "attempted",
                          "failed", "command_s", "missing_sites", "error")
                if r.get(k) is not None
            }
            for r in reps
        ],
        "fingerprint": {"checked": checked, "mismatches": [m for ms in mismatches for m in ms][:20]},
        "self_check_failures": problems,
        "spans_file": str(spans.relative_to(ROOT)) if traced else None,
    }
    print(json.dumps(details))
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics.get(name, 0.0), "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
