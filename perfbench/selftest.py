"""Self-tests of the benchmark itself (not of beclab).

    python3 perfbench/selftest.py

1. A traced repetition gives the same fingerprint as an untraced one, on
   every workload, and the tracer finds every wrapping site.
2. Every wrapped attribute is restored after the traced run.
3. Two seeds, which give two cli_suite command orders, write
   byte-identical output files.
4. The tracer's self time and the per-layer metric names agree with
   BENCHMARK.json.
5. run.py fails, without printing a result, in a directory that holds
   only BENCHMARK.json and the benchmark.

Exits 0 when all pass. Takes about a minute.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys

from run import OUT, ROOT, spawn
from tracer import Tracer
from workloads import CLI_ARGV, WORKLOADS

FAILURES = []


def check(ok, message):
    print(("ok   " if ok else "FAIL ") + message)
    if not ok:
        FAILURES.append(message)


def cli_order(seed):
    return random.Random(seed).sample(sorted(CLI_ARGV), len(CLI_ARGV))


def traced_matches_untraced():
    for name in sorted(WORKLOADS):
        first, second = (cli_order(1), cli_order(2)) if name == "cli_suite" else ([], [])
        plain = spawn(["--workload", name, "--order", ",".join(first)], timeout=300)
        traced = spawn(["--workload", name, "--order", ",".join(second), "--trace"], timeout=300)
        check("error" not in plain and "error" not in traced, f"{name}: both repetitions ran")
        if "error" in plain or "error" in traced:
            continue
        check(plain["fingerprint"] == traced["fingerprint"], f"{name}: traced fingerprint equals untraced")
        check(traced["unrestored"] == [], f"{name}: every wrapped attribute restored")
        check(traced["missing_sites"] == [], f"{name}: every wrapping site found")
        if name == "cli_suite":
            check(first != second, f"cli_suite: seeds 1 and 2 give different orders {first} {second}")
            check(plain["digests"] == traced["digests"], "cli_suite: both orders wrote identical bytes")


def self_time_and_names():
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
        with tracer.span("inner"):
            pass
    table = tracer.span_table()
    calls, total, own = table["outer"]
    inner = table["inner"][1]
    check(calls == 1 and abs(total - own - inner) < 1e-9, "self time = duration - children")

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    produced = set(Tracer().layer_metrics()) | {"trace.wall_s", "trace.overhead_s", "workload.cpu_per_wall"}
    listed = {m["name"] for m in bench["per_layer"]}
    check(listed == produced, f"per-layer names match BENCHMARK.json (diff {sorted(listed ^ produced)})")


def bare_directory_fails():
    bare = OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep_fine", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    shutil.rmtree(bare, ignore_errors=True)
    check(proc.returncode != 0 and '"correct"' not in proc.stdout, "run.py fails without beclab sources")


def main() -> int:
    self_time_and_names()
    bare_directory_fails()
    traced_matches_untraced()
    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
