"""Alternating parent/change pairs of the benchmark, and their verdict.

Usage: python3 tools/pairs.py PARENT CHANGE --workload NAME [--first-seed 1]

PARENT and CHANGE are two checkouts of beclab. Each of 10 pairs runs
`python3 perfbench/run.py --workload NAME --seed SEED --seconds S --trace 0`
once in each, with the same seed, one after the other and never in
parallel; odd pairs run the parent first, even pairs the change first.
Seeds run from --first-seed up. The run length S is the parent's
BENCHMARK.json run_seconds, and the metrics, with the direction in which
each is better and its bound, come from the same file. Nothing under
perfbench/ is edited; run.py writes its own perfbench/out/ in each
checkout.

Printed: each pair's end-to-end metrics, parent then change; then per
metric each side's median and quartiles, the pairs the change won (ties
count for neither) and two verdicts. "gain" holds when the change won at
least nine tenths of the pairs and its median is better than the
parent's by more than the parent's interquartile range. "within bound"
holds when the change's median is worse than the parent's by at most
the bound, read as a fraction of the parent's median. A run that fails
stops the script with run.py's output.

A checkout whose src/ holds a __pycache__ directory is refused before any
run: a matching cache lets its side skip compiling beclab and a stale one
is recompiled at every start, so either biases setup_s, and wall_s where
the workload imports beclab inside its timed run. Fresh checkouts hold no
cache.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

PAIRS = 10


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The end-to-end metrics of one run.py run in checkout, by name."""
    argv = [
        "python3", "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{checkout}: run.py exit {proc.returncode}\n{proc.stdout}{proc.stderr}")
    result = json.loads(lines[-1])
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    metrics["correct"] = result["correct"]
    return metrics


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    for checkout in (args.parent, args.change):
        caches = sorted((checkout / "src").rglob("__pycache__"))
        if caches:
            sys.exit(f"{caches[0]}: a bytecode cache in the checkout; remove it before the pairs")

    bench = json.loads((args.parent / "BENCHMARK.json").read_text())
    seconds = float(bench["run_seconds"])
    specs = bench["end_to_end"]
    sides = {"parent": args.parent, "change": args.change}
    runs = {"parent": [], "change": []}

    for i in range(PAIRS):
        seed = args.first_seed + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(run_once(sides[side], args.workload, seed, seconds))
        cells = "  ".join(
            f"{m['name']} {runs['parent'][-1][m['name']]:.4g} -> {runs['change'][-1][m['name']]:.4g}"
            for m in specs
        )
        correct = runs["parent"][-1]["correct"] and runs["change"][-1]["correct"]
        print(f"pair {i + 1} seed {seed} {order[0]} first: {cells}"
              + ("" if correct else "  (a run reported correct = false)"), flush=True)

    print(f"\n{args.workload}, {PAIRS} pairs of {seconds:g} s")
    for m in specs:
        name, lower = m["name"], m["better"] == "lower"
        old = [r[name] for r in runs["parent"]]
        new = [r[name] for r in runs["change"]]
        won = sum((b < a) if lower else (b > a) for a, b in zip(old, new))
        (p1, pm, p3), (c1, cm, c3) = quartiles(old), quartiles(new)
        gap = (pm - cm) if lower else (cm - pm)  # positive when the change is better
        gain = won >= 0.9 * len(old) and gap > p3 - p1
        within = -gap <= m["bound"] * abs(pm)
        print(
            f"{name}: parent {pm:.4g} ({p1:.4g}-{p3:.4g}), change {cm:.4g} ({c1:.4g}-{c3:.4g}) "
            f"{m['unit']}; change won {won} of {len(old)}; "
            f"gain {'holds' if gain else 'not shown'} (gap {gap:.4g}, parent IQR {p3 - p1:.4g}); "
            f"{'within' if within else 'OUTSIDE'} bound {m['bound']:g}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
