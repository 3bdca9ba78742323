"""Compare two output_digests.py directories number by number.

Usage: python tools/output_moves.py DIR_A DIR_B

DIR_A and DIR_B are OUTDIRs of tools/output_digests.py, for example one
per checkout. For each file that differs, one line gives the largest
absolute and the largest relative change over its numbers, each with the
place it occurred: CSV cells as column[row], JSON numbers outside the
"config" header as their key path. The config headers are skipped, since
they name each run's own directory. A file present on one side only, a
file whose number count differs, and a file whose numbers agree but whose
other entries (strings, booleans, nulls) do not are named as such.
Identical files print nothing. Exit code 0 when nothing differs, 1
otherwise. It imports nothing from beclab, so any two checkouts compare.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path


def _csv_entries(text: str):
    lines = [line for line in text.splitlines() if not line.startswith("#")]
    names = lines[0].split(",")
    numbers, other = [], [("header", lines[0])]
    for row, line in enumerate(lines[1:]):
        for name, cell in zip(names, line.split(",")):
            try:
                numbers.append((f"{name}[{row}]", float(cell)))
            except ValueError:
                other.append((f"{name}[{row}]", cell))
    return numbers, other


def _json_entries(text: str):
    payload = json.loads(text)
    payload.pop("config", None)
    numbers, other = [], []

    def walk(key: str, obj) -> None:
        if isinstance(obj, dict):
            for k in sorted(obj):
                walk(f"{key}.{k}" if key else k, obj[k])
        elif isinstance(obj, list):
            for i, value in enumerate(obj):
                walk(f"{key}[{i}]", value)
        elif isinstance(obj, (int, float)) and not isinstance(obj, bool):
            numbers.append((key, float(obj)))
        else:
            other.append((key, obj))

    walk("", payload)
    return numbers, other


def compare(a: Path, b: Path) -> str | None:
    """One line describing how b's numbers moved from a's, or None when
    the two files agree entry for entry."""
    entries = _json_entries if a.suffix == ".json" else _csv_entries
    (num_a, other_a), (num_b, other_b) = entries(a.read_text()), entries(b.read_text())
    if [k for k, _ in num_a] != [k for k, _ in num_b]:
        return f"number count differs: {len(num_a)} vs {len(num_b)}"
    worst_abs, worst_rel = (0.0, ""), (0.0, "")
    for (key, x), (_, y) in zip(num_a, num_b):
        if x == y or (math.isnan(x) and math.isnan(y)):
            continue
        change = abs(x - y)
        rel = change / max(abs(x), abs(y)) if math.isfinite(change) else math.inf
        worst_abs = max(worst_abs, (change if math.isfinite(change) else math.inf, key))
        worst_rel = max(worst_rel, (rel, key))
    if worst_abs[1]:
        return (
            f"max abs {worst_abs[0]:.3g} at {worst_abs[1]}, "
            f"max rel {worst_rel[0]:.3g} at {worst_rel[1]}"
        )
    if other_a != other_b:
        return "numbers equal, other entries differ"
    return None


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python tools/output_moves.py DIR_A DIR_B", file=sys.stderr)
        return 2
    root_a, root_b = Path(argv[0]), Path(argv[1])
    files = {
        p.relative_to(root).as_posix()
        for root in (root_a, root_b)
        for p in root.rglob("*")
        if p.is_file()
    }
    differs = False
    for name in sorted(files):
        a, b = root_a / name, root_b / name
        if not (a.is_file() and b.is_file()):
            line = f"only in {root_a if a.is_file() else root_b}"
        else:
            line = compare(a, b)
        if line is not None:
            differs = True
            print(f"{name}: {line}")
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
