"""Record the accuracy reference (reference.json) from the current sources.

    python3 perfbench/record_reference.py

Runs each workload once, untraced, in a fresh worker and classifies every
fingerprint value (fingerprint.classify). Only rerun it when a change is
meant to move the answers; the reference is what later changes are
checked against.
"""

from __future__ import annotations

import json
import sys

from run import ROOT, spawn
from workloads import CLI_ARGV, WORKLOADS

sys.path.insert(0, str(ROOT / "src"))

from fingerprint import CLASSES, REFERENCE, classify  # noqa: E402


def main() -> int:
    workloads = {}
    for name in sorted(WORKLOADS):
        rep = spawn(["--workload", name, "--order", ",".join(CLI_ARGV)], timeout=600)
        if "error" in rep or rep["failed"]:
            print(f"{name}: not recordable: {rep.get('error') or rep['failed']} failed", file=sys.stderr)
            return 1
        workloads[name] = classify(name, rep["fingerprint"])
        print(f"{name}: {len(workloads[name])} values", file=sys.stderr)
    REFERENCE.write_text(json.dumps({"classes": CLASSES, "workloads": workloads}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
