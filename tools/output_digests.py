"""Run twenty-two CLI commands and print one SHA-256 per output file.

Usage: PYTHONPATH=src python tools/output_digests.py OUTDIR

Each command writes into OUTDIR/<name>, in the order listed; solve_seeded
seeds from the solution that solve wrote. Every file's config header names
that directory in its "out" entry, so the entry is removed before
hashing, and a "seed" path inside OUTDIR is hashed relative to OUTDIR;
the rest of the file is hashed exactly as written (a header that does not
re-serialize to its own bytes is an error). Two checkouts are compared by
running this once per checkout, each with its own src on PYTHONPATH, and
diffing the printed lines.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import sys
from pathlib import Path

# name -> (argv without --out, expected exit code); {root} is OUTDIR
RUNS = {
    "blowup": (["blowup"], 0),
    "blowup_wide": (["blowup", "--X", "40"], 0),
    "solve": (["solve", "--lambda", "1e4"], 0),
    "solve_seeded": (["solve", "--lambda", "2e4", "--seed", "{root}/solve/solution.csv"], 0),
    "solve_L": (["solve", "--lambda", "20", "--L", "25"], 0),
    "solve_far_L": (["solve", "--lambda", "1e3", "--L", "25"], 0),
    "solve_low": (["solve", "--lambda", "1.5"], 0),
    "solve_odd": (["solve", "--lambda", "1e3", "--n", "1001"], 0),
    "solve_beyond": (["solve", "--lambda", "1e7"], 0),
    "solve_beyond_L": (["solve", "--lambda", "1e7", "--L", "30"], 0),
    "continue": (["continue", "--lambda-range", "10:1e6:1"], 0),
    "continue_fine": (["continue", "--lambda-range", "10:1e6:1", "--n", "32769"], 0),
    "composite": (["composite", "--lambda", "1e4"], 0),
    "composite_leading": (["composite", "--lambda", "1e3", "--variant", "leading"], 0),
    "spectrum": (["spectrum", "--lambda", "1e3"], 0),
    "spectrum_low": (["spectrum", "--lambda", "1.2"], 0),
    "spectrum_edge": (["spectrum", "--lambda", "1.05", "--n", "2049"], 0),
    "energy": (["energy", "--lambda-range", "10:1e6:1"], 0),
    "energy_one": (["energy", "--lambda", "1e4"], 0),
    "energy_beyond": (["energy", "--lambda", "1e7"], 0),
    "verify": (["verify"], 0),
    "verify_tol0": (["verify", "--tol", "0"], 3),
}


def _without_out(config: dict) -> dict:
    """config without its "out" entry, and with a "seed" path inside the
    OUTDIR that holds "out" made relative to that OUTDIR."""
    if "out" not in config:
        raise ValueError("config header has no 'out' entry")
    root = Path(config["out"]).parent
    config = {k: v for k, v in config.items() if k != "out"}
    seed = config.get("seed")
    if seed is not None and Path(seed).is_relative_to(root):
        config["seed"] = Path(seed).relative_to(root).as_posix()
    return config


def _json_text(payload) -> str:
    # the formatting of runio.write_json
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _csv_header(config: dict) -> str:
    # the formatting of runio.write_csv
    return "# config: " + json.dumps(config, sort_keys=True)


def normalized(path: Path) -> bytes:
    """The file's bytes with the "out" entry dropped from its config."""
    text = path.read_text()
    if path.suffix == ".json":
        payload = json.loads(text)
        if _json_text(payload) != text:
            raise ValueError(f"{path} does not re-serialize to its own bytes")
        payload["config"] = _without_out(payload["config"])
        return _json_text(payload).encode()
    header, rest = text.split("\n", 1)
    config = json.loads(header.removeprefix("# config: "))
    if _csv_header(config) != header:
        raise ValueError(f"{path} header does not re-serialize to its own bytes")
    return (_csv_header(_without_out(config)) + "\n" + rest).encode()


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: PYTHONPATH=src python tools/output_digests.py OUTDIR", file=sys.stderr)
        return 1
    from beclab.cli import main as beclab_main

    root = Path(argv[0])
    for name, (args, expected) in RUNS.items():
        out = root / name
        with contextlib.redirect_stdout(sys.stderr):  # verify's verdict lines
            code = beclab_main([*(a.format(root=root) for a in args), "--out", str(out)])
        if code != expected:
            print(f"{name}: exit {code}, expected {expected}", file=sys.stderr)
            return 2
        for path in sorted(out.iterdir()):
            digest = hashlib.sha256(normalized(path)).hexdigest()
            print(f"{digest}  {name}/{path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
