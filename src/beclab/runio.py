"""Deterministic flat-file output: CSV curves and JSON reports.

Every file starts with the fully resolved run configuration so a rerun
can be reproduced from the artifact alone. Formatting is pinned (17
significant digits, '.' decimal, sorted JSON keys, no timestamps) so
reruns with the same configuration are byte-identical.
"""

from __future__ import annotations

import dataclasses
import json
import math
from pathlib import Path
from typing import Any, Mapping, Sequence

import numpy as np

__all__ = ["sanitize", "write_csv", "write_json", "read_seed_csv"]


def format_float(x: float) -> str:
    """One CSV cell: 17 significant digits round-trips doubles exactly.
    write_csv spells every cell this way, with one %-format per file."""
    return format(float(x), ".17g")


def sanitize(obj: Any) -> Any:
    """Recursively convert a report object to plain JSON types.

    Dataclasses become dicts, numpy scalars become Python floats/ints,
    and non-finite floats become None (JSON has no NaN/Inf).
    """
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: sanitize(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, Mapping):
        return {str(k): sanitize(v) for k, v in obj.items()}
    if isinstance(obj, np.ndarray):
        return [sanitize(v) for v in obj.tolist()]
    if isinstance(obj, (list, tuple)):
        return [sanitize(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        return x if math.isfinite(x) else None
    if obj is None or isinstance(obj, str):
        return obj
    raise TypeError(f"cannot serialize {type(obj).__name__} to JSON")


def write_json(path: str | Path, obj: Any, config: Mapping[str, Any]) -> None:
    """The report obj under "report", next to the run config under "config"."""
    payload = {"config": sanitize(config), "report": sanitize(obj)}
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    Path(path).write_text(text + "\n")


def write_csv(
    path: str | Path,
    columns: Mapping[str, Sequence[float] | np.ndarray],
    config: Mapping[str, Any],
) -> None:
    """Plain comma-separated numeric columns with a one-line config header."""
    names = list(columns)
    if not names:
        raise ValueError("need at least one column")
    arrays = [np.asarray(columns[name], dtype=float) for name in names]
    length = arrays[0].shape[0]
    for name, arr in zip(names, arrays):
        if arr.ndim != 1 or arr.shape[0] != length:
            raise ValueError(f"column {name} is not a 1-d array of length {length}")
    # "%.17g" spells a double as format_float does; one %-format over all
    # cells costs a fraction of formatting them one by one
    row = ",".join(["%.17g"] * len(arrays)) + "\n"
    cells = np.column_stack(arrays).ravel().tolist()
    header = "# config: " + json.dumps(sanitize(config), sort_keys=True)
    Path(path).write_text(header + "\n" + ",".join(names) + "\n" + row * length % tuple(cells))


def read_seed_csv(path: str | Path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read a solution CSV (columns z, v1, v2 at least) as seed data."""
    text = Path(path).read_text().splitlines()
    rows = [line for line in text if line.strip() and not line.startswith("#")]
    if not rows:
        raise ValueError(f"seed file {path} is empty")
    header = [name.strip() for name in rows[0].split(",")]
    for required in ("z", "v1", "v2"):
        if required not in header:
            raise ValueError(f"seed file {path} lacks column {required!r}")
    data = np.array([[float(v) for v in line.split(",")] for line in rows[1:]])
    if data.ndim != 2 or data.shape[0] < 4:
        raise ValueError(f"seed file {path} has too few rows")
    z = data[:, header.index("z")]
    if np.any(np.diff(z) <= 0.0):
        raise ValueError(f"seed file {path} nodes are not strictly increasing")
    return z, data[:, header.index("v1")], data[:, header.index("v2")]
