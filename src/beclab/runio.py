"""Deterministic flat-file output: CSV curves and JSON reports.

Every file starts with the fully resolved run configuration so a rerun
can be reproduced from the artifact alone. Formatting is pinned (sorted
JSON keys, '.' decimal, no timestamps) so reruns with the same
configuration are byte-identical.

A CSV cell is spelled as Python's '%.17g' spells it (format_float), which
round-trips every double. write_csv computes those bytes with a NumPy
kernel, a chunk of cells at a time: it certifies each cell's rounding
with a double-double product and hands the cells it cannot certify to
format_float, so its files equal the per-cell spelling byte for byte.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import json
import math
from pathlib import Path
from typing import Any, Mapping, Sequence

import numpy as np

__all__ = ["sanitize", "write_csv", "write_json", "read_seed_csv"]


def format_float(x: float) -> str:
    """One CSV cell: 17 significant digits round-trip doubles exactly.
    write_csv spells every cell this way; its kernel hands this function
    the cells whose rounding it cannot certify."""
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


# -- the %.17g kernel ---------------------------------------------------------
# A finite, normal, nonzero cell a with decimal exponent X has the 17
# digits N = round(a * 10**k), k = 16 - X, 10**16 <= N < 10**17. The
# product is ldexp(a, k) * 5**k: the first factor is exact, and 5**k is
# held as a double-double hi + lo, so a Dekker two-product gives a * 10**k
# as an integer part and a remainder in [0, 1), to within about 1e-13.
# Where the remainder lies within _GUARD of 1/2 the rounding is not
# certified (2**-25 and its odd multiples are exact ties): format_float
# spells such a cell, as it does every non-finite and subnormal one, and
# one whose X from log10 is off by one (a few ulps from a power of ten).
_CHUNK = 2048  # cells per write
_GUARD = 1e-6
_K_MIN, _K_MAX = -300, 330  # 5**k; normal cells need -292..324
_X_MIN, _X_MAX = -340, 340  # decimal exponents; normal cells have -308..309
_SPLIT = 134217729.0  # 2**27 + 1, Dekker's splitter
_N_MIN, _N_MAX = int(1e16), int(1e17)  # the 17-digit integers
_E4, _E8 = int(1e4), int(1e8)
_TINY, _HUGE = np.finfo(float).tiny, np.finfo(float).max

# Each cell has a 32-byte staging row; its spelling is gathered from it.
# Bytes 0..3 are "-0.0"; 4..7 are "000" and the first digit, so digit j is
# byte 7 + j; 24..27 are the exponent's sign and three digits; 28..30 are
# "e", "." and the cell's separator.
_ROW = 32
_MINUS, _ZERO, _POINT, _DIGIT, _EXP, _E, _DOT, _SEP = 0, 1, 2, 7, 24, 28, 29, 30
_WIDTH = 25  # the longest spelling, "-1.2345678901234567e-308,"
_GROUP_START = np.array([[1], [5], [9], [13]])  # digits before groups 1..4, plus one


def _layout(X: int, nd: int) -> list[int]:
    """The staging-row bytes that spell a positive cell with decimal
    exponent X and nd significant digits, as %.17g spells it."""
    digits = [_DIGIT + j for j in range(nd)]
    if X < -4 or X >= 17:
        mantissa = digits[:1] + ([_DOT] + digits[1:] if nd > 1 else [])
        return mantissa + [_E, _EXP] + list(range(_EXP + 1 + (abs(X) < 100), _EXP + 4))
    if X < 0:
        return [_ZERO, _POINT] + [_ZERO] * (-X - 1) + digits
    whole = [_DIGIT + j for j in range(X + 1)]
    return whole + ([_DOT] + digits[X + 1 :] if nd > X + 1 else [])


@functools.cache
def _tables() -> dict[str, np.ndarray]:
    """The kernel's lookup tables, built on first use."""
    hi, lo = [], []
    for k in range(_K_MIN, _K_MAX + 1):
        if k >= 0:
            hi.append(float(5**k))
            lo.append(float(5**k - int(hi[-1])))
        else:  # 1/d - m * 2**s = (2**-s - m * d) / d * 2**s, with hi = m * 2**s
            d = 5**-k
            hi.append(1 / d)
            m, s = math.frexp(hi[-1])
            m, s = int(math.ldexp(m, 53)), s - 53
            lo.append(math.ldexp((2**-s - m * d) / d, s))
    exponents = np.arange(_X_MIN, _X_MAX + 1)
    magnitude = np.abs(exponents)
    exponent_bytes = np.column_stack([
        np.where(exponents < 0, ord("-"), ord("+")),
        *(magnitude // 10**p % 10 + ord("0") for p in (2, 1, 0)),
    ])
    # Layouts differ with X in -4..16, and outside it only with the
    # exponent's sign and digit count: 25 classes, each spelled here from
    # one of its exponents. Layout 34 c + 2 (nd - 1) + (cell < 0) is class
    # c with nd significant digits; the last is the separator alone, for a
    # cell that format_float spells.
    fixed = (exponents >= -4) & (exponents < 17)
    classes = np.where(fixed, exponents + 4, 21 + 2 * (exponents > 0) + (magnitude >= 100))
    spellings = [
        [_MINUS] * negative + _layout(X, nd) + [_SEP]
        for X in [*range(-4, 17), -5, -100, 17, 100]
        for nd in range(1, 18)
        for negative in (0, 1)
    ] + [[_SEP]]
    lengths = np.array([len(s) for s in spellings])
    keep = np.arange(_WIDTH) < lengths[:, None]
    positions = np.full(keep.shape, _SEP)
    positions[keep] = list(itertools.chain.from_iterable(spellings))
    groups = np.arange(10000)
    group_digits = groups[:, None] // 10 ** np.arange(3, -1, -1) % 10 + ord("0")
    # digits of a 4-digit group up to its last nonzero one; -100 for 0000
    last = 4 - sum(groups % 10**p == 0 for p in (1, 2, 3))
    return {
        "hi": np.array(hi),
        "lo": np.array(lo),
        "exponent": exponent_bytes.astype(np.uint8).view(np.uint32).ravel(),
        "class": 34 * classes,
        "positions": positions,
        "keep": keep,
        "lengths": lengths,
        "group": group_digits.astype(np.uint8).view(np.uint32).ravel(),
        "last": np.where(groups == 0, -100, last),
    }


def _scaled(a: np.ndarray, X: np.ndarray, t: dict) -> tuple[np.ndarray, np.ndarray]:
    """a * 10**(16 - X) as an integer part and a remainder in [0, 1)."""
    k = 16 - X
    y = np.ldexp(a, k)
    hi, lo = t["hi"][k - _K_MIN], t["lo"][k - _K_MIN]
    p = y * hi
    c = _SPLIT * y
    y1 = c - (c - y)
    y2 = y - y1
    c = _SPLIT * hi
    h1 = c - (c - hi)
    h2 = hi - h1
    r = (((y1 * h1 - p) + y1 * h2 + y2 * h1) + y2 * h2) + y * lo  # y * hi - p exact
    whole = np.floor(r)
    return p.astype(np.int64) + whole.astype(np.int64), r - whole


def _spell(cells: np.ndarray, stage: np.ndarray, offsets: np.ndarray, t: dict) -> bytes:
    """The cells spelled as format_float spells them, each followed by
    the separator in its staging row (stage[i] for cells[i])."""
    n = cells.shape[0]
    a = np.abs(cells)
    normal = (a >= _TINY) & (a <= _HUGE)
    a = np.where(normal, a, 1.0)
    X = np.floor(np.log10(a)).astype(np.intp)
    whole, frac = _scaled(a, X, t)
    # next to a power of ten log10 may miss X by one, and whole then has 16
    # or 18 digits
    fallback = (~normal & (cells != 0)) | (np.abs(frac - 0.5) < _GUARD)
    fallback |= (whole < _N_MIN) | (whole >= _N_MAX)
    N = whole + (frac > 0.5)
    carry = N == _N_MAX
    N[carry] = _N_MIN
    X += carry
    N[cells == 0] = 0

    # N as five groups of digits: d0, d1..d4, d5..d8, d9..d12, d13..d16
    groups = np.empty((5, n), dtype=np.intp)
    high = N // _E8
    low = N - high * _E8
    groups[0] = high // _E8
    high -= groups[0] * _E8
    for row, part in ((1, high), (3, low)):
        groups[row] = part // _E4
        groups[row + 1] = part - groups[row] * _E4
    words = stage[:n].view(np.uint32)
    words[:, 1:6] = t["group"][groups.T]
    words[:, 6] = t["exponent"][X - _X_MIN]
    nd = (t["last"][groups[1:]] + _GROUP_START).max(axis=0, initial=1)

    layout = t["class"][X - _X_MIN] + 2 * nd - 2 + np.signbit(cells)
    layout[fallback] = t["lengths"].shape[0] - 1
    index = t["positions"].take(layout, axis=0)
    index += offsets[:n]
    spelled = stage.ravel().take(index)[t["keep"].take(layout, axis=0)]
    bad = np.flatnonzero(fallback)
    if not bad.size:
        return spelled.tobytes()
    ends = np.cumsum(t["lengths"][layout])
    pieces, start = [], 0
    for i in bad:
        stop = ends[i] - 1  # the cell's separator
        pieces += [spelled[start:stop].tobytes(), format_float(cells[i]).encode()]
        start = stop
    pieces.append(spelled[start:].tobytes())
    return b"".join(pieces)


def write_csv(
    path: str | Path,
    columns: Mapping[str, Sequence[float] | np.ndarray],
    config: Mapping[str, Any],
) -> None:
    """Plain comma-separated numeric columns with a one-line config header.
    Every cell is spelled as format_float spells it."""
    names = list(columns)
    if not names:
        raise ValueError("need at least one column")
    arrays = [np.asarray(columns[name], dtype=float) for name in names]
    length = arrays[0].shape[0]
    for name, arr in zip(names, arrays):
        if arr.ndim != 1 or arr.shape[0] != length:
            raise ValueError(f"column {name} is not a 1-d array of length {length}")
    # the table goes out in chunks of whole rows, so no table-sized
    # temporaries are held; a chunk's cells are its rows in order
    width = len(arrays)
    rows = max(1, _CHUNK // width)
    block = np.empty((rows, width))
    stage = np.empty((rows * width, _ROW), dtype=np.uint8)
    stage[:, :4] = np.frombuffer(b"-0.0", dtype=np.uint8)
    stage[:, _E:] = np.frombuffer(b"e.,\0", dtype=np.uint8)
    stage[width - 1 :: width, _SEP] = ord("\n")
    offsets = np.arange(0, rows * width * _ROW, _ROW)[:, None]
    header = "# config: " + json.dumps(sanitize(config), sort_keys=True)
    tables = _tables()
    with open(path, "wb") as out:
        out.write((header + "\n" + ",".join(names) + "\n").encode())
        for start in range(0, length, rows):
            chunk = block[: min(rows, length - start)]
            for j, arr in enumerate(arrays):
                chunk[:, j] = arr[start : start + rows]
            out.write(_spell(chunk.ravel(), stage, offsets, tables))


def read_seed_csv(path: str | Path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read a solution CSV (columns z, v1, v2 at least) as seed data:
    finite values on strictly increasing z."""
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
    for required in ("z", "v1", "v2"):
        if not np.all(np.isfinite(data[:, header.index(required)])):
            raise ValueError(f"seed file {path} column {required!r} has a non-finite value")
    z = data[:, header.index("z")]
    if np.any(np.diff(z) <= 0.0):
        raise ValueError(f"seed file {path} nodes are not strictly increasing")
    return z, data[:, header.index("v1")], data[:, header.index("v2")]
