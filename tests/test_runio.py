from __future__ import annotations

import dataclasses
import json
import math
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beclab.runio import (
    _CHUNK,
    _K_MAX,
    _K_MIN,
    _tables,
    format_float,
    read_seed_csv,
    sanitize,
    write_csv,
    write_json,
)


def test_format_float_round_trips():
    for x in (math.pi, 0.1, 1e-17, -2.5e300, 0.545271399338):
        assert float(format_float(x)) == x


def test_sanitize_converts_numpy_and_dataclasses():
    @dataclasses.dataclass
    class Inner:
        a: float
        b: np.ndarray

    out = sanitize({"x": np.float64(2.5), "inner": Inner(a=1.0, b=np.arange(3.0))})
    assert out == {"x": 2.5, "inner": {"a": 1.0, "b": [0.0, 1.0, 2.0]}}


def test_sanitize_maps_non_finite_to_none():
    assert sanitize(float("nan")) is None
    assert sanitize(float("inf")) is None
    assert sanitize({"edge": np.nan}) == {"edge": None}


def test_sanitize_rejects_unknown_types():
    with pytest.raises(TypeError):
        sanitize({"bad": {1, 2, 3}})


def test_write_json_wraps_config(tmp_path):
    path = tmp_path / "report.json"
    write_json(path, {"kappa": 0.5, "edge": float("nan")}, config={"n": 17})
    payload = json.loads(path.read_text())
    assert payload["config"] == {"n": 17}
    assert payload["report"]["kappa"] == 0.5
    assert payload["report"]["edge"] is None  # NaN serialized as null


def test_write_json_byte_identical_rewrite(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    obj = {"values": list(np.linspace(0.0, 1.0, 7)), "name": "run"}
    write_json(a, obj, config={"seed": 1})
    write_json(b, obj, config={"seed": 1})
    assert a.read_bytes() == b.read_bytes()


def test_write_csv_and_seed_round_trip(tmp_path):
    path = tmp_path / "seed.csv"
    z = np.linspace(-5.0, 5.0, 21)
    v1 = 0.5 * (1.0 + np.tanh(z))
    v2 = v1[::-1].copy()
    write_csv(path, {"z": z, "v1": v1, "v2": v2}, config={"lam": 3.0})
    text = path.read_text()
    assert text.startswith("# config:")
    rz, r1, r2 = read_seed_csv(path)
    assert np.array_equal(rz, z)
    assert np.array_equal(r1, v1)
    assert np.array_equal(r2, v2)


def test_read_seed_csv_validation(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("z,v1\n0,1\n1,2\n2,3\n3,4\n")
    with pytest.raises(ValueError):
        read_seed_csv(path)

    path.write_text("z,v1,v2\n0,1,1\n1,2,2\n")
    with pytest.raises(ValueError):
        read_seed_csv(path)

    path.write_text("z,v1,v2\n0,1,1\n2,1,1\n1,1,1\n3,1,1\n")
    with pytest.raises(ValueError):
        read_seed_csv(path)


def test_write_csv_rows_full_precision(tmp_path):
    path = tmp_path / "table.csv"
    x = np.array([math.pi, 1.0 / 3.0])
    write_csv(path, {"x": x}, config={})
    header, *lines = path.read_text().splitlines()
    assert header == "# config: {}"
    assert lines[0] == "x"
    assert [float(l) for l in lines[1:]] == list(x)


finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def seed_columns(draw):
    z = sorted(draw(st.lists(finite, min_size=4, max_size=30, unique=True)))
    values = st.lists(finite, min_size=len(z), max_size=len(z))
    return np.array(z), np.array(draw(values)), np.array(draw(values))


@settings(max_examples=100, deadline=None)
@given(columns=seed_columns())
def test_csv_round_trip_is_bit_exact(columns):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "seed.csv"
        write_csv(path, dict(zip(("z", "v1", "v2"), columns)), config={"lam": 3.0})
        read = read_seed_csv(path)
    for written, back in zip(columns, read):
        assert back.tobytes() == written.tobytes()


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(), children, max_size=4),
    max_leaves=20,
)


def _has_non_finite(obj) -> bool:
    if isinstance(obj, float):
        return not math.isfinite(obj)
    if isinstance(obj, list):
        return any(_has_non_finite(v) for v in obj)
    if isinstance(obj, dict):
        return any(_has_non_finite(v) for v in obj.values())
    return False


@settings(max_examples=150, deadline=None)
@given(obj=json_values)
def test_json_round_trip_equals_sanitized(obj):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "report.json"
        write_json(path, obj, config={})
        payload = json.loads(path.read_text())
    assert payload["config"] == {}
    loaded = payload["report"]
    assert loaded == sanitize(obj)
    # NaN and infinities come back as null
    assert not _has_non_finite(loaded)


def per_cell_csv(columns, config) -> str:
    """The CSV text written one cell at a time with format_float."""
    arrays = [np.asarray(v, dtype=float) for v in columns.values()]
    lines = ["# config: " + json.dumps(sanitize(config), sort_keys=True), ",".join(columns)]
    for i in range(arrays[0].shape[0]):
        lines.append(",".join(format_float(arr[i]) for arr in arrays))
    return "\n".join(lines) + "\n"


def _neighbours(x: float) -> list[float]:
    return [math.nextafter(x, 0.0), x, math.nextafter(x, math.inf)]


special = st.sampled_from(
    [math.nan, -math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -2.5e-310,
     2.2250738585072009e-308, 1.7976931348623157e308, 0.1, 2.0**-25, 3 * 2.0**-25]
)
# every power of ten of a normal double, and the switch between fixed and
# exponent notation, each with its neighbours one ulp away
powers_of_ten = st.sampled_from([y for e in range(-307, 309) for y in _neighbours(float(f"1e{e}"))])
notation_switch = st.sampled_from([y for x in (1e-5, 1e-4, 1e16, 1e17) for y in _neighbours(x)])
# odd multiples of 2**-j: exact decimal ties when they have 18 digits
ties = st.builds(lambda m, j: math.ldexp(2 * m + 1, -j), st.integers(0, 2**30), st.integers(1, 110))
cells = st.one_of(
    special, st.floats(), st.floats(-1e-300, 1e-300), powers_of_ten, notation_switch, ties
)


@st.composite
def csv_tables(draw):
    """1-9 columns of 0-40 rows, or of one to two chunks' worth of rows
    with a drawn pattern of up to 40 cells repeated; some columns are
    read-only reversed views, as v2 is stored."""
    width = draw(st.integers(1, 9))
    rows = _CHUNK // width
    length = draw(st.integers(0, 40) | st.integers(rows - 1, 2 * rows + 1))
    columns = {}
    for j in range(width):
        pattern = np.array(draw(st.lists(cells, min_size=min(length, 40), max_size=min(length, 40))))
        negate = draw(st.integers(0, 2**40 - 1)) >> np.arange(pattern.size) & 1 == 1
        column = np.resize(np.where(negate, -pattern, pattern), length)
        if draw(st.booleans()):
            column = column[::-1].copy()[::-1]
            column.flags.writeable = False
        columns[f"c{j}"] = column
    return columns


@settings(max_examples=150, deadline=None)
@given(columns=csv_tables())
def test_write_csv_bytes_equal_the_per_cell_writer(columns):
    # nan, +-inf, -0.0, subnormals, ties, powers of ten, tables past a chunk
    config = {"lam": 3.0, "n": 513}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "table.csv"
        write_csv(path, columns, config=config)
        written = path.read_bytes()
    assert written == per_cell_csv(columns, config).encode()


def test_write_csv_equals_one_format_over_a_million_random_doubles(tmp_path):
    # finite bit patterns of every exponent, normal and subnormal, in 8
    # columns; the reference is a single %.17g format over the table
    rng = np.random.default_rng(34)
    cells = rng.integers(0, 2**64, size=10**6 + 5000, dtype=np.uint64).view(np.float64)
    cells = cells[np.isfinite(cells)][: 10**6]
    table = cells.reshape(-1, 8)
    path = tmp_path / "table.csv"
    write_csv(path, {f"c{j}": table[:, j] for j in range(8)}, config={})
    row = ",".join(["%.17g"] * 8) + "\n"
    expected = row * table.shape[0] % tuple(cells.tolist())
    assert path.read_bytes() == ("# config: {}\nc0,c1,c2,c3,c4,c5,c6,c7\n" + expected).encode()


def test_seed_round_trip_is_bit_exact_across_chunks(tmp_path):
    # random finite doubles, z strictly increasing, v2 a read-only reversed view
    rng = np.random.default_rng(35)
    bits = rng.integers(0, 2**64, size=(3, 5000), dtype=np.uint64).view(np.float64)
    z = np.unique(bits[0][np.isfinite(bits[0])])
    v1, v2 = (np.resize(b[np.isfinite(b)], z.shape[0]) for b in bits[1:])
    v2 = v2[::-1].copy()[::-1]
    v2.flags.writeable = False
    path = tmp_path / "seed.csv"
    write_csv(path, {"z": z, "v1": v1, "v2": v2, "dv": -v1}, config={"lam": 3.0})
    for written, back in zip((z, v1, v2), read_seed_csv(path)):
        assert back.tobytes() == written.tobytes()


def test_power_of_five_tables_are_correctly_rounded_double_doubles():
    # hi is 5**k rounded to a double and lo the rounded rest, the premise
    # of the kernel's 1e-13 bound on a cell's remainder
    tables = _tables()
    for k in range(_K_MIN, _K_MAX + 1, 7):
        exact = Fraction(5) ** k
        hi = tables["hi"][k - _K_MIN]
        assert hi == float(exact)
        assert tables["lo"][k - _K_MIN] == float(exact - Fraction(hi))
