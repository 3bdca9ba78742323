from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "pairs.py"
_SPEC = importlib.util.spec_from_file_location("pairs", _PATH)
pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(pairs)

_BENCH = {
    "run_seconds": 30,
    "end_to_end": [
        {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "ok_ratio", "unit": "ratio", "better": "higher", "bound": 0.01},
    ],
}


def _run(tmp_path, monkeypatch, capsys, walls, ratios=None):
    """tools/pairs.py over its 10 pairs, whose runs read walls[i] =
    (parent, change); the calls made, and the summary lines."""
    assert len(walls) == pairs.PAIRS
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
        (tmp_path / side / "BENCHMARK.json").write_text(json.dumps(_BENCH))
    calls = []

    def fake(checkout, workload, seed, seconds):
        calls.append((checkout.name, workload, seed, seconds))
        i = seed - 5
        side = 0 if checkout.name == "parent" else 1
        ratio = ratios[i][side] if ratios else 1.0
        return {"wall_s": walls[i][side], "ok_ratio": ratio, "correct": True}

    monkeypatch.setattr(pairs, "run_once", fake)
    argv = [str(tmp_path / "parent"), str(tmp_path / "change"), "--workload", "w",
            "--first-seed", "5"]
    assert pairs.main(argv) == 0
    out = capsys.readouterr().out.splitlines()
    return calls, {line.split(":")[0]: line for line in out if line.startswith(("wall_s:", "ok_ratio:"))}


def test_pairs_alternate_and_share_seeds(tmp_path, monkeypatch, capsys):
    calls, _ = _run(tmp_path, monkeypatch, capsys, [(1.0, 0.5)] * 10)
    # odd pairs run the parent first, even pairs the change, on seeds 5..14
    expected = []
    for i, seed in enumerate(range(5, 15)):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        expected += [(side, seed) for side in order]
    assert [(c[0], c[2]) for c in calls] == expected
    assert {c[3] for c in calls} == {30.0}  # BENCHMARK.json's run length


def test_gain_needs_nine_tenths_and_a_gap_above_the_parents_iqr(tmp_path, monkeypatch, capsys):
    # parent 1.00..1.09, change 0.1 lower in every pair: 10 of 10, and the
    # gap 0.1 exceeds the parent's IQR 0.045
    walls = [(1.0 + 0.01 * i, 0.9 + 0.01 * i) for i in range(10)]
    _, lines = _run(tmp_path, monkeypatch, capsys, walls)
    assert "change won 10 of 10" in lines["wall_s"]
    assert "gain holds" in lines["wall_s"] and "within bound" in lines["wall_s"]
    # ties count for neither side, so 10 equal ratios win nothing
    assert "change won 0 of 10" in lines["ok_ratio"] and "gain not shown" in lines["ok_ratio"]


def test_no_gain_at_eight_of_ten(tmp_path, monkeypatch, capsys):
    walls = [(1.0 + 0.01 * i, 0.9 + 0.01 * i) for i in range(8)] + [(1.0, 1.2), (1.0, 1.2)]
    _, lines = _run(tmp_path, monkeypatch, capsys, walls)
    assert "change won 8 of 10" in lines["wall_s"] and "gain not shown" in lines["wall_s"]


def test_gain_not_shown_inside_the_iqr(tmp_path, monkeypatch, capsys):
    # the change wins every pair by 0.001, but the parent spreads over 0.1
    walls = [(1.0 + 0.02 * i, 0.999 + 0.02 * i) for i in range(10)]
    _, lines = _run(tmp_path, monkeypatch, capsys, walls)
    assert "change won 10 of 10" in lines["wall_s"] and "gain not shown" in lines["wall_s"]


def test_a_change_worse_by_more_than_the_bound_is_flagged(tmp_path, monkeypatch, capsys):
    # ok_ratio is better when higher: 1.0 -> 0.98 is 2 % worse, bound 1 %
    walls = [(1.0, 1.0)] * 10
    _, lines = _run(tmp_path, monkeypatch, capsys, walls, ratios=[(1.0, 0.98)] * 10)
    assert "OUTSIDE bound 0.01" in lines["ok_ratio"]
    assert "within bound 0.25" in lines["wall_s"]


def test_a_checkout_with_a_bytecode_cache_is_refused(tmp_path, monkeypatch, capsys):
    # a cache under src/ lets one side skip compiling beclab: no run starts
    for side in ("parent", "change"):
        (tmp_path / side / "src" / "beclab").mkdir(parents=True)
        (tmp_path / side / "BENCHMARK.json").write_text(json.dumps(_BENCH))
    cache = tmp_path / "change" / "src" / "beclab" / "__pycache__"
    cache.mkdir()

    def unreachable(*args):
        raise AssertionError("a run started despite the cache")

    monkeypatch.setattr(pairs, "run_once", unreachable)
    with pytest.raises(SystemExit) as stop:
        pairs.main([str(tmp_path / "parent"), str(tmp_path / "change"), "--workload", "w"])
    assert str(cache) in str(stop.value.code)
