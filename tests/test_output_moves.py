from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "output_moves.py"
_SPEC = importlib.util.spec_from_file_location("output_moves", _PATH)
output_moves = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(output_moves)


def _write_run(root: Path, out: str, dv: str, kappa: float, extra=None) -> None:
    run = root / "solve"
    run.mkdir(parents=True)
    header = "# config: " + json.dumps({"out": out})
    (run / "solution.csv").write_text(f"{header}\nz,v1,dv1\n-1,0,{dv}\n1,1,0.5\n")
    report = {"kappa": kappa, "monotone": True, "steps": [1, 2], **(extra or {})}
    (run / "summary.json").write_text(json.dumps({"config": {"out": out}, "report": report}))


def test_reports_the_largest_moves_per_file(tmp_path, capsys):
    _write_run(tmp_path / "a", "a", "0.25", 0.5)
    _write_run(tmp_path / "b", "b", "0.25000001", 0.5)
    assert output_moves.main([str(tmp_path / "a"), str(tmp_path / "b")]) == 1
    lines = capsys.readouterr().out.splitlines()
    # the config headers name different directories and are skipped
    assert lines == ["solve/solution.csv: max abs 1e-08 at dv1[0], max rel 4e-08 at dv1[0]"]


def test_identical_runs_print_nothing(tmp_path, capsys):
    _write_run(tmp_path / "a", "a", "0.25", 0.5)
    _write_run(tmp_path / "b", "b", "0.25", 0.5)
    assert output_moves.main([str(tmp_path / "a"), str(tmp_path / "b")]) == 0
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "extra,message",
    [
        ({"gap": 1.0}, "solve/summary.json: number count differs: 3 vs 4"),
        ({"monotone": False}, "solve/summary.json: numbers equal, other entries differ"),
    ],
)
def test_layout_and_non_numeric_changes_are_named(extra, message, tmp_path, capsys):
    _write_run(tmp_path / "a", "a", "0.25", 0.5)
    _write_run(tmp_path / "b", "b", "0.25", 0.5, extra)
    (tmp_path / "b" / "solve" / "only.json").write_text("{}")
    assert output_moves.main([str(tmp_path / "a"), str(tmp_path / "b")]) == 1
    assert capsys.readouterr().out.splitlines() == [
        f"solve/only.json: only in {tmp_path / 'b'}",
        message,
    ]
