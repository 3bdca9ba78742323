from __future__ import annotations

import argparse
import contextlib
import inspect
import io
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beclab import cli, heteroclinic, spectrum
from beclab.banded import SingularSystemError
from beclab.calculus import resample
from beclab.cli import main, range_couplings
from beclab.runio import read_seed_csv, write_csv
from beclab.heteroclinic import (
    correct_on_ladder,
    default_domain_halfwidth,
    default_grid,
    explicit_lambda3,
    mesh_ladder,
    solve_heteroclinic,
)
from beclab.newton import NonConvergenceError
from beclab.profiles import solve_blowup
from beclab.verify import default_sweep, run_verification


README = Path(__file__).resolve().parents[1] / "README.md"


def read_json(path):
    return json.loads(path.read_text())


def readme_outputs() -> dict:
    """command -> output file names, parsed from the README command table."""
    text = README.read_text().split("## Command line", 1)[1].split("\n## ", 1)[0]
    table = {}
    for line in text.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) == 3 and re.fullmatch(r"`[a-z]+`", cells[0]):
            table[cells[0].strip("`")] = sorted(re.findall(r"`([^`]+)`", cells[2]))
    return table


def assert_readme_outputs(command, out):
    assert sorted(p.name for p in out.iterdir()) == readme_outputs()[command]


def readme_flags() -> dict:
    """command -> {flag: default text, '' for none}, parsed from the README
    flag table."""
    text = README.read_text().split("## Command line", 1)[1].split("\n## ", 1)[0]
    table = {}
    for line in text.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) == 2 and re.fullmatch(r"`[a-z]+`", cells[0]):
            table[cells[0].strip("`")] = dict(re.findall(r"`(--[\w-]+) ?([^`]*)`", cells[1]))
    return table


ALL_FLAGS = (
    "--lambda", "--lambda-range", "--X", "--L", "--n", "--tol", "--out", "--seed", "--variant",
)

# the flags each command reads besides --config
READS = {
    "blowup": ("--X", "--n", "--out"),
    "solve": ("--lambda", "--L", "--n", "--seed", "--out"),
    "continue": ("--lambda-range", "--n", "--out"),
    "composite": ("--lambda", "--X", "--L", "--n", "--seed", "--variant", "--out"),
    "spectrum": ("--lambda", "--L", "--n", "--seed", "--out"),
    "energy": ("--lambda", "--lambda-range", "--X", "--L", "--n", "--seed", "--out"),
    "verify": ("--lambda-range", "--X", "--n", "--tol", "--out"),
}

DROPPED = [(c, f) for c, reads in READS.items() for f in ALL_FLAGS if f not in reads]

# a value each flag accepts, and the arguments each command needs to run
FLAG_VALUE = {
    "--lambda": "20",
    "--lambda-range": "10:100:1",
    "--X": "12",
    "--L": "25",
    "--n": "1025",
    "--tol": "1",
    "--seed": "seed.csv",
    "--variant": "leading",
}
NEEDS = {
    "blowup": [],
    "solve": ["--lambda", "20"],
    "continue": ["--lambda-range", "10:100:1"],
    "composite": ["--lambda", "20"],
    "spectrum": ["--lambda", "20"],
    "energy": ["--lambda", "20"],
    "verify": [],
}


def test_readme_table_lists_every_command():
    assert sorted(readme_outputs()) == sorted(cli._COMMANDS)


def test_cli_table_reads_the_documented_flags():
    assert sorted(cli._COMMAND_FIELDS) == sorted(cli._COMMANDS)
    for command, reads in cli._COMMAND_FIELDS.items():
        assert sorted(cli._FLAGS[f][0] for f in reads) == sorted(READS[command])
    assert sum(len(r) + 1 for r in READS.values()) == 42  # with --config
    assert len(DROPPED) == 28


def test_readme_flag_table_matches_cli():
    by_flag = {flag: convert for flag, convert, _ in cli._FLAGS.values()}
    table = readme_flags()
    assert sorted(table) == sorted(cli._COMMAND_FIELDS)
    for command, reads in cli._COMMAND_FIELDS.items():
        defaults = {cli._FLAGS[field][0]: value for field, value in reads.items()}
        assert sorted(table[command]) == sorted(defaults)
        for flag, text in table[command].items():
            if defaults[flag] is None:
                assert text == "", (command, flag)
            else:
                assert by_flag[flag](text) == defaults[flag], (command, flag)


@pytest.mark.parametrize("command,flag", DROPPED)
def test_flag_the_command_does_not_read_exits_one(command, flag, tmp_path, capsys):
    out = tmp_path / "run"
    argv = [command, *NEEDS[command], flag, FLAG_VALUE[flag], "--out", str(out)]
    assert main(argv) == 1
    assert not out.exists()
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command,config",
    [("blowup", {"lambda": 3.0}), ("continue", {"seed": "seed.csv"}), ("solve", {"config": "x"})],
)
def test_config_key_the_command_does_not_read_exits_one(command, config, tmp_path, capsys):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "run"
    assert main([command, *NEEDS[command], "--config", str(path), "--out", str(out)]) == 1
    assert not out.exists()
    assert "does not read config key" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv,message",
    [(["--X", "0"], "need X >= 10"), (["--n", "0"], "need n >= 513")],
)
def test_blowup_zero_values_reach_the_solver(argv, message, tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["blowup", *argv, "--out", str(out)]) == 1
    assert not out.exists()
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["--lambda", "20", "--lambda-range", "10:100:1"],
        [],
        ["--lambda-range", "10:100:1", "--L", "25"],
        ["--lambda-range", "10:100:1", "--seed", "seed.csv"],
    ],
)
def test_energy_flag_rules_exit_one(argv, tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["energy", *argv, "--n", "1025", "--out", str(out)]) == 1
    assert not out.exists()
    assert "energy" in capsys.readouterr().err


def _unreachable(*args, **kwargs):
    raise AssertionError("a rejected value reached a solver")


@pytest.mark.parametrize(
    "argv,flag",
    [
        (["solve", "--lambda", "nan"], "--lambda"),
        (["solve", "--lambda", "inf"], "--lambda"),
        (["solve", "--lambda", "-inf"], "--lambda"),
        (["solve", "--lambda", "1e400"], "--lambda"),
        (["solve", "--lambda", "1"], "--lambda"),
        (["energy", "--lambda", "NaN"], "--lambda"),
        (["solve", "--lambda", "3", "--L", "nan"], "--L"),
        (["spectrum", "--lambda", "3", "--L", "inf"], "--L"),
        (["composite", "--lambda", "1e3", "--X", "nan"], "--X"),
        (["blowup", "--X", "inf"], "--X"),
    ],
)
def test_non_finite_flag_exits_one_before_solving(argv, flag, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "solve_heteroclinic", _unreachable)
    monkeypatch.setattr(cli, "solve_coupling", _unreachable)
    monkeypatch.setattr(cli, "solve_blowup", _unreachable)
    out = tmp_path / "run"
    assert main([*argv, "--out", str(out)]) == 1
    assert not out.exists()
    assert f"argument {flag}:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command,config,flag",
    [
        ("solve", {"lambda": float("nan")}, "--lambda"),
        ("solve", {"lambda": float("inf")}, "--lambda"),
        ("solve", {"lambda": 0.5}, "--lambda"),
        ("solve", {"lambda": 3.0, "L": float("nan")}, "--L"),
        ("composite", {"lambda": 1e3, "X": float("-inf")}, "--X"),
    ],
)
def test_non_finite_config_value_exits_one_before_solving(
    command, config, flag, tmp_path, monkeypatch, capsys
):
    # json writes NaN and Infinity, which json.loads reads back as floats
    monkeypatch.setattr(cli, "solve_heteroclinic", _unreachable)
    monkeypatch.setattr(cli, "solve_coupling", _unreachable)
    monkeypatch.setattr(cli, "solve_blowup", _unreachable)
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "run"
    assert main([command, "--config", str(path), "--out", str(out)]) == 1
    assert not out.exists()
    assert f"is not a valid {flag} value" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv,message",
    [
        (["composite", "--lambda", "5"], "composite needs lam >= 10, got 5.0"),
        (["composite", "--lambda", "1e7"], "inner window needs X >= ln(lam) = 16.12"),
        (["composite", "--lambda", "1e4", "--X", "9"], "blow-up data has X = 9.0"),
    ],
)
def test_composite_outside_its_window_exits_one_before_solving(
    argv, message, tmp_path, monkeypatch, capsys
):
    monkeypatch.setattr(cli, "solve_heteroclinic", _unreachable)
    monkeypatch.setattr(cli, "solve_coupling", _unreachable)
    monkeypatch.setattr(cli, "solve_blowup", _unreachable)
    out = tmp_path / "run"
    assert main([*argv, "--out", str(out)]) == 1
    assert not out.exists()
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv,flag",
    [
        (["solve", "--lambda", "1e300"], "--lambda 1e+300"),
        (["spectrum", "--lambda", "1e40"], "--lambda 1e+40"),
        (["energy", "--lambda", "1e300"], "--lambda 1e+300"),
        (["solve", "--lambda", "1e300", "--L", "25"], "--lambda 1e+300"),
        (["continue", "--lambda-range", "10:1e300:1"], "--lambda-range 1e+300"),
        (["energy", "--lambda-range", "10:1e40:1"], "--lambda-range 1e+40"),
        # the requested 8193-node mesh grades these; the ladder's 513-node
        # mesh grades only up to about 4.5e30
        (["solve", "--lambda", "1e31"], "--lambda 1e+31"),
        (["energy", "--lambda-range", "10:1e31:1"], "--lambda-range 1e+31"),
        # inside the composite window of a core on [-100, 100]: the ladder
        # on [-L, L] is checked before the core is solved
        (["energy", "--lambda", "1e40", "--X", "100"], "--lambda 1e+40"),
    ],
)
def test_unresolvable_coupling_exits_one_before_solving(
    argv, flag, tmp_path, monkeypatch, capsys
):
    # some mesh of the continuation ladder cannot grade finely enough for
    # the interface width lam^(-1/4); that used to surface only after the
    # solves below it
    monkeypatch.setattr(cli, "solve_heteroclinic", _unreachable)
    monkeypatch.setattr(cli, "solve_coupling", _unreachable)
    monkeypatch.setattr(cli, "continue_in_lambda", _unreachable)
    monkeypatch.setattr(cli, "solve_blowup", _unreachable)
    out = tmp_path / "run"
    assert main([*argv, "--out", str(out)]) == 1
    assert not out.exists()
    err = capsys.readouterr().err
    assert f"no mesh for {flag} at n = 8193" in err
    assert "grading too strong" in err


@pytest.mark.parametrize("config", [{"n": "1025"}, {"n": 1025.5}, {"n": True}, {"X": None}])
def test_mistyped_config_value_exits_one(config, tmp_path, capsys):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"lambda": 3.0, **config}))
    out = tmp_path / "run"
    command = "composite" if "X" in config else "solve"
    assert main([command, "--config", str(path), "--out", str(out)]) == 1
    assert not out.exists()
    assert "is not a valid" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["continue", "energy", "verify"])
@pytest.mark.parametrize("form", ["flag", "config"])
@pytest.mark.parametrize("text", ["10:inf:1", "10:1e400:1", "10:Infinity:1"])
def test_infinite_range_bound_exits_one(command, form, text, tmp_path, capsys):
    out = tmp_path / "run"
    argv = [command, "--out", str(out)]
    if form == "flag":
        argv += ["--lambda-range", text]
    else:
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"lambda_range": text}))
        argv += ["--config", str(path)]
    assert main(argv) == 1
    assert not out.exists()
    assert repr(text) in capsys.readouterr().err


def test_range_couplings_decades():
    lams = range_couplings((10.0, 1e6, 1))
    assert lams == [1e1, 1e2, 1e3, 1e4, 1e5, 1e6]
    lams = range_couplings((10.0, 100.0, 2))
    assert lams[0] == 10.0 and lams[-1] == 100.0
    assert len(lams) == 3
    # both endpoints are kept, with every grid point strictly between
    assert range_couplings((4.0, 5.0, 1)) == [4.0, 5.0]
    assert range_couplings((10.0, 15.0, 1)) == [10.0, 15.0]
    assert range_couplings((40.0, 1e3, 1)) == [40.0, 100.0, 1e3]
    assert range_couplings((10.0, 250.0, 1)) == [10.0, 100.0, 250.0]


def test_blowup_command(tmp_path):
    out = tmp_path / "run"
    code = main(["blowup", "--X", "12", "--n", "2049", "--out", str(out)])
    assert code == 0
    assert_readme_outputs("blowup", out)
    summary = read_json(out / "blowup_summary.json")
    assert summary["config"] == {"command": "blowup", "X": 12.0, "n": 2049, "out": str(out)}
    assert abs(summary["report"]["kappa"] - 0.545271399338) <= 1e-6
    assert summary["report"]["hamiltonian_dev"] <= 1e-6
    header = (out / "blowup_profile.csv").read_text().splitlines()
    assert header[0].startswith("# config:")
    assert header[1] == "x,V1,V2,dV1,dV2"
    assert len(header) == 2 + 2049


@pytest.mark.parametrize("X,nodes", [(None, 4097), (40.0, 8193)])
def test_blowup_mesh_defaults_to_the_core_mesh_rule(X, nodes, tmp_path):
    # without --n the core is solved on core_n(X) nodes, and the header
    # records that count as it records a given --n
    out = tmp_path / "run"
    argv = ["blowup"] + ([] if X is None else ["--X", str(X)])
    assert main([*argv, "--out", str(out)]) == 0
    summary = read_json(out / "blowup_summary.json")
    expected = {"command": "blowup", "X": X or 12.0, "n": nodes, "out": str(out)}
    assert summary["config"] == expected
    assert summary["report"]["n"] == nodes
    assert summary["report"]["hamiltonian_dev"] <= 1e-6
    lines = (out / "blowup_profile.csv").read_text().splitlines()
    assert json.loads(lines[0].removeprefix("# config: ")) == expected
    assert len(lines) == 2 + nodes


def test_solve_command_and_summary(tmp_path):
    out = tmp_path / "run"
    code = main(["solve", "--lambda", "3", "--n", "1025", "--out", str(out)])
    assert code == 0
    assert_readme_outputs("solve", out)
    summary = read_json(out / "solution_summary.json")
    assert summary["report"]["lambda"] == 3.0
    assert summary["report"]["newton_residual"] <= 1e-10
    # the returned solve's own count: Newton's perturbation step
    direct = solve_heteroclinic(3.0, n=1025)
    assert summary["report"]["newton_iterations"] == direct.newton_iterations
    assert summary["config"]["resolved_n"] == 1025
    assert summary["config"]["resolved_L"] == 20.0
    # written by the CLI alone, as the benchmark reference pins them
    assert summary["report"]["symmetric_dev"] == 0.0
    assert summary["report"]["pinning_dev"] == 0.0
    rows = (out / "solution.csv").read_text().splitlines()
    assert rows[1] == "z,v1,v2,dv1,dv2"
    assert len(rows) == 2 + 1025


def test_solve_inside_the_composite_window_does_not_continue(tmp_path, monkeypatch):
    # 10 <= lam and ln(lam) <= 15 is seeded from the composite on the mesh
    # ladder, with no continuation from 3
    def no_continuation(*args, **kwargs):
        raise AssertionError("continuation used for lam = 50")

    monkeypatch.setattr(cli, "continue_in_lambda", no_continuation)
    out = tmp_path / "run"
    code = main(["solve", "--lambda", "50", "--n", "1025", "--out", str(out)])
    assert code == 0
    summary = read_json(out / "solution_summary.json")
    assert summary["report"]["lambda"] == 50.0
    # n=1025 keeps this test fast; the deviation is mesh-limited there
    assert summary["report"]["hamiltonian_dev"] <= 1e-4
    assert summary["report"]["newton_residual"] <= 1e-10
    # the composite is an approximation, so Newton takes at least one step
    assert summary["report"]["newton_iterations"] >= 1


def test_solve_beyond_the_core_window_widens_the_core(tmp_path, monkeypatch):
    # ln(1e7) = 16.1 exceeds the core half-width 15: the composite comes
    # from a core on [-17, 17], and no continuation from 3 is made
    def no_continuation(*args, **kwargs):
        raise AssertionError("continuation used for lam = 1e7")

    calls = []

    def recording(**kwargs):
        calls.append(kwargs)
        return solve_blowup(**kwargs)

    monkeypatch.setattr(cli, "continue_in_lambda", no_continuation)
    monkeypatch.setattr(cli, "solve_blowup", recording)
    out = tmp_path / "run"
    code = main(["solve", "--lambda", "1e7", "--L", "30", "--n", "1025", "--out", str(out)])
    assert code == 0
    assert calls == [{"X": 17.0, "n": 4097}]
    summary = read_json(out / "solution_summary.json")
    assert summary["report"]["lambda"] == 1e7
    # every mesh of the ladder is on the given [-L, L]
    assert summary["config"]["resolved_L"] == 30.0
    assert summary["report"]["hamiltonian_dev"] <= 1e-4
    assert summary["report"]["newton_residual"] <= 1e-10


def test_energy_beyond_the_core_window_reads_I1_on_X(tmp_path, monkeypatch):
    # the seed's core is on [-17, 17]; I1 comes from the core on --X, as
    # for every coupling of a sweep, so both commands give the same row
    calls = []

    def recording(**kwargs):
        calls.append(kwargs)
        return solve_blowup(**kwargs)

    monkeypatch.setattr(cli, "solve_blowup", recording)
    one, swept = tmp_path / "one", tmp_path / "swept"
    assert main(["energy", "--lambda", "1e7", "--out", str(one)]) == 0
    assert [c["X"] for c in calls] == [17.0, 15.0]
    assert main(["energy", "--lambda-range", "10:1e7:1", "--out", str(swept)]) == 0
    (report,) = read_json(one / "energy.json")["report"]
    row = read_json(swept / "energy.json")["report"][-1]
    assert report["lam"] == row["lam"] == 1e7
    assert report["I1"] == row["I1"]
    for key in ("sigma_gradient", "sigma_full", "first_order", "residual"):
        assert abs(report[key] - row[key]) <= 1e-11


def test_solve_at_the_largest_checked_coupling_widens_the_core_mesh(tmp_path):
    # ln(1e33) = 75.98 is inside the mesh limit at --n 2041 (76.11), and
    # its core on [-76, 76] needs 16385 nodes
    out = tmp_path / "run"
    assert main(["solve", "--lambda", "1e33", "--n", "2041", "--out", str(out)]) == 0
    assert read_json(out / "solution_summary.json")["report"]["newton_residual"] <= 1e-10


def test_composite_command_solves_the_core_once(tmp_path, monkeypatch):
    # the core profile that seeds the solve is the one the errors are
    # measured against
    calls = []

    def recording(**kwargs):
        calls.append(kwargs)
        return solve_blowup(**kwargs)

    monkeypatch.setattr(cli, "solve_blowup", recording)
    out = tmp_path / "run"
    assert main(["composite", "--lambda", "1e4", "--n", "1025", "--out", str(out)]) == 0
    assert calls == [{"X": 15.0, "n": 4097}]


# couplings at which the composite-seeded ladder is checked against the
# decade climb from 3, on the default 8193-node mesh; from 1e7 up
# ln(lam) exceeds 15 and the core is widened to its ceiling
AGREEMENT = (15.0, 1e2, 1e3, 1e4, 1e6, 1e7, 1e16, 1e30)


def decade_climb(targets, n):
    """An independent route to the branch: from the lam = 3 solve on the
    coarsest mesh of mesh_ladder(n), each solve there is seeded from the
    one before at most a decade below, and correct_on_ladder carries the
    one at each target to n nodes. No step is halved."""
    coarse, branch = solve_heteroclinic(3.0, n=mesh_ladder(n)[0]), {}
    for target in targets:
        while coarse.lam < target:
            lam = min(10.0 * coarse.lam, target)
            coarse = solve_heteroclinic(
                lam, n=coarse.n, init=(coarse.grid.nodes, coarse.v1)
            )
        branch[target] = correct_on_ladder(coarse, n)[0]
    return branch


@pytest.fixture(scope="module")
def branch_8193():
    return decade_climb(AGREEMENT, 8193)


@pytest.mark.parametrize("lam", [15.0, 1e2, 1e4, 1e6, 1e7, 1e16, 1e30])
def test_composite_ladder_agrees_with_continuation(lam, branch_8193):
    # the paper's construction (composite seed, Newton on the mesh ladder)
    # and the decade climb from 3 reach the same discrete solution, both
    # at the rounding floor
    cfg = argparse.Namespace(n=8193, L=None, seed=None)
    sol, profile = cli._solve_at(cfg, lam, 15.0)
    branch = branch_8193[lam]
    assert profile.X == max(15.0, math.ceil(math.log(lam)))
    assert np.array_equal(sol.grid.nodes, branch.grid.nodes)
    assert np.max(np.abs(sol.v1 - branch.v1)) <= 1e-11
    assert sol.newton_residual <= 2.0 * branch.newton_residual
    # the floor rises with the grading: 1.5e-12 at 1e16, 1.5e-11 at 1e30
    assert branch.newton_residual <= (1e-12 if lam <= 1e7 else 1e-10)


def test_composite_ladder_on_a_given_L_agrees_with_continuation(branch_8193):
    # --L 25: every mesh of the ladder is on [-25, 25]. The climb's end
    # point is carried onto the same meshes by the same ladder
    lam, n = 1e3, 8193
    sol, _ = cli._solve_at(argparse.Namespace(n=n, L=25.0, seed=None), lam, 15.0)
    end = branch_8193[lam]
    coarse = solve_heteroclinic(lam, n=mesh_ladder(n)[0], L=25.0, init=(end.grid.nodes, end.v1))
    moved, _ = correct_on_ladder(coarse, n)
    assert sol.L == moved.L == 25.0
    assert np.array_equal(sol.grid.nodes, moved.grid.nodes)
    assert np.max(np.abs(sol.v1 - moved.v1)) <= 1e-11
    assert sol.newton_residual <= 1e-12 and moved.newton_residual <= 1e-12


def test_solve_below_two_is_a_direct_solve(tmp_path, monkeypatch):
    # every coupling below 10 is a direct solve from the explicit seed;
    # continuation only climbs from 3 to couplings beyond the composite
    # window
    def no_continuation(*args, **kwargs):
        raise AssertionError("continuation used for lam = 1.5")

    monkeypatch.setattr(cli, "continue_in_lambda", no_continuation)
    out = tmp_path / "run"
    assert main(["solve", "--lambda", "1.5", "--n", "1025", "--out", str(out)]) == 0
    _, v1, v2 = read_seed_csv(out / "solution.csv")
    direct = solve_heteroclinic(1.5, n=1025)
    assert np.array_equal(v1, direct.v1) and np.array_equal(v2, direct.v2)


def test_continue_command(tmp_path):
    out = tmp_path / "run"
    code = main(
        ["continue", "--lambda-range", "10:100:1", "--n", "1025", "--out", str(out)]
    )
    assert code == 0
    assert_readme_outputs("continue", out)
    rows = (out / "trace.csv").read_text().splitlines()
    assert rows[1] == (
        "lambda,newton_residual,hamiltonian_dev,sigma_lambda,"
        "crossing_value,min_component"
    )
    lams = [float(r.split(",")[0]) for r in rows[2:]]
    assert lams[0] == 3.0 and lams[-1] == 100.0
    assert all(b > a for a, b in zip(lams, lams[1:]))
    summary = read_json(out / "trace_summary.json")
    assert summary["report"]["final_lambda"] == 100.0
    assert summary["report"]["points"] == len(lams)
    steps = summary["report"]["steps"]
    assert [(s["from"], s["to"]) for s in steps] == list(zip(lams, lams[1:]))
    assert all(s["iterations"] >= 1 and "halvings" not in s for s in steps)
    assert "total_halvings" not in summary["report"]
    # n = 1025 has no coarser mesh: its quarter would have 257 nodes
    assert all(s["coarse_iterations"] == [] for s in steps)


def test_composite_command(tmp_path):
    out = tmp_path / "run"
    code = main(
        ["composite", "--lambda", "30", "--X", "12", "--n", "1025", "--out", str(out)]
    )
    assert code == 0
    assert_readme_outputs("composite", out)
    report = read_json(out / "error_report.json")["report"]
    assert report["lam"] == 30.0
    assert report["inner_sup"] > 0.0
    rows = (out / "composite.csv").read_text().splitlines()
    assert rows[1] == "z,v1,v2,approx1,approx2"


def test_spectrum_command(tmp_path):
    out = tmp_path / "run"
    code = main(["spectrum", "--lambda", "3", "--n", "1025", "--out", str(out)])
    assert code == 0
    assert_readme_outputs("spectrum", out)
    report = read_json(out / "spectrum.json")["report"]
    assert abs(report["lambda2"] - 1.5) <= 1e-3
    assert abs(report["lambda1"]) <= 1e-3
    assert report["alignment"] >= 0.999
    # written by the CLI alone, as the benchmark reference pins it
    assert report["essential_edge_estimate"] is None
    # the certificate: two bound states below the essential edge 2
    assert report["inertia_count"] == 2
    assert report["inertia_shift"] == 2.0
    assert report["lambda2"] < report["inertia_shift"]
    assert 0.0 < report["max_residual"] <= 1e-6
    assert report["solves"] > 0
    rows = (out / "modes.csv").read_text().splitlines()
    assert rows[1] == "z,phi1_1,phi2_1,phi1_2,phi2_2"


def test_energy_range_command(tmp_path):
    out = tmp_path / "run"
    code = main(
        [
            "energy",
            "--lambda-range",
            "10:100:1",
            "--X",
            "12",
            "--n",
            "1025",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    assert_readme_outputs("energy", out)
    rows = (out / "energy.csv").read_text().splitlines()
    assert rows[1] == "lambda,sigma,first_order,residual"
    assert len(rows) == 2 + 2
    reports = read_json(out / "energy.json")["report"]
    assert [r["lam"] for r in reports] == [10.0, 100.0]


def test_rerun_is_byte_identical(tmp_path):
    out = tmp_path / "run"
    argv = ["solve", "--lambda", "3", "--n", "1025", "--out", str(out)]
    assert main(argv) == 0
    first_csv = (out / "solution.csv").read_bytes()
    first_json = (out / "solution_summary.json").read_bytes()
    assert main(argv) == 0
    assert (out / "solution.csv").read_bytes() == first_csv
    assert (out / "solution_summary.json").read_bytes() == first_json


def test_spectrum_bytes_independent_of_command_order(tmp_path):
    out = tmp_path / "spec"
    argv = ["spectrum", "--lambda", "3", "--n", "1025", "--out", str(out)]
    assert main(argv) == 0
    first = {p.name: p.read_bytes() for p in out.iterdir()}
    assert main(["solve", "--lambda", "50", "--n", "1025", "--out", str(tmp_path / "s")]) == 0
    assert main(argv) == 0
    assert {p.name: p.read_bytes() for p in out.iterdir()} == first


def test_config_file_merge_and_flag_override(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"lambda": 3.0, "n": 2049}))
    out = tmp_path / "run"
    code = main(
        ["solve", "--config", str(cfg), "--n", "1025", "--out", str(out)]
    )
    assert code == 0
    summary = read_json(out / "solution_summary.json")
    assert summary["config"]["lam"] == 3.0  # from the file
    assert summary["config"]["n"] == 1025  # flag wins over the file
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"lambda": 3.0, "bogus": 1}))
    assert main(["solve", "--config", str(bad), "--out", str(out)]) == 1


# field -> strategy of (flag text, JSON config value, resolved value)
_FLOAT = st.floats(1.5, 1e6).map(lambda v: (repr(v), v, v))
_PATH = st.text("abcxyz019_./", min_size=1, max_size=12).map(lambda v: (v, v, v))


@st.composite
def _lambda_range(draw):
    a, b = draw(st.floats(1.01, 1e6)), draw(st.floats(1.01, 1e6))
    value = (min(a, b), max(a, b), draw(st.integers(1, 5)))
    text = "{!r}:{!r}:{}".format(*value)
    return text, text, value


FIELD_VALUES = {
    "lam": _FLOAT,
    "lam_range": _lambda_range(),
    "X": _FLOAT,
    "L": _FLOAT,
    "n": st.integers(513, 10**6).map(lambda v: (str(v), v, v)),
    "tol": _FLOAT,
    "out": _PATH,
    "seed": _PATH,
    "variant": st.sampled_from(["leading", "shifted"]).map(lambda v: (v, v, v)),
}


def _config_key(field):
    return cli._FLAGS[field][0].lstrip("-").replace("-", "_")


@settings(max_examples=150, deadline=None)
@given(command=st.sampled_from(sorted(cli._COMMAND_FIELDS)), data=st.data())
def test_resolve_takes_flag_over_config_over_default(command, data, tmp_path_factory):
    # each field comes from the table default, the config, a flag, or both
    path = tmp_path_factory.getbasetemp() / "merge.json"
    config, argv, expected = {}, [command], {}
    for field, default in cli._COMMAND_FIELDS[command].items():
        source = data.draw(st.sampled_from(["default", "config", "flag", "both"]), label=field)
        expected[field] = default
        if source in ("config", "both"):
            _, value, expected[field] = data.draw(FIELD_VALUES[field])
            config[_config_key(field)] = value
        if source in ("flag", "both"):
            text, _, expected[field] = data.draw(FIELD_VALUES[field])
            argv += [cli._FLAGS[field][0], text]
    path.write_text(json.dumps(config))
    args = cli._build_parser().parse_args([*argv, "--config", str(path)])
    assert vars(cli._resolve(args)) == {"command": command, **expected}


@settings(max_examples=60, deadline=None)
@given(command=st.sampled_from(sorted(cli._COMMAND_FIELDS)), data=st.data())
def test_config_key_outside_the_command_exits_one(command, data, tmp_path_factory):
    path = tmp_path_factory.getbasetemp() / "unread.json"
    out = tmp_path_factory.getbasetemp() / "unread"
    reads = cli._COMMAND_FIELDS[command]
    config = {
        _config_key(f): data.draw(FIELD_VALUES[f])[1]
        for f in data.draw(st.lists(st.sampled_from(sorted(reads)), unique=True))
    }
    field = data.draw(st.sampled_from(sorted(set(cli._FLAGS) - set(reads))))
    config[_config_key(field)] = data.draw(FIELD_VALUES[field])[1]
    path.write_text(json.dumps(config))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        assert main([command, "--config", str(path), "--out", str(out)]) == 1
    assert not out.exists()
    assert f"does not read config key {_config_key(field)!r}" in err.getvalue()


def test_config_range_goes_through_the_flag_conversion(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"lambda_range": "10:100:1", "n": 1025}))
    out = tmp_path / "run"
    assert main(["continue", "--config", str(cfg), "--out", str(out)]) == 0
    config = read_json(out / "trace_summary.json")["config"]
    assert config == {
        "command": "continue", "lam_range": [10.0, 100.0, 1], "n": 1025, "out": str(out),
    }


@pytest.mark.parametrize("command", ["solve", "spectrum"])
def test_domain_flag_holds_after_continuation(command, tmp_path):
    # --L sets the domain of the reported solution: at 1e3 the
    # composite-seeded ladder solves on [-L, L] throughout (the default
    # half-width is 20.77 there); a widened core at 1e7 is checked by
    # test_solve_beyond_the_core_window_widens_the_core
    out = tmp_path / "run"
    argv = [command, "--lambda", "1e3", "--L", "30", "--n", "1025", "--out", str(out)]
    assert main(argv) == 0
    if command == "solve":
        assert read_json(out / "solution_summary.json")["config"]["resolved_L"] == 30.0
    else:
        assert read_json(out / "spectrum.json")["report"]["L"] == 30.0


@pytest.mark.parametrize("command", ["continue", "energy"])
@pytest.mark.parametrize(
    "lam_range,message",
    [
        ("2:100:1", "coupling 2 lies below the seed coupling 3"),
        ("3:3:1", "must reach above the seed coupling 3"),
    ],
)
def test_sweep_that_does_not_climb_from_the_seed_exits_one(
    command, lam_range, message, tmp_path, capsys
):
    out = tmp_path / "run"
    argv = [command, "--lambda-range", lam_range, "--n", "1025", "--out", str(out)]
    assert main(argv) == 1
    assert not out.exists()
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("command", ["continue", "energy"])
def test_sweep_from_the_seed_coupling_reports_it(command, tmp_path):
    # lam = 3 is the solve every sweep starts from
    out = tmp_path / "run"
    argv = [command, "--lambda-range", "3:10:1", "--n", "1025", "--out", str(out)]
    assert main(argv) == 0
    name = "energy.csv" if command == "energy" else "trace.csv"
    rows = (out / name).read_text().splitlines()[2:]
    assert [float(r.split(",")[0]) for r in rows] == [3.0, 10.0]


def test_usage_errors_exit_one(tmp_path, capsys):
    assert main(["solve", "--bogus"]) == 1
    assert main(["blowup", "--X", "3", "--out", str(tmp_path)]) == 1
    assert main(["solve", "--lambda", "1.0", "--n", "1025", "--out", str(tmp_path)]) == 1
    assert main(["continue", "--lambda-range", "ten:100:1", "--out", str(tmp_path)]) == 1
    assert main(["solve", "--out", str(tmp_path)]) == 1  # missing --lambda
    capsys.readouterr()


def test_even_node_count_exits_one(tmp_path, capsys):
    # the interface mesh needs a node at z = 0
    out = tmp_path / "run"
    assert main(["solve", "--lambda", "3", "--n", "8192", "--out", str(out)]) == 1
    assert not out.exists()
    err = capsys.readouterr().err
    assert "odd n" in err and "n=8192" in err


def test_nonconvergence_exits_two(tmp_path, capsys):
    seed = tmp_path / "flat.csv"
    z = np.linspace(-25.0, 25.0, 41)
    flat = np.full(41, 0.5)
    write_csv(seed, {"z": z, "v1": flat, "v2": flat}, config={})
    code = main(
        [
            "solve",
            "--lambda",
            "300",
            "--n",
            "1025",
            "--seed",
            str(seed),
            "--out",
            str(tmp_path / "run"),
        ]
    )
    assert code == 2
    assert "solve" in capsys.readouterr().err


# the numerical entry point of each command, as cli names it
ENTRY_POINT = {
    "blowup": "solve_blowup",
    "solve": "solve_coupling",
    "continue": "continue_in_lambda",
    "composite": "measure_errors",
    "spectrum": "nondegeneracy_report",
    "energy": "expansion_residual",
    "verify": "run_verification",
}


@pytest.mark.parametrize("command", sorted(ENTRY_POINT))
def test_numerical_failure_writes_nothing(command, tmp_path, monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise NonConvergenceError(iterations=7, best_residual=1.0)

    monkeypatch.setattr(cli, ENTRY_POINT[command], fail)
    out = tmp_path / "run"
    assert main([command, *NEEDS[command], "--n", "1025", "--out", str(out)]) == 2
    assert not out.exists()
    assert "Newton did not converge after 7 iterations" in capsys.readouterr().err


def test_singular_inertia_pivot_exits_two(tmp_path, monkeypatch, capsys):
    # count_below raises SingularSystemError when mu is numerically an
    # eigenvalue: a numerical failure, not a traceback with the usage code
    def singular(S, mu):
        raise SingularSystemError(7, f"singular pivot at node 7 in the inertia count of S - {mu!r} I")

    monkeypatch.setattr(spectrum, "count_below", singular)
    out = tmp_path / "run"
    assert main(["spectrum", "--lambda", "3", "--n", "1025", "--out", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("beclab spectrum: singular pivot at node 7")


def test_blowup_coarse_mesh_exits_two_naming_n(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["blowup", "--n", "1025", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "first-integral deviation" in err
    assert "n=1025, X=12" in err and "refine the core mesh" in err


def test_seeded_solve_succeeds(tmp_path):
    seed = tmp_path / "seed.csv"
    z = np.linspace(-20.0, 20.0, 201)
    v1, v2 = explicit_lambda3(z)
    write_csv(seed, {"z": z, "v1": v1, "v2": v2}, config={})
    out = tmp_path / "run"
    code = main(
        [
            "solve",
            "--lambda",
            "3.5",
            "--n",
            "1025",
            "--seed",
            str(seed),
            "--out",
            str(out),
        ]
    )
    assert code == 0
    summary = read_json(out / "solution_summary.json")
    assert summary["report"]["lambda"] == 3.5


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_non_finite_seed_exits_one_before_solving(bad, tmp_path, monkeypatch, capsys):
    seed = tmp_path / "seed.csv"
    z = np.linspace(-20.0, 20.0, 201)
    v1, v2 = explicit_lambda3(z)
    v1[100] = float(bad)
    write_csv(seed, {"z": z, "v1": v1, "v2": v2}, config={})
    solves = []
    monkeypatch.setattr(cli, "solve_heteroclinic", lambda *a, **k: solves.append(a))
    out = tmp_path / "run"
    argv = ["solve", "--lambda", "5", "--n", "1025", "--seed", str(seed), "--out", str(out)]
    assert main(argv) == 1
    assert solves == [] and not out.exists()
    err = capsys.readouterr().err
    assert str(seed) in err and "column 'v1' has a non-finite value" in err


def test_seeded_solve_starts_from_v1_and_its_mirror(tmp_path, monkeypatch):
    # an off-centre seed whose v2 column is not v1 mirrored: Newton starts
    # from the file's v1 resampled onto the mesh and that resample mirrored
    z = np.linspace(-25.0, 21.0, 301)
    v1, _ = explicit_lambda3(z - 0.7)
    seed = tmp_path / "seed.csv"
    write_csv(seed, {"z": z, "v1": v1, "v2": 1.0 - v1}, config={})
    starts = []
    real = heteroclinic.newton_solve

    def recording(residual, jacobian, init):
        starts.append(init.copy())
        return real(residual, jacobian, init)

    monkeypatch.setattr(heteroclinic, "newton_solve", recording)
    out = tmp_path / "run"
    argv = ["solve", "--lambda", "3.5", "--n", "1025", "--seed", str(seed), "--out", str(out)]
    assert main(argv) == 0
    nodes = default_grid(3.5, default_domain_halfwidth(3.5), 1025).nodes
    start = np.clip(resample(z, v1, np.clip(nodes, z[0], z[-1])), 0.0, 1.0)
    start[0], start[-1] = 0.0, 1.0
    u = np.stack((start, start[::-1]), axis=1)[1:-1].ravel()  # [v1_1, v2_1, ...]
    assert len(starts) == 1
    assert np.array_equal(starts[0], u[: u.size // 2])


def test_verify_defaults_are_run_verifications(tmp_path, monkeypatch, capsys):
    # `beclab verify` with no flags computes what run_verification() does
    # at its defaults: the benchmark times the one, the ROADMAP the other
    calls = []

    def recording(**kwargs):
        calls.append(kwargs)
        raise NonConvergenceError(iterations=0, best_residual=1.0)

    monkeypatch.setattr(cli, "run_verification", recording)
    assert main(["verify", "--out", str(tmp_path / "run")]) == 2
    capsys.readouterr()
    (kwargs,) = calls
    library = inspect.signature(run_verification).parameters
    assert set(kwargs) == set(library)
    assert library["lams"].default is None
    assert tuple(sorted(kwargs.pop("lams"))) == default_sweep()
    assert kwargs == {name: library[name].default for name in kwargs}


def test_verify_precondition_exit_one(tmp_path, capsys):
    code = main(
        ["verify", "--lambda-range", "10:100:1", "--out", str(tmp_path / "run")]
    )
    assert code == 1
    assert "verify" in capsys.readouterr().err


def test_verify_scale_zero_fails_all(tmp_path, capsys):
    out = tmp_path / "run"
    code = main(["verify", "--tol", "0", "--n", "2049", "--out", str(out)])
    assert code == 3
    assert_readme_outputs("verify", out)
    captured = capsys.readouterr()
    assert "[FAIL]" in captured.out
    assert "[PASS]" not in captured.out
    verdict = read_json(out / "verdict.json")["report"]
    assert verdict["passed"] is False
    assert len(verdict["criteria"]) == 10
    assert all(not c["passed"] for c in verdict["criteria"])
    for name in ("energy", "errors", "spectrum"):
        assert (out / f"verify_{name}.csv").exists()


def test_verify_default_passes(tmp_path, capsys):
    out = tmp_path / "run"
    code = main(["verify", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out.count("[PASS]") == 10
    verdict = read_json(out / "verdict.json")["report"]
    assert verdict["passed"] is True


def test_version_flag(capsys):
    assert main(["--version"]) == 0
    assert "beclab" in capsys.readouterr().out
