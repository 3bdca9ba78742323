from __future__ import annotations

import json
import re
from pathlib import Path

import numpy as np
import pytest

from beclab import cli
from beclab.cli import main, range_couplings
from beclab.runio import write_csv
from beclab.heteroclinic import explicit_lambda3


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


@pytest.mark.parametrize("config", [{"n": "1025"}, {"n": 1025.5}, {"n": True}, {"X": None}])
def test_mistyped_config_value_exits_one(config, tmp_path, capsys):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"lambda": 3.0, **config}))
    out = tmp_path / "run"
    command = "composite" if "X" in config else "solve"
    assert main([command, "--config", str(path), "--out", str(out)]) == 1
    assert not out.exists()
    assert "is not a valid" in capsys.readouterr().err


def test_range_couplings_decades():
    lams = range_couplings((10.0, 1e6, 1))
    assert lams == [1e1, 1e2, 1e3, 1e4, 1e5, 1e6]
    lams = range_couplings((10.0, 100.0, 2))
    assert lams[0] == 10.0 and lams[-1] == 100.0
    assert len(lams) == 3


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


def test_solve_command_and_summary(tmp_path):
    out = tmp_path / "run"
    code = main(["solve", "--lambda", "3", "--n", "1025", "--out", str(out)])
    assert code == 0
    assert_readme_outputs("solve", out)
    summary = read_json(out / "solution_summary.json")
    assert summary["report"]["lambda"] == 3.0
    assert summary["report"]["newton_residual"] <= 1e-10
    assert summary["config"]["resolved_n"] == 1025
    assert summary["config"]["resolved_L"] == 20.0
    rows = (out / "solution.csv").read_text().splitlines()
    assert rows[1] == "z,v1,v2,dv1,dv2"
    assert len(rows) == 2 + 1025


def test_solve_routes_through_continuation(tmp_path):
    # lam outside the direct window is reached by continuation from 3
    out = tmp_path / "run"
    code = main(["solve", "--lambda", "50", "--n", "1025", "--out", str(out)])
    assert code == 0
    summary = read_json(out / "solution_summary.json")
    assert summary["report"]["lambda"] == 50.0
    # n=1025 keeps this test fast; the deviation is mesh-limited there
    assert summary["report"]["hamiltonian_dev"] <= 1e-4
    assert summary["report"]["newton_residual"] <= 1e-10


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
    assert report["essential_edge_estimate"] is None  # NaN serialized as null
    # the certificate: four eigenvalues below a shift above lambda2
    assert report["inertia_count"] == 4
    assert report["lambda2"] < report["inertia_shift"]
    assert 0.0 < report["max_residual"] <= 1e-6
    rows = (out / "modes.csv").read_text().splitlines()
    assert rows[1] == "z,phi1_1,phi2_1,phi1_2,phi2_2,phi1_3,phi2_3,phi1_4,phi2_4"


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


def test_config_range_goes_through_the_flag_conversion(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"lambda_range": "10:100:1", "n": 1025}))
    out = tmp_path / "run"
    assert main(["continue", "--config", str(cfg), "--out", str(out)]) == 0
    config = read_json(out / "trace_summary.json")["config"]
    assert config == {
        "command": "continue", "lam_range": [10.0, 100.0, 1], "n": 1025, "out": str(out),
    }


def test_usage_errors_exit_one(tmp_path, capsys):
    assert main(["solve", "--bogus"]) == 1
    assert main(["blowup", "--X", "3", "--out", str(tmp_path)]) == 1
    assert main(["solve", "--lambda", "1.0", "--n", "1025", "--out", str(tmp_path)]) == 1
    assert main(["continue", "--lambda-range", "ten:100:1", "--out", str(tmp_path)]) == 1
    assert main(["solve", "--out", str(tmp_path)]) == 1  # missing --lambda
    capsys.readouterr()


def test_nonconvergence_exits_two(tmp_path, capsys):
    seed = tmp_path / "flat.csv"
    z = np.linspace(-25.0, 25.0, 41)
    flat = np.full(41, 0.5)
    write_csv(seed, {"z": z, "v1": flat, "v2": flat})
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


def test_seeded_solve_succeeds(tmp_path):
    seed = tmp_path / "seed.csv"
    z = np.linspace(-20.0, 20.0, 201)
    v1, v2 = explicit_lambda3(z)
    write_csv(seed, {"z": z, "v1": v1, "v2": v2})
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
