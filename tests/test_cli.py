"""Command-line interface: reports, exit codes, round-trips, determinism."""

from __future__ import annotations

import json

import numpy as np
import pytest

from liewedge.cli import (SystemFileError, format_system_file, main,
                          parse_system_file)
from liewedge.lindblad import ControlSystem

QUBIT_FILE = """\
# phase damping with one transverse control
rep qubit
drift z
control x
lindblad z 0.4
samples 240
"""

R3_FILE = """\
rep r3
drift z
control y
lindblad diag:1,0,1 1.0
"""


@pytest.fixture
def qubit_path(tmp_path):
    p = tmp_path / "qubit.sys"
    p.write_text(QUBIT_FILE)
    return str(p)


@pytest.fixture
def r3_path(tmp_path):
    p = tmp_path / "r3.sys"
    p.write_text(R3_FILE)
    return str(p)


def test_example_two_report(capsys):
    assert main(["example", "2"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["schema"] == "liewedge-report/1"
    assert report["edge_dim"] == 1
    assert report["wedge_dim"] == 4
    assert report["saturation"]["converged"] is True
    assert report["conditions"]["holds_WH"] is True
    assert len(report["cone_samples"]) == report["cone"]["n_generators"]


def test_example_output_is_deterministic(capsys):
    assert main(["example", "2"]) == 0
    first = capsys.readouterr().out
    assert main(["example", "2"]) == 0
    assert capsys.readouterr().out == first


def test_figdata_2a_matches_analytic_curve(capsys):
    assert main(["figdata", "2a", "--theta-steps", "24"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "theta,c_Hx,c_Hz,c_Gamma0"
    assert len(lines) == 25
    for row in lines[1:]:
        theta, chx, chz, cg = (float(v) for v in row.split(","))
        assert abs(chx - np.sin(theta)) < 1e-12
        assert abs(chz - np.cos(theta)) < 1e-12
        assert abs(cg - 1.0) < 1e-12


def test_figdata_2b_matches_analytic_curve(capsys):
    assert main(["figdata", "2b", "--theta-steps", "16"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "theta,c_Hy,c_Hz,c_Gamma0"
    for row in lines[1:]:
        theta, chy, chz, cg = (float(v) for v in row.split(","))
        assert abs(chy) < 1e-12
        assert abs(chz - np.cos(theta)) < 1e-12
        assert abs(cg - 1.0) < 1e-12


def test_figdata_3_matches_analytic_curve(capsys):
    assert main(["figdata", "3", "--theta-steps", "16"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "theta,c_Hx,c_Hz,c_py,c_Delta,c_Gamma0"
    for row in lines[1:]:
        theta, chx, chz, cpy, cd, cg = (float(v) for v in row.split(","))
        assert abs(chx - np.sin(theta)) < 1e-12
        assert abs(chz - np.cos(theta)) < 1e-12
        assert abs(cpy - 0.5 * np.sin(2 * theta)) < 1e-12
        assert abs(cd - 0.5 * (1 - np.cos(2 * theta))) < 1e-12
        assert abs(cg - (11 + np.cos(2 * theta)) / 12.0) < 1e-12


@pytest.mark.parametrize("flags, message", [
    (["--gamma", "0"], "gamma must be positive and finite, got 0.0"),
    (["--gamma", "-1"], "gamma must be positive and finite, got -1.0"),
    (["--gamma", "inf"], "gamma must be positive and finite, got inf"),
    (["--theta-steps", "0"], "theta-steps must be at least 1, got 0"),
    (["--theta-steps", "-3"], "theta-steps must be at least 1, got -3"),
], ids=["gamma-zero", "gamma-negative", "gamma-inf", "steps-zero", "steps-negative"])
def test_figdata_rejects_bad_input_before_the_header(flags, message, capsys):
    capsys.readouterr()
    assert main(["figdata", "2a", *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_channel_identity_limit(capsys):
    assert main(["channel", "phase_flip", "--gamma", "0", "--t", "1"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["kraus"]["rank"] == 1
    ops = report["kraus"]["operators"]
    assert len(ops) == 1
    assert report["cptp_audit"]["is_tp"] and report["cptp_audit"]["is_cp"]


def test_channel_flip_rank_two(capsys):
    assert main(["channel", "bit_flip", "--gamma", "0.5", "--t", "0.7"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["kraus"]["rank"] == 2


def test_channel_without_kraus_family(capsys):
    assert main(["channel", "example1"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["kraus"] is None
    assert "kraus_unavailable" in report


def test_wedge_subcommand(qubit_path, capsys):
    assert main(["wedge", "--system", qubit_path]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["edge_dim"] == 1
    assert report["saturation"]["orbit_samples"] == 240  # file option wins
    assert report["wedge_dim"] == 6


def test_conditions_subcommand(r3_path, capsys):
    assert main(["conditions", "--system", r3_path]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["conditions"]["dim_kc"] == 1
    assert report["conditions"]["holds_WH"] is True


def test_semialgebra_subcommand(r3_path, capsys):
    assert main(["semialgebra", "--system", r3_path, "--pairs", "40"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] in ("witness-found", "no-counterexample-found")
    if report["verdict"] == "witness-found":
        assert report["witness"]["residual"] > 0


def test_reachable_subcommand(qubit_path, capsys):
    assert main(["reachable", "--system", qubit_path, "--switches", "3",
                 "--count", "5"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["samples"]["all_cptp"] is True
    assert report["contraction_audit"]["monotone"] is True


def test_reachable_rejects_a_zero_count(qubit_path, capsys):
    capsys.readouterr()
    assert main(["reachable", "--system", qubit_path, "--switches", "2",
                 "--count", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: count must be at least 1, got 0\n"


def test_exit_codes_for_bad_input(tmp_path, capsys):
    bad = tmp_path / "bad.sys"
    bad.write_text("rep r3\ndrift q\n")
    assert main(["wedge", "--system", str(bad)]) == 2
    assert main(["wedge", "--system", str(tmp_path / "missing.sys")]) == 2
    assert main(["channel", "no_such_channel"]) == 2
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_parse_rejects_malformed_files():
    with pytest.raises(SystemFileError):
        parse_system_file("drift z\n")  # rep must come first
    with pytest.raises(SystemFileError):
        parse_system_file("rep r3\nlindblad diag:1,0,1 fast\n")
    with pytest.raises(SystemFileError):
        parse_system_file("rep qubit\nfrequency 3\n")
    with pytest.raises(SystemFileError):
        parse_system_file("rep r3\nlindblad diag:1,0,1 -2.0\n")


def test_system_file_round_trip_is_bit_exact():
    sys1, opt1 = parse_system_file(QUBIT_FILE)
    out1 = format_system_file(sys1, opt1)
    sys2, opt2 = parse_system_file(out1)
    assert format_system_file(sys2, opt2) == out1
    assert opt2 == opt1
    assert np.array_equal(np.asarray(sys1.drift_H), np.asarray(sys2.drift_H))


def test_system_file_round_trip_random_complex():
    rng = np.random.default_rng(17)
    h = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    h = (h + h.conj().T) / 2.0
    v = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    v = (v + v.conj().T) / 2.0
    sys1 = ControlSystem(rep="qubit", drift_H=h, controls=(h / 3.0,),
                         lindblad_ops=((v, 0.987654321012345),))
    text = format_system_file(sys1)
    sys2, _ = parse_system_file(text)
    assert np.array_equal(np.asarray(sys1.drift_H), np.asarray(sys2.drift_H))
    assert np.array_equal(np.asarray(sys1.controls[0]),
                          np.asarray(sys2.controls[0]))
    assert sys1.lindblad_ops[0][1] == sys2.lindblad_ops[0][1]
    assert format_system_file(sys2) == text


def test_floats_are_emitted_at_full_precision(capsys):
    assert main(["figdata", "2a", "--theta-steps", "7"]) == 0
    out = capsys.readouterr().out
    row = out.strip().splitlines()[2]
    theta = row.split(",")[0]
    assert float(theta) == 2.0 * np.pi / 7.0
    assert len(theta.replace(".", "").replace("-", "")) >= 17


def _expect_usage_error(argv, message, capsys):
    capsys.readouterr()
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("text, message", [
    ("rep qubit\ndrift [[NaN,0],[0,0]]\n",
     "invalid system: drift has non-finite entries"),
    ("rep qubit\ndrift z\ncontrol [[0,Infinity],[Infinity,0]]\n",
     "invalid system: control has non-finite entries"),
    ("rep qubit\ndrift z\nlindblad [[NaN,0],[0,0]] 0.4\n",
     "invalid system: noise operator has non-finite entries"),
    ("rep qubit\ndrift z\ncontrol x\nlindblad z nan\n",
     "invalid system: non-finite rate nan"),
    ("rep r3\ndrift z\ncontrol y\nlindblad diag:1,0,1 inf\n",
     "invalid system: non-finite rate inf"),
], ids=["drift-nan", "control-inf", "noise-nan", "rate-nan", "r3-rate-inf"])
@pytest.mark.parametrize("command", ["wedge", "conditions"])
def test_system_files_with_non_finite_numbers_are_rejected(tmp_path, text, message,
                                                           command, capsys):
    path = tmp_path / "bad.sys"
    path.write_text(text)
    _expect_usage_error([command, "--system", str(path)], message, capsys)


@pytest.mark.parametrize("text, message", [
    ("rep qubit\ndrift z\ncontrol [[1,0,0],[0,1,0],[0,0,1]]\n",
     "invalid system: control must be 2x2 for rep 'qubit'"),
    ("rep r3\ndrift z\ncontrol [[0,1],[-1,0]]\n",
     "invalid system: control must be 3x3 for rep 'r3'"),
    ("rep r3\ndrift z\ncontrol y\nlindblad diag:1,2 1.0\n",
     "invalid system: relaxation generator must be 3x3"),
], ids=["qubit-control-3x3", "r3-control-2x2", "r3-relaxation-2x2"])
@pytest.mark.parametrize("command", ["wedge", "conditions"])
def test_system_files_with_misshaped_matrices_are_rejected(tmp_path, text, message,
                                                           command, capsys):
    path = tmp_path / "bad.sys"
    path.write_text(text)
    _expect_usage_error([command, "--system", str(path)], message, capsys)


@pytest.mark.parametrize("flags, message", [
    (["example1", "--gamma", "nan", "1", "1"], "rates must be finite, got (nan, 1.0, 1.0)"),
    (["depolarizing", "--gamma", "1", "nan", "1"], "rates must be finite, got (1.0, nan, 1.0)"),
    (["phase_flip", "--gamma", "inf"], "rates must be finite, got (inf,)"),
    (["phase_flip", "--t", "nan"], "time must be nonnegative and finite, got nan"),
    (["phase_flip", "--t", "inf"], "time must be nonnegative and finite, got inf"),
    (["example1", "--t", "nan"], "time must be nonnegative and finite, got nan"),
    (["example1", "--t", "inf"], "time must be nonnegative and finite, got inf"),
    (["example1", "--t", "-1"], "time must be nonnegative and finite, got -1.0"),
], ids=["example1-gamma-nan", "depolarizing-gamma-nan", "gamma-inf", "t-nan", "t-inf",
        "r3-t-nan", "r3-t-inf", "r3-t-negative"])
def test_channel_rejects_non_finite_input(flags, message, capsys):
    _expect_usage_error(["channel", *flags], message, capsys)


@pytest.mark.parametrize("name", ["example1", "phase_flip"])
def test_channel_accepts_time_zero(name, capsys):
    assert main(["channel", name, "--t", "0"]) == 0
    assert json.loads(capsys.readouterr().out)["input"]["t"] == 0.0


@pytest.mark.parametrize("argv, message", [
    (["wedge", "--samples", "0"], "samples must be at least 1, got 0"),
    (["wedge", "--samples", "-5"], "samples must be at least 1, got -5"),
    (["wedge", "--rounds", "0"], "rounds must be at least 1, got 0"),
    (["wedge", "--tol", "-1"], "tol must be positive and finite, got -1.0"),
    (["wedge", "--tol", "nan"], "tol must be positive and finite, got nan"),
    (["semialgebra", "--pairs", "0"], "pairs must be at least 1, got 0"),
    (["semialgebra", "--t", "-1"], "t must be positive and finite, got -1.0"),
    (["semialgebra", "--t", "inf"], "t must be positive and finite, got inf"),
    (["semialgebra", "--rounds", "0"], "rounds must be at least 1, got 0"),
], ids=["samples-zero", "samples-negative", "rounds-zero", "tol-negative", "tol-nan",
        "pairs-zero", "t-negative", "t-inf", "semialgebra-rounds-zero"])
def test_saturation_and_probe_flags_are_range_checked(qubit_path, argv, message, capsys):
    _expect_usage_error([argv[0], "--system", qubit_path, *argv[1:]], message, capsys)


@pytest.mark.parametrize("argv, line, message", [
    (["wedge"], "samples 0", "samples must be at least 1, got 0"),
    (["wedge"], "rounds -2", "rounds must be at least 1, got -2"),
    (["wedge"], "tol 0", "tol must be positive and finite, got 0.0"),
    (["reachable", "--switches", "2", "--count", "2"], "horizon nan",
     "horizon must be positive and finite, got nan"),
    (["reachable", "--switches", "2", "--count", "2"], "horizon -1",
     "horizon must be positive and finite, got -1.0"),
], ids=["samples-zero", "rounds-negative", "tol-zero", "horizon-nan", "horizon-negative"])
def test_system_file_options_are_range_checked(tmp_path, argv, line, message, capsys):
    path = tmp_path / "opts.sys"
    path.write_text(QUBIT_FILE.replace("samples 240\n", line + "\n"))
    _expect_usage_error([argv[0], "--system", str(path), *argv[1:]], message, capsys)


def test_example_rejects_zero_rounds(capsys):
    _expect_usage_error(["example", "1", "--rounds", "0"],
                        "rounds must be at least 1, got 0", capsys)
