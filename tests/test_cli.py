"""Command-line interface: reports, exit codes, round-trips, determinism."""

from __future__ import annotations

import json

import numpy as np
import pytest

from liewedge import semialgebra
from liewedge import wedge as wedge_module
from liewedge.channels import ChannelSpec, build_system, two_qubit_operator
from liewedge.cli import (SystemFileError, _build_parser, format_system_file, main,
                          parse_system_file)
from liewedge.lindblad import ControlSystem
from liewedge.matcore import unrealify_stack
from liewedge.wedge import (_CERTIFIED, ConjugationFamily, MomentCurve, RotationOrbit,
                            initial_wedge, saturate)

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
    assert report["schema"] == "liewedge-report/2"
    assert report["edge_dim"] == 1
    assert report["wedge_dim"] == 4
    assert report["saturation"]["converged"] is True
    assert report["conditions"]["holds_WH"] is True


_CLOSED_FORMS = {"rotation-orbit": RotationOrbit, "moment-curve": MomentCurve, None: type(None)}


def _report_matrices(value, complex_field: bool):
    """A parsed report matrix or stack of matrices as an array; a complex
    entry is written as its [re, im] pair."""
    a = np.array(value, dtype=float)
    return a[..., 0] + 1j * a[..., 1] if complex_field else a


def _matrix_lists(node, shape: tuple, complex_field: bool):
    """Lengths of the lists anywhere in a parsed report that are stacks of
    matrices of the carrier's shape."""
    if isinstance(node, dict):
        for v in node.values():
            yield from _matrix_lists(v, shape, complex_field)
    elif isinstance(node, list) and node:
        try:
            a = np.array(node, dtype=float)
        except (TypeError, ValueError):
            a = None
        if a is not None and a.shape[1:] == shape + ((2,) if complex_field else ()):
            yield len(node)
        for v in node:
            yield from _matrix_lists(v, shape, complex_field)


_ROUND_TRIP = {
    "example1": ChannelSpec("example1"),
    "example2": ChannelSpec("example2"),
    "example3": ChannelSpec("example3"),
    "phase_flip": ChannelSpec("phase_flip", control_axes=("x",), drift_axis="z"),
    "bit_flip": ChannelSpec("bit_flip", control_axes=("x",), drift_axis="z"),
    "depolarizing": ChannelSpec("depolarizing", control_axes=("x",), drift_axis="z"),
    "two_qubit_C": ChannelSpec("two_qubit_C"),
}


@pytest.mark.parametrize("name", sorted(_ROUND_TRIP))
def test_wedge_report_round_trips_to_the_library_family(name, tmp_path, capsys):
    """A report names the cone by its base and family instead of listing
    samples.  The family rebuilt from the printed seeds and base has the
    library wedge's kind, box and closed form, bit for bit; a certified
    closed form holds every library generator; no key lists generators."""
    if name.startswith("example"):
        system = build_system(_ROUND_TRIP[name])
        argv = ["example", name[-1]]
    else:
        path = tmp_path / f"{name}.sys"
        path.write_text(format_system_file(build_system(_ROUND_TRIP[name])))
        system = parse_system_file(path.read_text())[0]
        argv = ["wedge", "--system", str(path)]
    assert main(argv + ["--samples", "24"]) == 0
    report = json.loads(capsys.readouterr().out)
    w = saturate(initial_wedge(system), orbit_samples=24)
    cone, family = w.cone, w.cone.analytic
    assert report["schema"] == "liewedge-report/2"
    assert report["cone"]["n_generators"] == cone.n_generators

    printed = report["family"]
    base = _report_matrices(report["base"], cone.complex_field)
    seeds = _report_matrices(printed["seeds"], cone.complex_field)
    assert np.array_equal(base, family.base)
    assert np.array_equal(seeds, np.stack(family.seeds))
    rebuilt = ConjugationFamily(tuple(seeds), base)
    assert (rebuilt.kind, rebuilt.periods, rebuilt.periodic) == \
        (family.kind, family.periods, family.periodic)
    assert (printed["kind"], printed["periodic"]) == (family.kind, family.periodic)
    assert printed["periods"] == (None if family.periods is None else list(family.periods))
    assert type(rebuilt.exact) is type(family.exact)
    assert _CLOSED_FORMS[printed["closed_form"]] is type(cone.exact)
    if cone.exact is not None:
        gens = unrealify_stack(cone.stack, cone.shape, cone.complex_field)
        assert np.all(rebuilt.exact.contains(gens)[1] <= _CERTIFIED)

    assert "cone_samples" not in report and "generators" not in report
    assert max(_matrix_lists(report, cone.shape, cone.complex_field), default=0) \
        < cone.n_generators


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


def test_wedge_on_an_aperiodic_torus_exits_one(tmp_path, capsys):
    """One control (z1 + sqrt(2) 1z) / 2 orbits densely on a two-torus that
    no box of its one parameter covers: the report says unconverged, and the
    command exits 1 as for any saturation that does not converge."""
    control = (two_qubit_operator("z1") + np.sqrt(2.0) * two_qubit_operator("1z")) / 2.0
    system = ControlSystem(rep="two_qubit", drift_H=np.zeros((4, 4)), controls=(control,),
                           lindblad_ops=((two_qubit_operator("x1"), 1.0),
                                         (two_qubit_operator("1x"), 0.5)))
    path = tmp_path / "z_sqrt2.sys"
    path.write_text(format_system_file(system, {"samples": 90}))
    assert main(["wedge", "--system", str(path)]) == 1
    saturation = json.loads(capsys.readouterr().out)["saturation"]
    assert (saturation["converged"], saturation["termination"]) == (False, "aperiodic-torus")


def test_wedge_dimension_does_not_depend_on_the_sample_count(tmp_path, capsys):
    """two_qubit_C's wedge once read dimension 10 from 4 samples."""
    path = tmp_path / "two_qubit_C.sys"
    path.write_text(format_system_file(build_system(ChannelSpec("two_qubit_C"))))
    assert main(["wedge", "--system", str(path), "--samples", "4"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert (report["edge_dim"], report["wedge_dim"]) == (2, 15)


def test_wedge_run_derives_frequency_units_once_per_family(tmp_path, capsys, monkeypatch):
    """The phase_flip file (control x, drift z) saturates in two rounds, one
    torus family each.  The report's `periods`, `periodic` and closed form,
    the fixed-point test and the sweep rows all read the returned family's
    one unit table, and round one's family, which only `lineality` reads,
    needs none: one derivation where there were five."""
    units, families = [], []
    derive = wedge_module._frequency_units
    monkeypatch.setattr(wedge_module, "_frequency_units",
                        lambda *a: units.append(1) or derive(*a))
    post_init = ConjugationFamily.__post_init__
    monkeypatch.setattr(ConjugationFamily, "__post_init__",
                        lambda self: families.append(self) or post_init(self))
    path = tmp_path / "phase_flip.sys"
    path.write_text(format_system_file(build_system(
        ChannelSpec("phase_flip", control_axes=("x",), drift_axis="z"))))
    assert main(["wedge", "--system", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["family"]["periodic"] is True
    assert report["family"]["closed_form"] == "moment-curve"
    assert len(families) == 2 and len(units) == 1


def test_conditions_subcommand(r3_path, capsys):
    assert main(["conditions", "--system", r3_path]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["conditions"]["dim_kc"] == 1
    assert report["conditions"]["holds_WH"] is True


def test_conditions_past_the_ceiling_exit_one(tmp_path, capsys):
    """two_qubit_C at rates 1e-3: `s` closes past its 225-dim ceiling, which
    is a numerical failure (exit 1, no report), not a verdict; at unit rates
    the same command reports dim_s 225."""
    path = tmp_path / "two_qubit_C_slow.sys"
    path.write_text(format_system_file(build_system(
        ChannelSpec(name="two_qubit_C", rates=(1e-3, 1e-3)))))
    assert main(["conditions", "--system", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("numerical failure: the closure s reached dimension")
    path.write_text(format_system_file(build_system(ChannelSpec(name="two_qubit_C"))))
    assert main(["conditions", "--system", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["conditions"]["dim_s"] == 225


def test_conditions_without_controls(tmp_path, capsys):
    """A system with no controls has kc = {0}: the run reports it instead
    of failing to close an empty generator list."""
    p = tmp_path / "free.sys"
    p.write_text(format_system_file(build_system(ChannelSpec("phase_flip"))))
    assert main(["conditions", "--system", str(p)]) == 0
    report = json.loads(capsys.readouterr().out)["conditions"]
    assert (report["dim_kc"], report["dim_kd"], report["dim_s"]) == (0, 0, 1)
    assert not any(report[k] for k in ("holds_H", "holds_WH", "holds_A"))


def test_semialgebra_subcommand(r3_path, capsys):
    assert main(["semialgebra", "--system", r3_path, "--pairs", "40"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] in ("witness-found", "no-counterexample-found")
    if report["verdict"] == "witness-found":
        assert report["witness"]["residual"] > 0


def test_semialgebra_on_a_certified_wedge_draws_no_sample(tmp_path, capsys, monkeypatch):
    """The depolarizing qubit under controls x and y has every bracket of
    its span in the edge: the report says no counterexample, bytewise the
    same on a second run, and no sample is drawn."""
    path = tmp_path / "depolarizing_xy.sys"
    spec = ChannelSpec("depolarizing", control_axes=("x", "y"), drift_axis="z")
    path.write_text(format_system_file(build_system(spec)))
    drawn = []
    monkeypatch.setattr(semialgebra, "_wedge_samples", lambda *args: drawn.append(args))
    runs = [_run(["semialgebra", "--system", str(path)], capsys) for _ in range(2)]
    assert runs[0] == runs[1]
    code, (out, _) = runs[0]
    report = json.loads(out)
    assert (code, report["schema"], report["verdict"], report["witness"]) == (
        0, "liewedge-report/2", "no-counterexample-found", None)
    assert drawn == []


def test_reachable_subcommand(qubit_path, capsys):
    assert main(["reachable", "--system", qubit_path, "--switches", "3",
                 "--count", "5"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["samples"]["all_cptp"] is True
    assert report["contraction_audit"]["monotone"] is True


def _run(argv, capsys):
    """Exit code (SystemExit's too) and captured (stdout, stderr) of main."""
    capsys.readouterr()
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    return code, capsys.readouterr()


def test_one_parser_serves_consecutive_calls(qubit_path, capsys):
    """Back-to-back calls on the cached parser, across two subcommands and
    after an argv that makes argparse exit, print what calls on a freshly
    built parser print."""
    runs = (["channel", "phase_flip"],
            ["reachable", "--system", qubit_path, "--switches", "2", "--count", "3"],
            ["reachable", "--system", qubit_path, "--switches", "2"],
            ["channel", "phase_flip"])
    fresh = []
    for argv in runs:
        _build_parser.cache_clear()
        fresh.append(_run(argv, capsys))
    assert fresh[2][0] == 2 and "--count" in fresh[2][1].err
    parser = _build_parser()
    shared = [_run(argv, capsys) for argv in runs]
    assert _build_parser() is parser
    assert shared == fresh


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
    ("rep qubit\ndrift [[1,0],[0]]\n",
     "line 2: matrix literal must be a list of rows of equal length"),
    ("rep qubit\ndrift [[true,0],[0,false]]\n", "line 2: bad matrix entry True"),
], ids=["qubit-control-3x3", "r3-control-2x2", "r3-relaxation-2x2", "ragged-drift",
        "bool-drift"])
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
    (["wedge", "--seed", "-1"], "seed must be non-negative, got -1"),
    (["semialgebra", "--seed", "-1"], "seed must be non-negative, got -1"),
    (["reachable", "--switches", "-1", "--count", "2"], "switches must be at least 1, got -1"),
    (["reachable", "--switches", "0", "--count", "2"], "switches must be at least 1, got 0"),
    (["reachable", "--switches", "2", "--count", "2", "--seed", "-1"],
     "seed must be non-negative, got -1"),
], ids=["samples-zero", "samples-negative", "rounds-zero", "tol-negative", "tol-nan",
        "pairs-zero", "t-negative", "t-inf", "semialgebra-rounds-zero", "wedge-seed-negative",
        "semialgebra-seed-negative", "switches-negative", "switches-zero",
        "reachable-seed-negative"])
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


def test_example_rejects_a_negative_seed(capsys):
    _expect_usage_error(["example", "1", "--seed", "-1"],
                        "seed must be non-negative, got -1", capsys)


def test_system_file_seed_is_range_checked(tmp_path, capsys):
    path = tmp_path / "seed.sys"
    path.write_text(QUBIT_FILE + "seed -3\n")
    _expect_usage_error(["wedge", "--system", str(path)],
                        "seed must be non-negative, got -3", capsys)
