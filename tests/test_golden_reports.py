"""CLI reports against recorded ones, field by field.

Each run in `RUNS` was recorded once by calling `cli.main(argv)` in a
directory holding the system files that `_write_systems` writes, and its
stdout saved as `tests/data/golden/<name>.<json|csv>`.  A run matches its
record when every non-numeric field (keys in order, strings, booleans,
nulls, list lengths, the CSV header) is equal and every number is within
1e-9 relative or 1e-12 absolute.  The reports' quantities are of order one,
so the absolute floor only forgives rounding noise near zero, and the check
holds across BLAS builds while integers such as dimensions and counts stay
exact.  After an intended output change, record the runs again.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from pathlib import Path

import pytest

from liewedge.channels import ChannelSpec, build_system
from liewedge.cli import format_system_file, main

GOLDEN = Path(__file__).resolve().parent / "data" / "golden"

RUNS = {
    "example2": ["example", "2", "--samples", "24"],
    "example3": ["example", "3", "--samples", "24"],
    "wedge_phase_flip": ["wedge", "--system", "phase_flip.sys", "--samples", "24"],
    "semialgebra_phase_flip": ["semialgebra", "--system", "phase_flip.sys",
                               "--samples", "24", "--pairs", "50"],
    "figdata_2a": ["figdata", "2a", "--theta-steps", "12"],
    "channel_phase_flip": ["channel", "phase_flip"],
    "conditions_two_qubit_B": ["conditions", "--system", "two_qubit_B.sys"],
    "reachable_phase_flip": ["reachable", "--system", "phase_flip.sys",
                             "--switches", "2", "--count", "3"],
}


def _write_systems(directory: Path):
    """phase_flip with drift z and control x, and two_qubit_B as named."""
    specs = {"phase_flip.sys": ChannelSpec("phase_flip", control_axes=("x",), drift_axis="z"),
             "two_qubit_B.sys": ChannelSpec("two_qubit_B")}
    for name, spec in specs.items():
        (directory / name).write_text(format_system_file(build_system(spec)))


def _record(name: str) -> Path:
    suffix = ".csv" if name.startswith("figdata") else ".json"
    return GOLDEN / (name + suffix)


def _run(argv) -> tuple:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def _mismatch(got, want, path="$"):
    """Path of the first field where `got` departs from `want`, else None."""
    number = (int, float)
    if (isinstance(got, number) and isinstance(want, number)
            and not isinstance(got, bool) and not isinstance(want, bool)):
        return None if math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-12) else path
    if type(got) is not type(want):
        return path
    if isinstance(got, dict):
        if list(got) != list(want):
            return path
        for k in want:
            bad = _mismatch(got[k], want[k], f"{path}.{k}")
            if bad:
                return bad
        return None
    if isinstance(got, list):
        if len(got) != len(want):
            return path
        for i, (g, w) in enumerate(zip(got, want)):
            bad = _mismatch(g, w, f"{path}[{i}]")
            if bad:
                return bad
        return None
    return None if got == want else path


def _csv_rows(text: str) -> list:
    header, *rows = text.splitlines()
    return [header, [[float(v) for v in row.split(",")] for row in rows]]


@pytest.mark.parametrize("name", sorted(RUNS))
def test_report_matches_its_record(name, tmp_path, monkeypatch):
    _write_systems(tmp_path)
    monkeypatch.chdir(tmp_path)
    code, text = _run(RUNS[name])
    assert code == 0
    want = _record(name).read_text(encoding="utf-8")
    if name.startswith("figdata"):
        got, want = _csv_rows(text), _csv_rows(want)
    else:
        got, want = json.loads(text), json.loads(want)
    assert _mismatch(got, want) is None, _mismatch(got, want)


def test_the_comparison_sees_each_kind_of_change():
    want = {"a": [1.0, 2, "x"], "b": True, "c": None}
    assert _mismatch({"a": [1.0 + 1e-12, 2, "x"], "b": True, "c": None}, want) is None
    assert _mismatch({"a": [1.0 + 1e-6, 2, "x"], "b": True, "c": None}, want) == "$.a[0]"
    assert _mismatch({"a": [1.0, 3, "x"], "b": True, "c": None}, want) == "$.a[1]"
    assert _mismatch({"a": [1.0, 2, "y"], "b": True, "c": None}, want) == "$.a[2]"
    assert _mismatch({"a": [1.0, 2], "b": True, "c": None}, want) == "$.a"
    assert _mismatch({"a": [1.0, 2, "x"], "b": 1, "c": None}, want) == "$.b"
    assert _mismatch({"c": None, "a": [1.0, 2, "x"], "b": True}, want) == "$"
