"""Smoke test of the benchmark itself, at tiny job lists.

    python -m pytest bench/test_bench.py

Each workload runs untraced once and traced twice, in fresh processes; every
metric named in BENCHMARK.json must be present with its unit, no job may
fail, and the per-layer call counts must repeat exactly.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

from tracing import LAYER_METRICS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def _run(cwd, workload: str, trace: int, script: str = None):
    script = script or os.path.join(HERE, "run.py")
    return subprocess.run(
        [sys.executable, script, "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=600)


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout.splitlines()[-2]
    assert result["failed"] == 0 and result["attempted"] >= 1
    return result


def _units(result: dict) -> dict:
    return {name: m["unit"] for name, m in result["metrics"].items()}


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_reports_every_metric(workload, tmp_path):
    plain = _result(_run(tmp_path, workload, 0))
    assert _units(plain) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in plain["metrics"].values())

    traced = [_result(_run(tmp_path, workload, 1)) for _ in range(2)]
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for result in traced:
        assert _units(result) == want
    calls = [{k: m["value"] for k, m in r["metrics"].items()
              if k.endswith(".calls")} for r in traced]
    assert calls[0] == calls[1]
    assert os.listdir(tmp_path / ".bench_out") == [
        f"spans-{workload}-7.jsonl"]


def test_per_layer_table_matches_tracer():
    assert SPEC["per_layer"] == [
        {k: m[k] for k in ("name", "unit", "better")} for m in LAYER_METRICS]


def test_fails_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, SPEC["workloads"][0]["name"], 0,
                script=str(tmp_path / SPEC["command"][1]))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
