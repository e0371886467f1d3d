"""The names the benchmark traces, and the names the package exports, exist.

`bench/tracing.py` wraps liewedge functions and methods by name.  Loading it
here and installing its tracer makes a renamed or deleted traced name fail
the test suite, not only the benchmark's own tests.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import liewedge

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("liewedge_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_binds_every_traced_name():
    tracer = _load_tracing().Tracer()
    try:
        tracer.install()
    finally:
        missing = tracer.uninstall()
    assert missing == []


def test_every_exported_name_exists():
    assert [name for name in liewedge.__all__ if not hasattr(liewedge, name)] == []
