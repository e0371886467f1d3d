"""The names the benchmark traces and calls, and the names the package
exports, exist, and every benchmark call binds to its callee's signature.

`bench/tracing.py` wraps liewedge functions and methods by name.  Loading it
here and installing its tracer makes a renamed or deleted traced name fail
the test suite, not only the benchmark's own tests.  `bench/workloads.py`
calls liewedge through its modules and a few imported names; reading it
with `ast` and binding each call's argument count and keyword names to the
callee's signature does the same for a removed or renamed parameter.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import liewedge

BENCH = Path(__file__).resolve().parents[1] / "bench"
TRACING = BENCH / "tracing.py"
WORKLOADS = BENCH / "workloads.py"


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


def _workload_calls() -> list:
    """(source text, call node, callee) of every call in `bench/workloads.py`
    to a liewedge module attribute (`semialgebra.tangent_space(...)`) or to a
    callable imported from liewedge by name (`ChannelSpec(...)`)."""
    text = WORKLOADS.read_text()
    tree = ast.parse(text)
    modules, names = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "liewedge":
            source = importlib.import_module(node.module)
            for alias in node.names:
                obj = getattr(source, alias.name) if hasattr(source, alias.name) \
                    else importlib.import_module(f"{node.module}.{alias.name}")
                (modules if inspect.ismodule(obj) else names)[alias.asname or alias.name] = obj
    calls = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        if isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name) \
                and f.value.id in modules:
            module = modules[f.value.id]
            assert hasattr(module, f.attr), ast.get_source_segment(text, f)
            calls.append((ast.get_source_segment(text, node), node, getattr(module, f.attr)))
        elif isinstance(f, ast.Name) and callable(names.get(f.id)):
            calls.append((ast.get_source_segment(text, node), node, names[f.id]))
    return calls


def test_every_benchmark_call_binds_to_its_signature():
    calls = _workload_calls()
    assert calls
    unbound = []
    for source, node, callee in calls:
        assert not any(isinstance(a, ast.Starred) for a in node.args), source
        assert all(kw.arg is not None for kw in node.keywords), source
        try:
            inspect.signature(callee).bind(*node.args, **{kw.arg: None for kw in node.keywords})
        except TypeError as err:
            unbound.append(f"{source}: {err}")
    assert unbound == []
