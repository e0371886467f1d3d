"""Per-layer tracing for the benchmark, installed from outside the package.

`Tracer.install` replaces the public functions of each liewedge module by
timing wrappers wherever a module binds them (the defining module and every
module that imported the name), and `Tracer.uninstall` puts the originals
back.  Nothing under ``src/`` is edited.  Spans stay in memory as tuples
``(name, job, parent, start, end, child_s, note)`` and are written out once
at the end of a run.

`LAYER_METRICS` is the list of per-layer metrics the traced run reports, in
the order of ``per_layer`` in BENCHMARK.json.  Each entry names the ROADMAP
item it serves and the end-to-end metric and workload it should move.
"""

from __future__ import annotations

import functools
import importlib
import json
import time

# (span name, module that defines or binds it, attribute, modules whose
# binding is wrapped; None wraps every liewedge module that binds the same
# object)
FUNCTIONS = (
    ("matcore.expm", "matcore", "expm", ("wedge", "reachable", "cli")),
    ("matcore.orthonormal_span", "matcore", "orthonormal_span", None),
    ("lindblad.lindbladian", "lindblad", "lindbladian", None),
    ("lindblad.cptp_audit", "lindblad", "cptp_audit", None),
    ("liealg.lie_closure", "liealg", "lie_closure", None),
    ("liealg.check_conditions", "liealg", "check_conditions", None),
    ("channels.build_system", "channels", "build_system", None),
    ("wedge.saturate", "wedge", "saturate", None),
    ("wedge.lineality", "wedge", "lineality", None),
    ("wedge.cone_fit", "wedge", "_cone_fit", None),
    ("wedge.cone_residual", "wedge", "cone_residual", None),
    ("wedge.wedge_contains", "wedge", "wedge_contains", None),
    ("wedge.nnls", "wedge", "nnls", ("wedge",)),
    ("semialgebra.nnls", "semialgebra", "nnls", ("semialgebra",)),
    ("semialgebra.semialgebra_probe", "semialgebra", "semialgebra_probe", None),
    ("semialgebra.bch_witness", "semialgebra", "bch_witness", None),
    ("semialgebra.tangent_space", "semialgebra", "tangent_space", None),
    ("semialgebra.semialgebra_case", "semialgebra", "semialgebra_case", None),
    ("reachable.propagate", "reachable", "propagate", None),
    ("reachable.sample_reachable", "reachable", "sample_reachable", None),
    ("reachable.contraction_audit", "reachable", "contraction_audit", None),
    ("reachable.steer", "reachable", "steer", None),
    ("cli.main", "cli", "main", None),
)

# (span name, module, class, method)
METHODS = (
    ("wedge.sweep", "wedge", "ConjugationFamily", "sweep"),
    ("wedge.conjugate", "wedge", "ConjugationFamily", "conjugate"),
    ("wedge.support", "wedge", "ConjugationFamily", "support"),
)

MODULES = ("matcore", "lindblad", "liealg", "channels", "wedge", "semialgebra",
           "reachable", "cli", "__init__")

# What a wrapper records from a call's result, by span name.
NOTES = {
    "liealg.lie_closure": lambda r: r.dim,
    "wedge.saturate": lambda r: (r.saturation["rounds"], r.cone.n_generators,
                                 sum(r.saturation["novel_counts"])),
    "wedge.sweep": len,
    "wedge.wedge_contains": bool,
    "semialgebra.bch_witness": lambda r: r is not None,
}

def _entry(name: str, unit: str, better: str, roadmap: str, moves: str):
    return {"name": name, "unit": unit, "better": better, "roadmap": roadmap,
            "moves": moves}


def _pair(span: str, roadmap: str, moves: str) -> list:
    return [_entry(f"{span}.calls", "count", "lower", roadmap, moves),
            _entry(f"{span}.self_s", "s", "lower", roadmap, moves)]


LAYER_METRICS = [
    *_pair("matcore.expm", "3",
           "jobs_per_s on build (3x3 part) and control; flat on query"),
    *_pair("matcore.orthonormal_span", "3", "jobs_per_s on build"),
    *_pair("lindblad.lindbladian", "2",
           "jobs_per_s on control; flat on build and query"),
    *_pair("lindblad.cptp_audit", "2",
           "jobs_per_s on control; flat on build and query"),
    *_pair("liealg.lie_closure", "4",
           "jobs_per_s and job_tail_ms on control, somewhat build"),
    _entry("liealg.lie_closure.out_dim_sum", "count", "lower", "4",
           "jobs_per_s on control"),
    *_pair("liealg.check_conditions", "4", "jobs_per_s on control"),
    *_pair("channels.build_system", "2", "setup_s"),
    *_pair("wedge.saturate", "3,5",
           "jobs_per_s on build; setup_s and peak_rss_mb on query"),
    _entry("wedge.saturate.rounds", "count", "lower", "3,5",
           "jobs_per_s on build; setup_s on query"),
    _entry("wedge.cone.generators", "count", "lower", "5",
           "setup_s and peak_rss_mb on query; job_p50_ms on query"),
    _entry("wedge.saturate.novel_ratio", "frac", "higher", "3,5",
           "jobs_per_s on build"),
    *_pair("wedge.sweep", "3", "jobs_per_s on build"),
    _entry("wedge.sweep.elements", "count", "lower", "3",
           "jobs_per_s on build"),
    *_pair("wedge.conjugate", "3", "jobs_per_s on build"),
    *_pair("wedge.lineality", "3,5", "jobs_per_s on build"),
    *_pair("wedge.support", "5", "job_p50_ms and jobs_per_s on query"),
    *_pair("wedge.cone_fit", "5", "job_p50_ms and jobs_per_s on query"),
    *_pair("wedge.cone_residual", "5", "job_p50_ms and jobs_per_s on query"),
    *_pair("wedge.wedge_contains", "5", "job_p50_ms and jobs_per_s on query"),
    *_pair("wedge.nnls", "5", "job_p50_ms and jobs_per_s on query"),
    _entry("wedge.nnls.per_fit", "count", "lower", "5",
           "job_p50_ms and jobs_per_s on query"),
    _entry("wedge.member_frac", "frac", "higher", "5",
           "verdicts on query; should stay put"),
    *_pair("semialgebra.nnls", "5", "jobs_per_s on query"),
    *_pair("semialgebra.semialgebra_probe", "5", "jobs_per_s on query"),
    *_pair("semialgebra.bch_witness", "5", "jobs_per_s on query"),
    _entry("semialgebra.witness_frac", "frac", "higher", "5",
           "verdicts on query; should stay put"),
    *_pair("semialgebra.tangent_space", "5", "jobs_per_s on query"),
    *_pair("semialgebra.semialgebra_case", "5", "jobs_per_s on query"),
    *_pair("reachable.propagate", "2", "jobs_per_s and job_tail_ms on control"),
    *_pair("reachable.sample_reachable", "2", "jobs_per_s on control"),
    *_pair("reachable.contraction_audit", "2", "jobs_per_s on control"),
    *_pair("reachable.steer", "2", "jobs_per_s and job_tail_ms on control"),
    _entry("reachable.steer.objective_evals", "count", "lower", "2",
           "jobs_per_s and job_tail_ms on control"),
    *_pair("cli.main", "1", "job_tail_ms on build"),
    _entry("cli.stdout_bytes", "count", "lower", "1", "job_tail_ms on build"),
    _entry("trace.overhead", "frac", "lower", "1",
           "none; traced over untraced pass time, minus 1"),
    _entry("trace.spans", "count", "lower", "1", "none; spans recorded"),
]


class Tracer:
    """Span recorder that wraps liewedge functions at their binding sites."""

    def __init__(self):
        self.spans = []
        self.job = None
        self._stack = []
        self._patches = []

    # -- install / uninstall ------------------------------------------------

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        note = NOTES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1][0] if stack else -1
            job = self.job
            frame = [idx, 0.0]  # span index, time of closed child spans
            spans.append(None)
            stack.append(frame)
            ok = False
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                # A closed span is a tuple of atoms, which the garbage
                # collector stops scanning.
                spans[idx] = (name, job, parent, start, end, frame[1],
                              note(result) if ok and note else None)

        return wrapper

    def _patch(self, target, attr: str, wrapper):
        self._patches.append((target, attr, target.__dict__[attr]))
        setattr(target, attr, wrapper)

    def install(self):
        mods = {m: importlib.import_module("liewedge" if m == "__init__"
                                           else f"liewedge.{m}")
                for m in MODULES}
        for name, owner, attr, sites in FUNCTIONS:
            original = getattr(mods[owner], attr)
            wrapper = self._wrap(name, original)
            for m in (sites if sites is not None else MODULES):
                if mods[m].__dict__.get(attr) is original:
                    self._patch(mods[m], attr, wrapper)
        for name, owner, cls_name, attr in METHODS:
            cls = getattr(mods[owner], cls_name)
            self._patch(cls, attr, self._wrap(name, cls.__dict__[attr]))

    def uninstall(self) -> list:
        """Restore every wrapped name; return those that did not come back."""
        for target, attr, original in reversed(self._patches):
            setattr(target, attr, original)
        missing = [f"{getattr(t, '__name__', t)}.{a}"
                   for t, a, o in self._patches if t.__dict__.get(a) is not o]
        self._patches = []
        return missing

    # -- reduction ----------------------------------------------------------

    def layer_metrics(self, jobs, stdout_bytes: int) -> dict:
        """Every metric of `LAYER_METRICS` but ``trace.overhead``, over the
        spans of the given jobs."""
        jobs = set(jobs)
        spans = self.spans
        val = {}
        for n, *_ in FUNCTIONS + METHODS:
            val[f"{n}.calls"], val[f"{n}.self_s"] = 0, 0.0
        sums = dict.fromkeys(("out_dim", "rounds", "generators", "novel",
                              "elements", "swept", "members", "witnesses",
                              "objective_evals"), 0)

        def under(idx: int, name: str) -> bool:
            while idx >= 0:
                if spans[idx][0] == name:
                    return True
                idx = spans[idx][2]
            return False

        count = 0
        for s in spans:
            if s[1] not in jobs:
                continue
            count += 1
            name, note = s[0], s[6]
            val[f"{name}.calls"] += 1
            val[f"{name}.self_s"] += (s[4] - s[3]) - s[5]
            if (name == "reachable.propagate" and s[2] >= 0
                    and spans[s[2]][0] == "reachable.steer"):
                sums["objective_evals"] += 1
            elif (name == "wedge.conjugate" and under(s[2], "wedge.saturate")
                  and not under(s[2], "wedge.sweep")
                  and not under(s[2], "wedge.support")):
                # conjugations saturate tests outside a sweep are candidates too
                sums["swept"] += 1
            if note is None:
                continue
            if name == "liealg.lie_closure":
                sums["out_dim"] += note
            elif name == "wedge.saturate":
                sums["rounds"] += note[0]
                sums["generators"] += note[1]
                sums["novel"] += note[2]
            elif name == "wedge.sweep":
                sums["elements"] += note
                if under(s[2], "wedge.saturate"):
                    sums["swept"] += note
            elif name == "wedge.wedge_contains":
                sums["members"] += note
            elif name == "semialgebra.bch_witness":
                sums["witnesses"] += note

        def ratio(a, b):
            return a / b if b else 0.0

        val.update({
            "liealg.lie_closure.out_dim_sum": sums["out_dim"],
            "wedge.saturate.rounds": sums["rounds"],
            "wedge.cone.generators": sums["generators"],
            "wedge.saturate.novel_ratio": ratio(sums["novel"], sums["swept"]),
            "wedge.sweep.elements": sums["elements"],
            "wedge.nnls.per_fit": ratio(val["wedge.nnls.calls"],
                                        val["wedge.cone_fit.calls"]),
            "wedge.member_frac": ratio(sums["members"],
                                       val["wedge.wedge_contains.calls"]),
            "semialgebra.witness_frac": ratio(
                sums["witnesses"], val["semialgebra.bch_witness.calls"]),
            "reachable.steer.objective_evals": sums["objective_evals"],
            "cli.stdout_bytes": stdout_bytes,
            "trace.spans": count,
        })
        return {m["name"]: val[m["name"]] for m in LAYER_METRICS
                if m["name"] != "trace.overhead"}

    def write(self, path: str):
        """Write the spans as JSON lines: name, job, parent, start, end."""
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s[:5]) + "\n")
