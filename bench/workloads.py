"""The three benchmark workloads: set-up, seeded job lists and output checks.

Each workload is a closed loop with one client: a fixed list of jobs made
from the workload seed, run in order, each job starting when the previous
one has returned.  Jobs call liewedge in-process, through `cli.main(argv)`
with stdout captured where a subcommand exists and through the library
otherwise.  Every call goes through a module attribute looked up at call
time, so the tracer's wrappers see it.

A job returns its output text (captured stdout, or a canonical rendering of
the library result) and raises `JobFailed` when its output check fails.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from liewedge import channels, cli, lindblad, reachable, semialgebra, wedge
from liewedge.channels import H_X, H_Z, ChannelSpec, sigma

QUBIT_FILES = ("phase_flip", "bit_flip", "depolarizing")
TWO_QUBIT_FILES = ("two_qubit_A", "two_qubit_B", "two_qubit_C")

# (edge_dim, wedge_dim) of every saturated system, as the package gives them
# at the commit that defined this benchmark; example 2 is the paper's (1, 4).
WEDGE_DIMS = {
    "example1": (3, 9), "example2": (1, 4), "example3": (1, 6),
    "phase_flip": (1, 6), "bit_flip": (1, 4), "depolarizing": (1, 4),
    "two_qubit_C": (2, 15),
}

# `conditions` report of the two-qubit systems at the same commit.
CONDITIONS = {
    "two_qubit_A": {"dim_kc": 15, "dim_kd": 15, "dim_s": 15, "dim_target_k": 15,
                    "dim_target_s": 225, "holds_H": True, "holds_WH": False,
                    "holds_A": False},
    "two_qubit_B": {"dim_kc": 6, "dim_kd": 15, "dim_s": 15, "dim_target_k": 15,
                    "dim_target_s": 225, "holds_H": False, "holds_WH": True,
                    "holds_A": False},
    "two_qubit_C": {"dim_kc": 2, "dim_kd": 15, "dim_s": 225, "dim_target_k": 15,
                    "dim_target_s": 225, "holds_H": False, "holds_WH": True,
                    "holds_A": True},
}

EX1_RATES = np.array([3.0, 2.0, 1.0])
GAMMA2 = np.diag([1.0, 0.0, 1.0])
PROBE_MARGIN = 0.05


class JobFailed(Exception):
    """A job ran but its output did not pass the check."""


@dataclass(frozen=True)
class Job:
    """One call into liewedge.  `kind` names the operation and its input
    (jobs of one kind cost about the same); `label` tells jobs apart."""

    kind: str
    label: str
    run: Callable[[], str]
    cli: bool = False


def _check(ok: bool, what: str):
    if not ok:
        raise JobFailed(what)


def _fmt(x) -> str:
    return "%.17g" % float(x)


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

def _qubit_system(name: str, rates=None):
    return channels.build_system(ChannelSpec(name=name, rates=rates,
                                             control_axes=("x",),
                                             drift_axis="z"))


def _write_systems(workdir: str, names) -> dict:
    """System files for the file-driven subcommands; name -> path."""
    paths = {}
    for name in names:
        if name in QUBIT_FILES:
            system = _qubit_system(name)
        else:
            system = channels.build_system(ChannelSpec(name=name))
        path = os.path.join(workdir, f"{name}.sys")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(cli.format_system_file(system))
        paths[name] = path
    return paths


def _steer_targets() -> list:
    """(label, system, target, switches, budget, seed) of the two steer jobs.

    The first is acceptance criterion 11.  The second is the ROADMAP
    baseline's depolarizing qubit (two switches, budget 5), steered toward
    the channel of a fixed two-segment schedule.
    """
    dephased = lindblad.ControlSystem(
        rep="qubit", drift_H=sigma("z") / 2.0, controls=(sigma("x") / 2.0,),
        lindblad_ops=((sigma("z") / 2.0, 0.4),))
    depol = _qubit_system("depolarizing", rates=(0.2, 0.2, 0.2))
    truth1 = reachable.Schedule(((0.37, (0.8,)),))
    truth2 = reachable.Schedule(((0.3, (1.2,)), (0.25, (-0.7,))))
    return [
        ("criterion11", dephased, reachable.propagate(dephased, truth1), 1, 8, 3),
        ("depolarizing", depol, reachable.propagate(depol, truth2), 2, 5, 0),
    ]


def setup_build(workdir: str) -> dict:
    return {"files": _write_systems(workdir, QUBIT_FILES + ("two_qubit_C",))}


def setup_query(workdir: str) -> dict:
    def sat(system):
        return wedge.saturate(wedge.initial_wedge(system), orbit_samples=360)

    wedges = {f"example{n}": sat(channels.build_system(ChannelSpec(name=f"example{n}")))
              for n in (1, 2, 3)}
    wedges["phase_flip"] = sat(_qubit_system("phase_flip"))
    for name, w in wedges.items():
        dims = (w.edge.dim, w.dim)
        if dims != WEDGE_DIMS[name] or not w.cone.pointed:
            raise RuntimeError(f"set-up wedge {name} has dims {dims}, "
                               f"pointed={w.cone.pointed}")
    wedges["isotropic"] = semialgebra.orbit_wedge((1.0, 1.0, 1.0),
                                                  hull_samples=96, seed=0)
    return {"wedges": wedges}


def setup_control(workdir: str) -> dict:
    return {"files": _write_systems(workdir, QUBIT_FILES + TWO_QUBIT_FILES),
            "steer": _steer_targets()}


# ---------------------------------------------------------------------------
# job kinds
# ---------------------------------------------------------------------------

def _cli_job(kind: str, argv: list, check: Callable[[dict], None]) -> Job:
    def run() -> str:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        text = buf.getvalue()
        _check(code == 0, f"exit code {code}")
        try:
            report = json.loads(text)
        except ValueError:
            raise JobFailed("stdout is not JSON")
        check(report)
        return text

    return Job(kind, " ".join(argv), run, cli=True)


def _dims_check(name: str):
    def check(report):
        dims = (report["edge_dim"], report["wedge_dim"])
        _check(dims == WEDGE_DIMS[name], f"{name} dims {dims}")
        _check(report["saturation"]["converged"], f"{name} not converged")
    return check


def _conditions_check(name: str):
    def check(report):
        _check(report["conditions"] == CONDITIONS[name],
               f"{name} conditions {report['conditions']}")
    return check


def _reachable_check(report):
    _check(report["samples"]["all_cptp"] is True, "sample not CPTP")
    _check(report["contraction_audit"].get("monotone") is True,
           "contraction audit not monotone")


def _rotation(rng) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, [0, 1]] = q[:, [1, 0]]
    return q


def _antisym(rng) -> np.ndarray:
    a = rng.normal(size=(3, 3))
    return (a - a.T) / 2.0


def _ex1_probes(rng, count: int) -> list:
    """(x, truth) pairs for the example-1 wedge so(3) + cone(orbit diag(3,2,1)).

    The symmetric part of x is a member exactly when its eigenvalues are
    majorized by tr(x)/6 * (3, 2, 1) (Schur-Horn).  Probes whose trace or
    partial-sum slack is within PROBE_MARGIN of zero, relative to |x|, are
    redrawn, so no probe sits near the boundary.
    """
    g = np.diag(EX1_RATES)
    out = []
    while len(out) < count:
        if len(out) % 2 == 0:
            s = sum(rng.uniform(0.2, 1.0) * (q := _rotation(rng)) @ g @ q.T
                    for _ in range(int(rng.integers(2, 4))))
        else:
            s = rng.normal(size=(3, 3))
            s = (s + s.T) / 2.0
        norm = float(np.linalg.norm(s))
        tr = float(np.trace(s))
        w = np.sort(np.linalg.eigvalsh(s))[::-1]
        slack = np.cumsum(tr / EX1_RATES.sum() * EX1_RATES)[:2] - np.cumsum(w)[:2]
        if abs(tr) < PROBE_MARGIN * norm or \
                np.abs(slack).min() < PROBE_MARGIN * norm:
            continue
        truth = tr > 0 and wedge.majorized(s, tr / EX1_RATES.sum() * EX1_RATES)
        out.append((s + rng.uniform(0.0, 2.0) * _antisym(rng), bool(truth)))
    return out


def _member_probes(w, rng, count: int) -> list:
    """Conic mixes of stored generators plus an edge part (members), each
    followed by its negative (a non-member, the cone being pointed)."""
    gens = w.cone.generators
    out = []
    for _ in range(count // 2):
        idx = rng.integers(len(gens), size=int(rng.integers(2, 4)))
        x = sum(rng.uniform(0.2, 1.0) * gens[i] for i in idx)
        x = x + sum(c * np.asarray(m)
                    for c, m in zip(rng.normal(size=w.edge.dim), w.edge.mats))
        out += [(x, True), (-x, False)]
    return out


def _contains_job(label: str, w, probes: list) -> Job:
    def run() -> str:
        got = [bool(wedge.wedge_contains(w, x)) for x, _ in probes]
        _check(got == [t for _, t in probes], f"{label} membership verdicts")
        return "".join("1" if v else "0" for v in got)

    return Job(f"contains {label}", f"{len(probes)} probes", run)


def _probe_job(w, pairs: int, seed: int) -> Job:
    def run() -> str:
        wit = semialgebra.semialgebra_probe(w, pair_samples=pairs, seed=seed)
        _check(wit is None, "isotropic probe found a witness")
        return "none"

    return Job("probe isotropic", f"pairs={pairs} seed={seed}", run)


def _witness_job(w) -> Job:
    """Acceptance criterion 8's example-2 pair, whose BCH tail leaves the wedge."""
    def run() -> str:
        wit = semialgebra.bch_witness(w, GAMMA2 + H_Z, GAMMA2 + H_X,
                                      t_grid=(1e-3,))
        _check(wit is not None, "example-2 witness not found")
        return _fmt(wit.residual)

    return Job("witness example2", "criterion 8 pair", run)


def _case_job(case_id: str, seed: int) -> Job:
    def run() -> str:
        rep = semialgebra.semialgebra_case(case_id, {"seed": seed})
        _check(rep["tangent_matches_closed_form"],
               f"case {case_id} tangent differs from closed form")
        want = "semialgebra" if case_id == "i" else "not-semialgebra"
        _check(rep["verdict"] == want, f"case {case_id} verdict {rep['verdict']}")
        return f"{rep['tangent_dim']} {rep['verdict']} " \
               f"{_fmt(rep['invariance_residual'])}"

    return Job(f"case {case_id}", f"seed={seed}", run)


def _tangent_job(w, rng, seed: int) -> Job:
    """Tangent space of the example-1 wedge at a rotated extreme point,
    which has the dimension of the closed-form case iv (7)."""
    q = _rotation(rng)
    a = q @ (np.diag(EX1_RATES) + H_Z) @ q.T

    def run() -> str:
        t = semialgebra.tangent_space(w, a, seed=seed)
        _check(t.dim == 7, f"tangent dimension {t.dim}")
        return f"{t.dim} {np.asarray(t.stack).tobytes().hex()}"

    return Job("tangent example1", f"seed={seed}", run)


def _steer_job(label, system, target, switches, budget, seed) -> Job:
    def run() -> str:
        sched, dist = reachable.steer(system, target, switches, budget=budget,
                                      seed=seed)
        _check(dist < 1e-6, f"steer {label} distance {dist}")
        segs = [(_fmt(d), [_fmt(u) for u in amp]) for d, amp in sched.segments]
        return json.dumps([segs, _fmt(dist)])

    return Job(f"steer {label}", f"switches={switches} budget={budget}", run)


# ---------------------------------------------------------------------------
# job lists
# ---------------------------------------------------------------------------
#
# A timed run repeats passes over the job list and takes each job's median
# latency (see run.py), so the lists are short enough for several passes in a
# run: on a 2-core x86 virtual machine one full-size pass takes about 5 s on
# `build`, 2.5 s on `query` and 20 s on `control` (whose depolarizing `steer`
# alone takes 9-14 s; the later passes of a `control` run repeat the jobs that
# still fit).  Each list holds more than twenty jobs, so the tail sample (the
# 11th slowest) lies above the median, and both fall inside a cluster of
# similar jobs rather than on the edge between two clusters.

def _seed(rng) -> int:
    return int(rng.integers(2**31))


def jobs_build(state: dict, seed: int, smoke: bool) -> list:
    rng = np.random.default_rng([seed, 1])
    files = state["files"]
    jobs = []
    for _ in range(1 if smoke else 3):
        for n in (1, 2, 3):
            argv = ["example", str(n), "--seed", str(_seed(rng))]
            jobs.append(_cli_job(f"example{n}", argv, _dims_check(f"example{n}")))
    for _ in range(1 if smoke else 5):
        for name in QUBIT_FILES:
            argv = ["wedge", "--system", files[name], "--seed", str(_seed(rng))]
            jobs.append(_cli_job(f"wedge {name}", argv, _dims_check(name)))
    argv = ["wedge", "--system", files["two_qubit_C"], "--seed", str(_seed(rng))]
    if smoke:
        argv += ["--samples", "24"]
    jobs.append(_cli_job("wedge two_qubit_C", argv, _dims_check("two_qubit_C")))
    return [jobs[i] for i in rng.permutation(len(jobs))]


def jobs_query(state: dict, seed: int, smoke: bool) -> list:
    rng = np.random.default_rng([seed, 2])
    ws = state["wedges"]
    jobs = []
    for _ in range(1 if smoke else 8):
        for _ in range(1 if smoke else 3):
            jobs.append(_contains_job("example1", ws["example1"],
                                      _ex1_probes(rng, 6 if smoke else 24)))
        for name in ("example2", "example3") * (1 if smoke else 2) + ("phase_flip",):
            jobs.append(_contains_job(name, ws[name],
                                      _member_probes(ws[name], rng, 6)))
        jobs.append(_probe_job(ws["isotropic"], 50 if smoke else 1000,
                               _seed(rng)))
        jobs.append(_witness_job(ws["example2"]))
        for case_id in ("i", "ii", "iii", "iv"):
            jobs.append(_case_job(case_id, _seed(rng)))
        for _ in range(1 if smoke else 2):
            jobs.append(_tangent_job(ws["example1"], rng,
                                     _seed(rng)))
    return [jobs[i] for i in rng.permutation(len(jobs))]


def jobs_control(state: dict, seed: int, smoke: bool) -> list:
    # Most jobs are `reachable` on two_qubit_C, so the median and the tail
    # sample both fall among them; the few cheap qubit and two-qubit A/B jobs
    # below the median swing most with load from outside the process.
    rng = np.random.default_rng([seed, 3])
    files = state["files"]
    jobs = []
    for name in ("two_qubit_A", "two_qubit_B") * (1 if smoke else 2):
        jobs.append(_cli_job(f"conditions {name}",
                             ["conditions", "--system", files[name]],
                             _conditions_check(name)))
    for _ in range(0 if smoke else 1):
        jobs.append(_cli_job("conditions two_qubit_C",
                             ["conditions", "--system", files["two_qubit_C"]],
                             _conditions_check("two_qubit_C")))
    for name in QUBIT_FILES:
        argv = ["reachable", "--system", files[name], "--switches", "3",
                "--count", "20", "--seed", str(_seed(rng))]
        jobs.append(_cli_job(f"reachable {name}", argv, _reachable_check))
    for _ in range(1 if smoke else 16):
        argv = ["reachable", "--system", files["two_qubit_C"], "--switches", "3",
                "--count", "2" if smoke else "5", "--seed", str(_seed(rng))]
        jobs.append(_cli_job("reachable two_qubit_C", argv, _reachable_check))
    targets = state["steer"][:1] if smoke else state["steer"]
    jobs += [_steer_job(*t) for t in targets]
    return [jobs[i] for i in rng.permutation(len(jobs))]


WORKLOADS = {
    "build": (setup_build, jobs_build),
    "query": (setup_query, jobs_query),
    "control": (setup_control, jobs_control),
}
