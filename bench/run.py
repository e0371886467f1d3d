"""liewedge benchmark: one workload, one process, one closed-loop client.

    python3 bench/run.py --workload build|query|control --seed N \
        --seconds S --trace 0|1 [--smoke]

All three workloads, each in a fresh process:

    for w in build query control; do
        python3 bench/run.py --workload $w --seed 1 --seconds 30 --trace 0
    done

Run from the root of a checkout; the package is imported from ``src/`` next
to this directory.  The load is pinned to one thread.

``--trace 0`` sets the workload up several times, each time after importing
the package in a fresh interpreter, and reports the median import plus the
median set-up time.  It then repeats passes over the seeded job list for
``--seconds``.  Every time is scaled to a nominal machine speed by the
reference kernel of speed.py, timed between jobs: the shared host this was
written on swings between speeds up to 1.8x apart, for seconds at a time,
and the scaled times hold still through those swings.  A job's latency is
the median of its scaled runs.  ``jobs_per_s`` is the jobs completed over
the sum of their latencies, and ``job_p50_ms`` and ``job_tail_ms`` are
taken over the latencies, one per job.  The unscaled wall-clock rate,
median, import and set-up times are in the description line.

``--trace 1`` wraps the package's public functions (see tracing.py), sets
up and runs two traced passes, unwraps, then sets up again and runs one
untraced pass.  It checks that every wrapped name is restored, that each
job's output is byte-identical between the traced and untraced passes, and
that the span counts of the two traced passes agree.  It reports the
per-layer metrics of set-up plus the first traced pass, and the tracing
overhead: the scaled time of one traced pass against the untraced one, each
with every job kind at its median latency.  Spans are written to
``.bench_out/``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it describes the
run (environment, passes, tail percentile, failure messages).  ``--smoke``
shrinks every job list for the benchmark's own test.
"""

from __future__ import annotations

import os

# Pin BLAS/OpenMP to one thread before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("LIEWEDGE_THREADS", None)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
SETUP_REPS = 5
SETUP_SPEED_SAMPLES = 10
TAIL_BEYOND = 10


def _fail(msg: str):
    print(f"bench: {msg}", file=sys.stderr)
    sys.exit(2)


def _import_seconds() -> float:
    """Wall time of `import liewedge.cli` in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import liewedge.cli; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        _fail(f"importing liewedge failed: {proc.stderr.strip()}")
    return float(proc.stdout.strip())


def _environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "threads": {v: os.environ.get(v) for v in
                        ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                         "LIEWEDGE_THREADS")}}


def _run_job(job, failures: list) -> tuple:
    """Run one job; (start, end, output text or None when it failed)."""
    t0 = time.perf_counter()
    try:
        out = job.run()
    except Exception as exc:  # raised, or failed its output check
        out = None
        failures.append(f"{job.kind} {job.label}: {type(exc).__name__}: {exc}")
    return t0, time.perf_counter(), out


def _run_pass(jobs, failures: list, speed, tracer=None,
              first_id: int = 0) -> tuple:
    """Run every job once; ((start, end) of each job, output digests, CLI
    stdout bytes).

    With a tracer, job i's spans carry the id first_id + i.
    """
    lat, digests, nbytes = [], [], 0
    for i, job in enumerate(jobs):
        if tracer is not None:
            tracer.job = first_id + i
        speed.tick()
        t0, t1, out = _run_job(job, failures)
        lat.append((t0, t1))
        digests.append(None if out is None else
                       hashlib.sha256(out.encode()).hexdigest())
        if out is not None and job.cli:
            nbytes += len(out.encode())
    speed.settle()
    return lat, digests, nbytes


def _timed_passes(jobs, seconds: float, failures: list, speed) -> tuple:
    """Repeat passes over `jobs` for `seconds`; ((start, end) per run of each
    job, passes, indices of the jobs that failed at least once).

    The first pass runs every job.  A later pass skips a job whose shortest
    run so far would take it past the deadline, and the run ends with the
    first pass that has nothing left to run.
    """
    lat = [[] for _ in jobs]
    failed = set()
    deadline = time.perf_counter() + seconds
    passes = 0
    while True:
        ran = 0
        for i, job in enumerate(jobs):
            if passes and time.perf_counter() + min(
                    b - a for a, b in lat[i]) > deadline:
                continue
            speed.tick()
            t0, t1, out = _run_job(job, failures)
            lat[i].append((t0, t1))
            if out is None:
                failed.add(i)
            ran += 1
        if not ran:
            speed.settle()
            return lat, passes, failed
        passes += 1


def _by_kind(jobs, lat: list) -> dict:
    """Latencies of whole passes over `jobs`, grouped by job kind."""
    kinds = {}
    for i, t in enumerate(lat):
        kinds.setdefault(jobs[i % len(jobs)].kind, []).append(t)
    return kinds


def _typical_s(kinds: dict) -> float:
    """Time the jobs take when each kind runs at its median latency.

    A burst of load from outside the process that slows a minority of the
    jobs of a kind does not move it.
    """
    return sum(len(v) * statistics.median(v) for v in kinds.values())


def _tail(lat: list) -> tuple:
    """(value, percentile): the highest percentile with TAIL_BEYOND samples
    above it, or the median when there are too few samples."""
    xs = sorted(lat)
    n = len(xs)
    idx = n - TAIL_BEYOND - 1 if n > 2 * TAIL_BEYOND else (n - 1) // 2
    return xs[idx], 100.0 * (idx + 1) / n


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny job lists, for the benchmark's own test")
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "liewedge", "__init__.py")):
        _fail(f"no liewedge package under {SRC}")
    sys.path.insert(0, SRC)
    import liewedge
    if not os.path.abspath(liewedge.__file__).startswith(SRC + os.sep):
        _fail(f"liewedge imported from {liewedge.__file__}, not {SRC}")
    import workloads
    if args.workload not in workloads.WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}")
    setup, make_jobs = workloads.WORKLOADS[args.workload]

    out_root = os.path.join(os.getcwd(), ".bench_out")
    os.makedirs(out_root, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_root)
    try:
        if args.trace:
            result, info = _traced(args, setup, make_jobs, workdir, out_root)
        else:
            result, info = _untraced(args, setup, make_jobs, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    info.update(workload=args.workload, seed=args.seed,
                environment=_environment())
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


def _setup_seconds(setup, workdir, speed) -> tuple:
    """((start, end) of each import, (start, end) of each set-up, the last
    set-up's state).

    Imports in a fresh interpreter alternate with in-process set-ups, with
    reference-kernel samples between them.
    """
    imports, setups = [], []
    for _ in range(SETUP_REPS):
        speed.sample(SETUP_SPEED_SAMPLES)
        t0 = time.perf_counter()
        dt = _import_seconds()
        imports.append((t0, time.perf_counter(), dt))
        speed.sample(SETUP_SPEED_SAMPLES)
        t0 = time.perf_counter()
        state = setup(workdir)
        setups.append((t0, time.perf_counter()))
    speed.settle()
    return imports, setups, state


def _untraced(args, setup, make_jobs, workdir) -> tuple:
    from speed import Speedometer

    speed = Speedometer()
    imports, setups, state = _setup_seconds(setup, workdir, speed)
    jobs = make_jobs(state, args.seed, args.smoke)

    failures = []
    start = time.perf_counter()
    lat, passes, failed = _timed_passes(jobs, args.seconds, failures, speed)
    elapsed = time.perf_counter() - start
    typical = [statistics.median((b - a) * speed.scale(a, b) for a, b in x)
               for x in lat]
    import_s = statistics.median(dt * speed.scale(a, b) for a, b, dt in imports)
    setup_s = statistics.median((b - a) * speed.scale(a, b) for a, b in setups)
    attempted = sum(map(len, lat))
    tail, pct = _tail(typical)
    metrics = {
        "jobs_per_s": _metric((len(jobs) - len(failed)) / sum(typical), "1/s"),
        "job_p50_ms": _metric(1e3 * statistics.median(typical), "ms"),
        "job_tail_ms": _metric(1e3 * tail, "ms"),
        "setup_s": _metric(import_s + setup_s, "s"),
        "peak_rss_mb": _metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    kinds = {}
    for job, t in zip(jobs, typical):
        kinds.setdefault(job.kind, []).append(t)
    info = {"passes": passes, "jobs": len(jobs), "executions": attempted,
            "runs_per_job": [min(map(len, lat)), max(map(len, lat))],
            "timed_s": elapsed, "speed_samples": len(speed.samples),
            "speed_scale": speed.scale(start, start + elapsed),
            "wall_jobs_per_s": attempted / elapsed,
            "wall_job_p50_ms": 1e3 * statistics.median(
                b - a for x in lat for a, b in x),
            "wall_import_s": [dt for _, _, dt in imports],
            "wall_setup_s": [b - a for a, b in setups],
            "tail_percentile": pct, "tail_samples_beyond": TAIL_BEYOND,
            "samples": len(typical),
            "kind_p50_ms": {k: [len(v), 1e3 * statistics.median(v)]
                            for k, v in sorted(kinds.items())},
            "failed_frac": _metric(len(failures) / attempted, "1"),
            "failures": failures[:20]}
    result = {"correct": not failures, "attempted": attempted,
              "failed": len(failures), "metrics": metrics}
    return result, info


def _traced(args, setup, make_jobs, workdir, out_root) -> tuple:
    from speed import Speedometer
    from tracing import LAYER_METRICS, Tracer

    failures = []
    speed = Speedometer()
    tracer = Tracer()
    tracer.install()
    try:
        tracer.job = -1
        state = setup(workdir)
        jobs = make_jobs(state, args.seed, args.smoke)
        n = len(jobs)
        traced, traced_lat = [], []
        for k in range(2):
            lat, digests, nbytes = _run_pass(jobs, failures, speed, tracer,
                                             first_id=k * n)
            traced_lat += lat
            traced.append((digests, nbytes))
    finally:
        missing = tracer.uninstall()

    first, second = (tracer.layer_metrics(range(k * n, (k + 1) * n), 0)
                     for k in (0, 1))
    layers = tracer.layer_metrics([-1, *range(n)], traced[0][1])
    tracer.write(os.path.join(out_root,
                              f"spans-{args.workload}-{args.seed}.jsonl"))
    # Free the spans before the untraced pass; none may appear during it.
    tracer.spans.clear()
    state = setup(workdir)
    jobs = make_jobs(state, args.seed, args.smoke)
    plain_lat, plain, _ = _run_pass(jobs, failures, speed)

    problems = [f"not restored: {m}" for m in missing]
    if tracer.spans:
        problems.append("spans recorded after uninstall")
    for k, (digests, _) in enumerate(traced):
        for i, (a, b) in enumerate(zip(plain, digests)):
            if a != b:
                problems.append(f"traced pass {k + 1} job {i} "
                                f"({jobs[i].kind} {jobs[i].label}) output differs")
    problems += [f"{name}: {first[name]} in pass 1, {second[name]} in pass 2"
                 for name in first
                 if name.endswith(".calls") and first[name] != second[name]]

    def typical_s(lat):
        return _typical_s(_by_kind(jobs, [(b - a) * speed.scale(a, b)
                                          for a, b in lat]))

    traced_s = typical_s(traced_lat) / 2
    plain_s = typical_s(plain_lat)
    layers["trace.overhead"] = traced_s / plain_s - 1.0
    units = {m["name"]: m["unit"] for m in LAYER_METRICS}
    metrics = {k: _metric(v, units[k]) for k, v in layers.items()}
    attempted = 3 * n
    info = {"passes": 3, "jobs_per_pass": n, "untraced_typical_s": plain_s,
            "traced_typical_s": traced_s,
            "failed_frac": _metric(len(failures) / attempted, "1"),
            "failures": failures[:20], "trace_problems": problems[:20]}
    result = {"correct": not failures and not problems,
              "attempted": attempted, "failed": len(failures),
              "metrics": metrics}
    return result, info


if __name__ == "__main__":
    sys.exit(main())
