"""Reachable channel sets of controlled Lindblad systems.

Propagates piecewise-constant control schedules as time-ordered products
of segment exponentials, samples the semigroup of reachable channels,
audits the contraction witness s(t) = sum_k ||X(t)B_k||^2 along
trajectories of unital dynamics, and steers toward target channels by
bounded least squares on the exact derivatives of the propagated channel,
over a fixed number of switches.

On the quantum carriers every exponential and product runs on real Pauli
transfer matrices (`lindblad.ptm_directions`), and a channel goes back to
its superoperator matrix only where it leaves this module; r3 generators
are real already.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

import numpy as np

from .lindblad import (ControlSystem, drift_direction, ptm_directions, superop_from_ptm,
                       vec)
from .matcore import _checked_count, _checked_tol, expm, fro, stacked_fro

U_MAX = 5.0


@dataclass(frozen=True)
class Schedule:
    """Piecewise-constant control schedule: (duration, amplitudes) segments.

    Durations must be finite and nonnegative and amplitudes finite;
    ValueError naming the segment otherwise.
    """

    segments: tuple

    def __post_init__(self):
        segs = []
        for k, (dur, u) in enumerate(self.segments):
            dur = float(dur)
            u = tuple(float(v) for v in np.atleast_1d(u))
            if not np.isfinite(dur):
                raise ValueError(f"segment {k} has a non-finite duration {dur}")
            if dur < 0:
                raise ValueError(f"segment {k} has a negative duration {dur}")
            if not np.isfinite(u).all():
                raise ValueError(f"segment {k} has non-finite amplitudes {u}")
            segs.append((dur, u))
        object.__setattr__(self, "segments", tuple(segs))

    @property
    def n_segments(self) -> int:
        return len(self.segments)

    @property
    def total_duration(self) -> float:
        return float(sum(d for d, _ in self.segments))


def _segment_generators(sys: ControlSystem, segments) -> np.ndarray:
    """Real transfer-matrix generators L(u) of the segments, as one
    (n_segments, d, d) stack: the drift plus each control times its
    amplitude, added control by control, so every slice is what its segment
    alone gives.  ValueError naming the first segment whose amplitude count
    is not the system's control count."""
    drift, controls = ptm_directions(sys)
    m = sys.n_controls
    for k, (_, u) in enumerate(segments):
        if len(u) != m:
            raise ValueError(f"segment {k} has {len(u)} amplitudes for {m} controls")
    amps = np.array([u for _, u in segments], dtype=float).reshape(len(segments), m)
    gens = np.broadcast_to(drift, (len(segments), *drift.shape))
    for j in range(m):
        gens = gens + amps[:, j, None, None] * controls[j]
    return gens


def _identity(sys: ControlSystem) -> np.ndarray:
    """Identity transfer matrix on the carrier of `sys`."""
    return np.eye(ptm_directions(sys)[0].shape[0])


def _superop(sys: ControlSystem, t: np.ndarray) -> np.ndarray:
    """Superoperator matrix of a transfer matrix or stack on the carrier of
    `sys` (`lindblad.superop_from_ptm`); r3 matrices as they are."""
    return t if sys.rep == "r3" else superop_from_ptm(t)


def _exponentials(durations, gens: np.ndarray) -> np.ndarray:
    """Stack of ``expm(-d * gen)`` over the pairs, from one stacked `expm`
    call, or an empty stack without a call for no pairs; scipy's `expm`
    runs the same Pade code on each slice as on a single matrix, so every
    slice equals its own call bit for bit."""
    if not len(gens):
        return np.empty(gens.shape)
    return expm(-np.asarray(durations, dtype=float)[:, None, None] * gens)


def propagate(sys: ControlSystem, sched: Schedule) -> np.ndarray:
    """Time-ordered product of segment propagators, as a superoperator.

    Earlier segments act first, so their exponentials sit on the right of
    the matrix product; an empty schedule gives the identity channel.  The
    product runs on transfer matrices.
    """
    gens = _segment_generators(sys, sched.segments)
    out = _identity(sys)
    for e in _exponentials([d for d, _ in sched.segments], gens):
        out = e @ out
    return _superop(sys, out)


def _jacobian(sys: ControlSystem, sched: Schedule) -> np.ndarray:
    """Exact derivatives of ``propagate(sys, sched)`` by the schedule's
    parameters, stacked as an array of shape (n_params, n, n).

    The parameters run segment by segment, each segment's duration first
    and then its amplitudes.  For a segment with ``A = -d L(u)`` one
    exponential of the block-triangular ``[[A, B_1 ... B_m], [0, I (x) A]]``
    with ``B_k = -d C_k`` gives ``e^A`` and the Frechet derivatives of the
    exponential along every ``B_k`` in its top block row; the duration
    derivative is ``-L(u) e^A``.  The block matrices of all segments go
    through one stacked `expm` call.  Prefix and suffix products place each
    segment's derivatives in the time-ordered product.  All of this runs on
    transfer matrices, and the derivatives become superoperators at the end.
    """
    controls = ptm_directions(sys)[1]
    m = len(controls)
    gens = _segment_generators(sys, sched.segments)
    ident = _identity(sys)
    k, n = len(gens), ident.shape[0]
    if not k:
        return _superop(sys, np.empty((0, n, n)))
    durs = np.array([d for d, _ in sched.segments])[:, None, None]
    big = np.zeros((k, (m + 1) * n, (m + 1) * n))
    for j in range(m + 1):
        big[:, j * n:(j + 1) * n, j * n:(j + 1) * n] = -durs * gens
    big[:, :n, n:] = (-durs[:, None] * controls).transpose(0, 2, 1, 3).reshape(k, n, m * n)
    top = expm(big)[:, :n]
    exps = top[:, :, :n]
    frechet = top[:, :, n:].reshape(k, n, m, n).transpose(0, 2, 1, 3)
    derivs = np.concatenate([(-gens @ exps)[:, None], frechet], axis=1)
    prefix = [ident]
    for e in exps:
        prefix.append(e @ prefix[-1])
    out = []
    suffix = prefix[0]
    for j in reversed(range(k)):
        out.append(suffix @ derivs[j] @ prefix[j])
        suffix = suffix @ exps[j]
    return _superop(sys, np.concatenate(out[::-1]))


def random_schedule(n_controls: int, depth: int, horizon: float, seed,
                    u_max: float = U_MAX) -> Schedule:
    """Seeded random schedule of `depth` segments.

    Durations are uniform on (0, horizon/depth], amplitudes uniform on
    [-u_max, u_max]; `seed` is anything `np.random.default_rng` accepts.
    `depth` must be an integer >= 1, and `horizon` and `u_max` nonnegative
    and finite; ValueError otherwise.
    """
    depth = _checked_count("depth", depth, 1)
    if not 0 <= horizon < np.inf:
        raise ValueError(f"horizon must be nonnegative and finite, got {horizon}")
    if not 0 <= u_max < np.inf:
        raise ValueError(f"u_max must be nonnegative and finite, got {u_max}")
    rng = np.random.default_rng(seed)
    segs = []
    for _ in range(depth):
        dur = (horizon / depth) * (1.0 - rng.uniform(0.0, 1.0))
        segs.append((dur, rng.uniform(-u_max, u_max, size=n_controls)))
    return Schedule(tuple(segs))


def sample_reachable(sys: ControlSystem, n: int, depth: int,
                     horizon: float = 1.0, seed: int = 0,
                     u_max: float = U_MAX) -> list:
    """n random reachable channels as products of `depth` exponentials.

    Each sample propagates a `random_schedule` drawn from its own child
    stream spawned from `seed`, so results are reproducible regardless of
    evaluation order.  All n*depth segment exponentials come from one
    stacked `expm` call, and each sample is multiplied, and turned into a
    superoperator, as `propagate` does, so it equals `propagate` on its
    schedule bit for bit.  `n` must be an integer >= 1, and
    `random_schedule` checks `depth`, `horizon` and `u_max`; ValueError
    otherwise, before any draw.
    """
    n = _checked_count("count", n, 1)
    segs = [seg for child in np.random.SeedSequence(seed).spawn(n)
            for seg in random_schedule(sys.n_controls, depth, horizon, child, u_max).segments]
    gens = _segment_generators(sys, segs)
    exps = _exponentials([d for d, _ in segs], gens).reshape(n, depth, *gens.shape[1:])
    out = _identity(sys)
    for k in range(depth):
        out = exps[:, k] @ out
    return list(_superop(sys, out))


def _witness(sys: ControlSystem, x: np.ndarray) -> np.ndarray:
    """s = ||X||_F^2 of each transfer matrix in the stack `x`, X its
    traceless block ``x[1:, 1:]`` (the coherence representation
    transposed), or on r3 the whole matrix.

    One stacked test first checks each quantum channel's identity column
    and trace row off the identity entry, as `lindblad.coherence_rep` does
    against ``1e-11 * max(1, ||x||_F)``; ValueError at the first failing
    channel, its leak checked before its trace.
    """
    if sys.rep == "r3":
        return stacked_fro(x) ** 2
    bound = 1e-11 * np.maximum(1.0, stacked_fro(x))
    leak = stacked_fro(x[:, 1:, :1]) > bound
    trace = np.sqrt(isqrt(x.shape[-1])) * np.abs(x[:, 0, 1:]).max(axis=-1) > bound
    bad = leak | trace
    if bad.any():
        if leak[np.argmax(bad)]:
            raise ValueError("superoperator is not unital: identity leaks into the traceless sector")
        raise ValueError("superoperator does not preserve tracelessness")
    return stacked_fro(x[:, 1:, 1:]) ** 2


def contraction_audit(sys: ControlSystem, sched: Schedule,
                      grid: int = 50, tol: float = 1e-9) -> dict:
    """Contraction witness s(t) = ||X(t)||_F^2 along a schedule.

    X(t) is the coherence-sector matrix of the propagated channel, the
    traceless block of its transfer matrix, so s(t) = sum_k ||X(t)B_k||^2
    over the orthonormal traceless basis; for unital dissipative dynamics
    it never increases, and for closed systems it is constant.  Reports the
    values on a uniform time grid and the largest positive increment.

    A grid point on a segment boundary (``initial`` and ``final`` among
    them) reads the prefix product of the whole segments before it, and
    the first grid point inside segment k is ``expm(-(t - b_k) L_k) P_k``
    on the prefix P_k at the segment's start b_k.  Every later point
    inside the segment steps from the one before, ``X(t) = E_k X(t - h)``
    with ``E_k = expm(-h L_k)`` and h the grid step, so its s(t) may
    differ from one exponential per point by rounding, bounded by
    1e-12 * max(1, s(t)).  The whole segments, first offsets and steps, at
    most three exponentials per segment, come from one stacked `expm`
    call on transfer matrices, and s(t) from one stacked norm of their
    traceless blocks (`_witness`).
    `grid` must be an integer >= 2 and `tol` positive and finite;
    ValueError otherwise.
    """
    grid = _checked_count("grid", grid, 2)
    tol = _checked_tol(tol)
    if sys.rep != "r3":
        drift = drift_direction(sys)
        defect = np.linalg.norm(drift @ vec(np.eye(isqrt(drift.shape[0]))))
        if defect > 1e-10 * max(1.0, float(np.linalg.norm(drift))):
            raise ValueError("contraction audit requires unital dynamics")
    gens = _segment_generators(sys, sched.segments)
    times, step = np.linspace(0.0, sched.total_duration, grid, retstep=True)
    bounds = np.cumsum([0.0] + [d for d, _ in sched.segments])
    # prefix[k] is the channel after the first k whole segments; the grid
    # points inside segment k-1 are consecutive, the first adds that
    # segment's exponential for t - bounds[k-1] and each later one a step.
    ks = np.searchsorted(bounds[:-1], times)  # segments that start before t
    inside = np.flatnonzero(times < bounds[ks])
    segs = ks[inside] - 1
    first = np.diff(segs, prepend=-1) != 0
    heads, stepped = segs[first], np.unique(segs[~first])
    exps = _exponentials([*np.diff(bounds), *(times[inside[first]] - bounds[heads]),
                          *np.full(stepped.size, step)],
                         gens[np.r_[np.arange(len(gens)), heads, stepped]])
    prefix = [_identity(sys)]
    for e in exps[:len(gens)]:
        prefix.append(e @ prefix[-1])
    prefix = np.stack(prefix)
    x = prefix[ks]
    if inside.size:
        x[inside[first]] = exps[len(gens):len(gens) + heads.size] @ prefix[heads]
        steps = dict(zip(stepped.tolist(), exps[len(gens) + heads.size:]))
        for i, k in zip(inside[~first].tolist(), segs[~first].tolist()):
            x[i] = steps[k] @ x[i - 1]
    vals = [float(v) for v in _witness(sys, x)]
    diffs = np.diff(vals)
    return {
        "times": [float(t) for t in times],
        "s": vals,
        "initial": vals[0],
        "final": vals[-1],
        "max_increment": float(max(0.0, diffs.max())) if len(diffs) else 0.0,
        "monotone": bool(np.all(diffs <= tol)) if len(diffs) else True,
        "tol": tol,
    }


def least_squares(*args, **kwargs):
    """scipy's `least_squares`; `scipy.optimize` is imported on the first
    `steer`, not with this module."""
    from scipy.optimize import least_squares as _least_squares
    return _least_squares(*args, **kwargs)


def steer(sys: ControlSystem, target, switches: int, budget: int = 20,
          seed: int = 0, u_max: float = U_MAX) -> tuple:
    """Heuristic schedule search toward a target channel.

    Minimizes the entrywise residual between the propagated channel and
    the target, real and imaginary parts stacked, over
    switches*(1 + n_controls) parameters: each segment's duration, bounded
    below by 0, and its amplitudes, held within [-u_max, u_max].  A
    bounded trust-region least-squares solver runs on the exact Jacobian
    of the propagated channel from each of `budget` seeded random starts
    inside that box, and stops after the first restart that brings the
    distance to at most 1e-12 * max(1, ||target||).  Best-so-far bookkeeping
    makes the returned Frobenius distance monotone in the evaluation
    history, and the returned schedule lies in the box.  This is a
    heuristic: no optimality claim is made.
    `target` must be finite and have the shape of the system's generators,
    `switches` an integer >= 0, `budget` an integer >= 1 and `u_max`
    positive and finite; ValueError otherwise, before any propagation.
    """
    tmat = np.asarray(target)
    drift = drift_direction(sys)
    if tmat.shape != drift.shape:
        raise ValueError(f"target has shape {tmat.shape}, but the system's "
                         f"generators have shape {drift.shape}")
    if not np.isfinite(tmat).all():
        raise ValueError("target has non-finite entries")
    switches = _checked_count("switches", switches)
    budget = _checked_count("budget", budget, 1)
    if not 0 < u_max < np.inf:
        raise ValueError(f"u_max must be positive and finite, got {u_max}")
    m = sys.n_controls
    if switches == 0:
        sched = Schedule(())
        return sched, float(fro(_identity(sys) - tmat))
    width = 1 + m
    cplx = np.iscomplexobj(drift) or np.iscomplexobj(tmat)
    lower = np.tile(np.r_[0.0, np.full(m, -u_max)], switches)
    upper = np.tile(np.r_[np.inf, np.full(m, u_max)], switches)
    best = {"val": np.inf, "params": None}

    def unpack(p):
        return Schedule(tuple((p[j * width], p[j * width + 1:(j + 1) * width])
                              for j in range(switches)))

    def realified(z):
        z = z.reshape(*z.shape[:-2], -1)
        return np.concatenate([z.real, z.imag], axis=-1) if cplx else z

    def residual(p):
        diff = propagate(sys, unpack(p)) - tmat
        d = float(fro(diff))
        if d < best["val"]:
            best["val"] = d
            best["params"] = np.array(p, dtype=float)
        return realified(diff)

    def jacobian(p):
        return realified(_jacobian(sys, unpack(p))).T

    converged = 1e-12 * max(1.0, float(fro(tmat)))
    for child in np.random.SeedSequence(seed).spawn(budget):
        rng = np.random.default_rng(child)
        x0 = np.empty(switches * width)
        for j in range(switches):
            x0[j * width] = rng.uniform(0.05, 1.0)
            x0[j * width + 1:(j + 1) * width] = rng.uniform(-u_max, u_max, size=m)
        least_squares(residual, x0, jac=jacobian, bounds=(lower, upper),
                      method="trf", xtol=1e-15, ftol=1e-15, gtol=1e-15)
        if best["val"] <= converged:
            break
    return unpack(best["params"]), float(best["val"])
