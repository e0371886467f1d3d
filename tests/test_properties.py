"""Property tests of the cached generators, the one-product coherence maps,
the incremental contraction audit, the stacked realification, the batched
conjugation kernel, the derived family kind, the right-nested Lie closure,
the one-array cones and subspaces, the merged aligned orbit support, the
one-search support function, the merged frequency table, the per-shape
template report writer and system-file formatter, the exact steering
Jacobian and the stacked reachable kernels (one real `expm` call per
audit, sample set, propagation or Jacobian, on Pauli transfer matrices)
against loop, expm, edge-rule, full-pairwise, per-generator, two-branch, three-routine,
per-entry, two-pass or central-difference references kept here, and the
Schur-Horn and Caratheodory-Toeplitz distance bounds against a dense-sample
NNLS fit, the condition dimensions on transfer matrices under unitary
conjugation and against the superoperator closure, and the exact outer
wedge (`gks_margin`, `outer_contains`) on GKS generators, saturated wedges
and one-segment channels."""

from __future__ import annotations

import functools
import json
from math import isqrt

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.linalg import logm
from scipy.optimize import minimize, minimize_scalar, nnls

from liewedge.channels import NAMES, H_X, H_Y, H_Z, ChannelSpec, build_system, sigma, sigma2
from liewedge.cli import _dumps, format_system_file
from liewedge.liealg import check_conditions, lie_closure
from liewedge.lindblad import (ControlSystem, ad_hat, gks_dissipator, gks_margin,
                               gks_term, ham_drift_direction, lindbladian, pauli_basis,
                               ptm_directions, ptm_rep, superop_from_ptm, unvec, vec)
from liewedge.matcore import (Subspace, _rank, comm, eig_sym, expm, fro, inner, kron,
                              orthonormal_span)
from liewedge import reachable, semialgebra
from liewedge import wedge as wedge_module
from liewedge.reachable import (Schedule, _jacobian, contraction_audit, propagate,
                                random_schedule, sample_reachable, steer)
from liewedge.semialgebra import bch, orbit_wedge
from liewedge.wedge import (Cone, ConjugationFamily, MomentCurve, RotationOrbit, Wedge,
                            _cone_fit, cone_contains, cone_residual, initial_wedge, lineality,
                            outer_contains, saturate, wedge_contains)

REPS = ("r3", "qubit", "two_qubit")
HILBERT_DIM = {"qubit": 2, "two_qubit": 4}
SETTINGS = settings(max_examples=40, deadline=None)


def _hermitian(rng, n):
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (m + m.conj().T) / 2.0


def _skew(rng):
    a = rng.normal(size=(3, 3))
    return (a - a.T) / 2.0


def _ham(h: np.ndarray) -> np.ndarray:
    """The generator i ad(h) of a Hamiltonian on the real carrier: its Pauli
    transfer matrix."""
    return ptm_rep(1j * ad_hat(h))


def _off_span(base: np.ndarray, seeds) -> np.ndarray:
    """`base` minus its projection onto the seeds' span, as a family's base
    must be."""
    return base - orthonormal_span(list(seeds)).project(base)


def _columns(mats) -> np.ndarray:
    """A stack of matrices as the columns of one array."""
    mats = np.asarray(mats)
    return mats.reshape(len(mats), -1).T


def _real_form(m: np.ndarray) -> np.ndarray:
    """The real matrix [[Re m, -Im m], [Im m, Re m]] of a complex one: a
    faithful real representation, so brackets and real spans carry over."""
    return np.block([[m.real, -m.imag], [m.imag, m.real]])


def _random_system(rep: str, seed: int, n_controls: int, n_ops: int,
                   unital: bool = True) -> ControlSystem:
    """Random system; quantum noise operators are Hermitian when `unital`."""
    rng = np.random.default_rng(seed)
    if rep == "r3":
        ops = []
        for _ in range(n_ops):
            a = rng.normal(size=(3, 3))
            ops.append((a @ a.T, rng.uniform(0.0, 1.0)))
        return ControlSystem(rep="r3", drift_H=_skew(rng),
                             controls=tuple(_skew(rng) for _ in range(n_controls)),
                             lindblad_ops=tuple(ops))
    n = HILBERT_DIM[rep]
    ops = []
    for _ in range(n_ops):
        v = _hermitian(rng, n)
        if not unital:
            v = v + rng.normal(size=(n, n))
        ops.append((v, rng.uniform(0.0, 1.0)))
    return ControlSystem(rep=rep, drift_H=_hermitian(rng, n),
                         controls=tuple(_hermitian(rng, n) for _ in range(n_controls)),
                         lindblad_ops=tuple(ops))


systems = st.builds(_random_system, st.sampled_from(REPS), st.integers(0, 2**32 - 1),
                    st.integers(0, 2), st.integers(0, 2), st.booleans())


def _control_generators(sys: ControlSystem) -> list:
    """i ad(c) of each control Hamiltonian c, or on r3 the controls."""
    if sys.rep == "r3":
        return [c.copy() for c in sys.controls]
    return [1j * ad_hat(c) for c in sys.controls]


def _reference_lindbladian(sys: ControlSystem, u) -> np.ndarray:
    """Fresh assembly from ad_hat / gks_term, in the library's order."""
    if sys.rep == "r3":
        diss = np.zeros((3, 3))
        for v, g in sys.lindblad_ops:
            diss += g * v
        drift = sys.drift_H.copy() + diss
    else:
        n = sys.drift_H.shape[0]
        if sys.lindblad_ops:
            diss = gks_dissipator(sys.lindblad_ops)
        else:
            diss = np.zeros((n * n, n * n), dtype=complex)
        drift = 1j * ad_hat(sys.drift_H) + diss
    m = drift.copy()
    for uj, cj in zip(np.asarray(u, dtype=float), _control_generators(sys)):
        m = m + uj * cj
    return m


def _reference_coherence_rep(m: np.ndarray, n: int, tol: float = 1e-12) -> np.ndarray:
    """Entry-by-entry coherence representation with the same checks."""
    basis = pauli_basis(n)
    norm = max(1.0, fro(m))
    eye_v = vec(np.eye(n)) / np.sqrt(n)
    out_id = m @ eye_v
    leak = out_id - eye_v * np.vdot(eye_v, out_id)
    if np.linalg.norm(leak) > tol * norm * 10:
        raise ValueError("superoperator is not unital: identity leaks into the traceless sector")
    cr = np.zeros((len(basis), len(basis)))
    for i, bi in enumerate(basis):
        out = unvec(m @ vec(bi), n)
        if abs(np.trace(out)) > tol * norm * 10:
            raise ValueError("superoperator does not preserve tracelessness")
        for j, bj in enumerate(basis):
            c = inner(bj, out) + 1j * np.imag(np.trace(bj.conj().T @ out))
            if abs(np.imag(c)) > tol * norm * 10:
                raise ValueError("coherence representation has non-real entries")
            cr[i, j] = np.real(c)
    return cr


def _coherence_ptm(s: np.ndarray) -> np.ndarray:
    """The transfer matrix of the unital map whose coherence representation
    is s: the traceless block s.T inside a zero border."""
    t = np.zeros((len(s) + 1, len(s) + 1))
    t[1:, 1:] = np.asarray(s).T
    return t


def _coherence(x: np.ndarray) -> np.ndarray:
    """The coherence representation ``Re(V^H x V)^T`` of a unital quantum
    superoperator, ``V = [vec(B_1), ...]`` over `pauli_basis`, in one
    product (the audit references call it at every grid point, where the
    entry loop is too slow); an r3 matrix as it is."""
    if x.shape == (3, 3):
        return x
    v = np.stack([vec(b) for b in pauli_basis(isqrt(x.shape[0]))], axis=1)
    return (v.conj().T @ x @ v).real.T


def _reference_audit_s(sys: ControlSystem, sched: Schedule, grid: int) -> list:
    """s(t) by re-propagating from t = 0 at every grid point."""
    gens = [lindbladian(sys, u) for _, u in sched.segments]
    times = np.linspace(0.0, sched.total_duration, grid)
    bounds = np.cumsum([0.0] + [d for d, _ in sched.segments])
    dim = lindbladian(sys).shape[0]
    vals = []
    for t in times:
        x = np.eye(dim, dtype=complex if sys.rep != "r3" else float)
        for k, gen in enumerate(gens):
            lo, hi = bounds[k], bounds[k + 1]
            if t <= lo:
                break
            x = expm(-(min(t, hi) - lo) * gen) @ x
        vals.append(float(np.linalg.norm(_coherence(x), "fro") ** 2))
    return vals


@SETTINGS
@given(systems, st.integers(0, 2**32 - 1))
def test_lindbladian_is_bitwise_a_fresh_assembly(sys, seed):
    rng = np.random.default_rng(seed)
    for u in (np.zeros(sys.n_controls), rng.uniform(-5.0, 5.0, size=sys.n_controls)):
        got = lindbladian(sys, u)
        want = _reference_lindbladian(sys, u)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


@SETTINGS
@given(st.sampled_from(("qubit", "two_qubit")), st.integers(0, 2**32 - 1),
       st.integers(0, 2), st.integers(0, 2), st.booleans())
def test_ptm_is_real_round_trips_and_holds_the_coherence_rep(rep, seed, n_controls, n_ops,
                                                           unital):
    """On random generators, non-unital ones included, with W = [vec(I)/sqrt(N),
    vec(B_k)] built here from `pauli_basis`: W^H L W is real to rounding and
    `ptm_rep` is its real part, W T W^H gives L back, the cached transfer
    matrices are `ptm_rep` of the freshly assembled generators, and the
    reference loop's coherence representation of L is the traceless block
    transposed, or, where L is not unital, refused while T's identity
    column leaks into the traceless block."""
    sys = _random_system(rep, seed, n_controls, n_ops, unital)
    n = HILBERT_DIM[rep]
    w = np.column_stack([vec(np.eye(n)) / np.sqrt(n), *(vec(b) for b in pauli_basis(n))])
    gen = lindbladian(sys, np.random.default_rng(seed).uniform(-5.0, 5.0, size=n_controls))
    scale = max(1.0, fro(gen))
    t = ptm_rep(gen)
    full = w.conj().T @ gen @ w
    assert t.dtype == np.float64
    assert np.max(np.abs(full.imag)) <= 1e-14 * scale
    assert np.max(np.abs(t - full.real)) <= 1e-14 * scale
    assert np.max(np.abs(superop_from_ptm(t) - gen)) <= 1e-14 * scale
    drift_t, controls_t = ptm_directions(sys)
    assert drift_t.tobytes() == ptm_rep(lindbladian(sys)).tobytes()
    assert controls_t.shape == (n_controls, n * n, n * n)
    for c, ct in zip(sys.controls, controls_t):
        assert ct.tobytes() == ptm_rep(1j * ad_hat(c)).tobytes()
    assert np.max(np.abs(t[0])) <= 1e-14 * scale  # trace-preserving
    if unital or not n_ops:
        assert fro(t[1:, 0]) <= 1e-13 * scale
        assert np.max(np.abs(_reference_coherence_rep(gen, n) - t[1:, 1:].T)) <= 1e-14 * scale
    else:
        assert fro(t[1:, 0]) > 1e-11 * scale
        with pytest.raises(ValueError, match="not unital"):
            _reference_coherence_rep(gen, n)


def _assert_close(got, want):
    """Same shape, and every entry within 1e-12 * max(1, |want|): the
    reachable kernels run on real transfer matrices, the references on
    complex superoperators, so they agree to rounding only."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))


@SETTINGS
@given(st.sampled_from(REPS), st.integers(0, 2**32 - 1), st.integers(0, 2),
       st.integers(0, 2), st.lists(st.integers(0, 3), min_size=0, max_size=5),
       st.integers(2, 200))
def test_contraction_audit_is_bitwise_naive_repropagation(rep, seed, n_controls,
                                                          n_ops, quarters, grid):
    """With durations in multiples of 1/4 (zero allowed) the first grid lands
    exactly on every segment boundary; the second schedule has arbitrary
    durations on an arbitrary grid.  Within 1e-12 relative at every point."""
    sys = _random_system(rep, seed, n_controls, n_ops)
    rng = np.random.default_rng(seed)
    amps = [rng.uniform(-5.0, 5.0, size=n_controls) for _ in quarters]
    on_grid = Schedule(tuple((q / 4.0, a) for q, a in zip(quarters, amps)))
    off_grid = Schedule(tuple((q * rng.uniform(0.1, 0.4), a)
                              for q, a in zip(quarters, amps)))
    for sched, g in ((on_grid, max(2, sum(quarters) + 1)), (off_grid, grid)):
        audit = contraction_audit(sys, sched, grid=g)
        _assert_close(audit["s"], _reference_audit_s(sys, sched, g))


def _identity_channel(sys: ControlSystem) -> np.ndarray:
    drift = lindbladian(sys)
    return np.eye(*drift.shape, dtype=drift.dtype)


def _reference_propagate(sys: ControlSystem, sched: Schedule) -> np.ndarray:
    """One `expm` call per segment, multiplied onto the identity in turn."""
    out = _identity_channel(sys)
    for dur, u in sched.segments:
        out = expm(-dur * lindbladian(sys, u)) @ out
    return out


def _reference_sample_reachable(sys: ControlSystem, n: int, depth: int,
                                seed: int) -> list:
    """One `propagate` per sample, each on its own child stream."""
    return [_reference_propagate(sys, random_schedule(sys.n_controls, depth, 1.0, child))
            for child in np.random.SeedSequence(seed).spawn(n)]


def _reference_audit_loop(sys: ControlSystem, sched: Schedule, grid: int) -> list:
    """s(t) point by point: one `expm` and one coherence loop per grid point
    inside a segment, whole segments taken from the prefix products."""
    gens = [lindbladian(sys, u) for _, u in sched.segments]
    times = np.linspace(0.0, sched.total_duration, grid)
    bounds = np.cumsum([0.0] + [d for d, _ in sched.segments])
    prefix = [_identity_channel(sys)]
    for k, gen in enumerate(gens):
        prefix.append(expm(-(bounds[k + 1] - bounds[k]) * gen) @ prefix[k])
    vals = []
    for t in times:
        k = int(np.searchsorted(bounds[:-1], t))
        if t >= bounds[k]:
            x = prefix[k]
        else:
            x = expm(-(t - bounds[k - 1]) * gens[k - 1]) @ prefix[k - 1]
        vals.append(float(np.linalg.norm(_coherence(x), "fro") ** 2))
    return vals


def _reference_jacobian(sys: ControlSystem, sched: Schedule) -> np.ndarray:
    """The block-triangular exponential of each segment by its own call."""
    controls = _control_generators(sys)
    m = len(controls)
    exps, derivs = [], []
    for dur, u in sched.segments:
        gen = lindbladian(sys, u)
        n = gen.shape[0]
        big = np.kron(np.eye(m + 1), -dur * gen)
        for k, c in enumerate(controls, 1):
            big[:n, k * n:(k + 1) * n] = -dur * c
        top = expm(big)[:n]
        e = top[:, :n]
        exps.append(e)
        frechet = top[:, n:].reshape(n, m, n).transpose(1, 0, 2)
        derivs.append(np.concatenate([(-gen @ e)[None], frechet]))
    prefix = [_identity_channel(sys)]
    for e in exps:
        prefix.append(e @ prefix[-1])
    out = []
    suffix = prefix[0]
    for j in reversed(range(len(exps))):
        out.append(suffix @ derivs[j] @ prefix[j])
        suffix = suffix @ exps[j]
    return np.concatenate(out[::-1])


schedule_quarters = st.lists(st.integers(0, 3), min_size=0, max_size=5)


def _reachable_schedules(sys: ControlSystem, quarters, seed: int) -> list:
    """(schedule, grid) pairs: durations in quarters on a grid that lands on
    every segment boundary, arbitrary durations on an arbitrary grid, and the
    one-segment and empty schedules."""
    rng = np.random.default_rng(seed)
    amps = [rng.uniform(-5.0, 5.0, size=sys.n_controls) for _ in quarters]
    on_grid = Schedule(tuple((q / 4.0, a) for q, a in zip(quarters, amps)))
    off_grid = Schedule(tuple((q * rng.uniform(0.1, 0.4), a)
                              for q, a in zip(quarters, amps)))
    grid = int(rng.integers(2, 201))
    return [(on_grid, max(2, sum(quarters) + 1)), (off_grid, grid),
            (Schedule(off_grid.segments[:1]), grid), (Schedule(()), grid)]


@SETTINGS
@given(systems, schedule_quarters, st.integers(0, 2**32 - 1))
def test_stacked_audit_is_bitwise_the_per_point_loop(sys, quarters, seed):
    """Zero-duration segments, grid points on segment boundaries, one
    segment and no segment, on grids up to 200 points; within 1e-12
    relative at every point; non-unital quantum systems are refused."""
    unital = sys.rep == "r3" or all(np.allclose(v, v.conj().T) for v, _ in sys.lindblad_ops)
    for sched, grid in _reachable_schedules(sys, quarters, seed):
        if not unital:
            with pytest.raises(ValueError, match="unital"):
                contraction_audit(sys, sched, grid=grid)
            continue
        got = contraction_audit(sys, sched, grid=grid)["s"]
        _assert_close(got, _reference_audit_loop(sys, sched, grid))


@SETTINGS
@given(st.builds(_random_system, st.sampled_from(REPS), st.integers(0, 2**32 - 1),
                 st.integers(0, 2), st.integers(0, 2)),
       schedule_quarters, st.integers(0, 2**32 - 1))
def test_contraction_audit_keeps_the_coherence_band(sys, quarters, seed):
    """s(t_j+1) / s(t_j) lies in [exp(-2 l_max D), exp(-2 l_min D)] to 1e-12
    relative, for D the grid step and l_min, l_max the extreme eigenvalues
    of the symmetric part of the coherence-sector generator over the
    schedule's segments: ds/dt = -2 tr(X^T A_sym X) for unital dynamics."""
    for sched, grid in _reachable_schedules(sys, quarters, seed):
        audit = contraction_audit(sys, sched, grid=grid)
        s, times = np.array(audit["s"]), np.array(audit["times"])
        if not sched.segments:
            assert np.all(s == s[0])
            continue
        lams = []
        for _, u in sched.segments:
            gen = lindbladian(sys, u)
            a = _coherence(gen)
            lams.extend(np.linalg.eigvalsh((a + a.T) / 2.0)[[0, -1]])
        ratio, dt = s[1:] / s[:-1], np.diff(times)
        assert np.all(ratio >= np.exp(-2.0 * max(lams) * dt) * (1.0 - 1e-12))
        assert np.all(ratio <= np.exp(-2.0 * min(lams) * dt) * (1.0 + 1e-12))


@SETTINGS
@given(systems, schedule_quarters, st.integers(0, 2**32 - 1))
def test_stacked_propagate_and_jacobian_are_bitwise_the_segment_loop(sys, quarters, seed):
    """Within 1e-12 relative of one `expm` per segment on the complex
    superoperators, and exactly the identity on the empty schedule."""
    for sched, _ in _reachable_schedules(sys, quarters, seed):
        got = propagate(sys, sched)
        want = _reference_propagate(sys, sched)
        assert got.dtype == want.dtype
        _assert_close(got, want)
        jac = _jacobian(sys, sched)
        if not sched.segments:
            assert jac.shape == (0, *want.shape) and jac.dtype == want.dtype
            assert got.tobytes() == want.tobytes()
            continue
        _assert_close(jac, _reference_jacobian(sys, sched))


@SETTINGS
@given(systems, st.integers(1, 4), st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_stacked_sampler_is_bitwise_the_per_sample_loop(sys, count, depth, seed):
    """Within 1e-12 relative of one complex `propagate` per sample."""
    got = sample_reachable(sys, count, depth, seed=seed)
    want = _reference_sample_reachable(sys, count, depth, seed)
    assert len(got) == count
    assert all(g.dtype == w.dtype for g, w in zip(got, want))
    _assert_close(got, want)


def test_reachable_runs_make_one_expm_call_each(monkeypatch):
    """One stacked `expm` call per `sample_reachable`, `propagate`,
    `_jacobian` and `contraction_audit` call, and none for an empty
    schedule; the audit's stack holds at most three slices per segment
    (whole segment, first offset, step), not one per grid point.  On qubit
    and two-qubit systems every stack is real: the exponentials run on
    Pauli transfer matrices."""
    calls = []

    def counting(a):
        calls.append((np.shape(a), np.asarray(a).dtype))
        return expm(a)

    monkeypatch.setattr(reachable, "expm", counting)
    for name in ("phase_flip", "two_qubit_C"):
        sys = build_system(ChannelSpec(name=name))
        sched = random_schedule(sys.n_controls, 3, 1.0, 4)
        for run, stack in ((lambda: sample_reachable(sys, 5, 3), 15),
                           (lambda: propagate(sys, sched), 3),
                           (lambda: _jacobian(sys, sched), 3)):
            calls.clear()
            run()
            assert len(calls) == 1
            assert calls[0][0][0] == stack and calls[0][1] == np.float64
        calls.clear()
        contraction_audit(sys, sched, grid=50)
        assert len(calls) == 1
        assert calls[0][0][0] <= 3 * sched.n_segments and calls[0][1] == np.float64
        calls.clear()
        propagate(sys, Schedule(()))
        _jacobian(sys, Schedule(()))
        contraction_audit(sys, Schedule(()), grid=5)
        assert calls == []


# Steering systems: r3 with two controls, a qubit with one, two qubits with two.
STEER_SYSTEMS = {
    "example1": build_system(ChannelSpec(name="example1")),
    "bit_flip": build_system(ChannelSpec(name="bit_flip", control_axes=("x",),
                                         drift_axis="z")),
    "two_qubit_C": build_system(ChannelSpec(name="two_qubit_C")),
}


def _schedule(params, width: int) -> Schedule:
    """Segments of `width` parameters each: a duration, then amplitudes."""
    return Schedule(tuple((params[j], params[j + 1:j + width])
                          for j in range(0, len(params), width)))


def _central_difference_jacobian(sys: ControlSystem, params, width: int,
                                 h: float = 1e-6) -> np.ndarray:
    """d propagate / d params by central differences, one parameter at a time."""
    cols = []
    for step in h * np.eye(len(params)):
        cols.append((propagate(sys, _schedule(params + step, width))
                     - propagate(sys, _schedule(params - step, width))) / (2.0 * h))
    return np.stack(cols)


@SETTINGS
@given(st.sampled_from(sorted(STEER_SYSTEMS)), st.integers(0, 2**32 - 1),
       st.integers(1, 3))
def test_jacobian_matches_central_differences(name, seed, segments):
    """Durations stay at least 0.05 from zero so every central step is a
    legal schedule."""
    sys = STEER_SYSTEMS[name]
    width = 1 + sys.n_controls
    rng = np.random.default_rng(seed)
    params = np.concatenate([np.r_[rng.uniform(0.05, 1.0),
                                   rng.uniform(-3.0, 3.0, size=sys.n_controls)]
                             for _ in range(segments)])
    got = _jacobian(sys, _schedule(params, width))
    want = _central_difference_jacobian(sys, params, width)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-6 * max(1.0, np.max(np.abs(want)))


@settings(max_examples=8, deadline=None)
@given(st.sampled_from(("example1", "bit_flip")), st.integers(0, 2**32 - 1),
       st.integers(1, 2), st.floats(0.1, 2.0))
def test_steered_schedules_stay_in_the_box(name, seed, switches, u_max):
    """Targets come from amplitudes up to 3*u_max, so the amplitude bound is
    often active at the solution."""
    sys = STEER_SYSTEMS[name]
    rng = np.random.default_rng(seed)
    truth = Schedule(tuple((rng.uniform(0.0, 1.0),
                            rng.uniform(-3.0 * u_max, 3.0 * u_max, size=sys.n_controls))
                           for _ in range(switches)))
    sched, dist = steer(sys, propagate(sys, truth), switches, budget=2, seed=seed,
                        u_max=u_max)
    assert sched.n_segments == switches
    assert all(d >= 0.0 for d, _ in sched.segments)
    assert all(abs(v) <= u_max for _, u in sched.segments for v in u)
    assert dist == pytest.approx(fro(propagate(sys, sched) - propagate(sys, truth)))


# family shapes of `_family`: one seed, two commuting seeds (both tori) and
# three random seeds (an orbit; two on r3); `_commuting_family` adds three
# commuting ones
KINDS = ("torus1", "torus2", "orbit")
TORI = ("torus1", "torus2", "torus3")


def _family(rep: str, kind: str, seed: int, skew: bool = True) -> ConjugationFamily:
    """Unit-norm seeds: skew 3x3 (r3) or the transfer matrices of i*ad_hat(H)
    (quantum), commuting for torus2; a random base projected off the seeds'
    span; a perturbed, non-skew first seed unless `skew`, which the
    constructor rejects.  An r3 orbit takes two seeds: three span so(3),
    where every base off their span is symmetric, a full-rotation orbit with
    a closed form."""
    rng = np.random.default_rng(seed)
    n_params = {"torus1": 1, "torus2": 2, "orbit": 2 if rep == "r3" else 3}[kind]
    if rep == "r3":
        first = _skew(rng)
        seeds = ([first, 2.0 * first] if kind == "torus2"
                 else [_skew(rng) for _ in range(n_params)])
        if not skew:
            seeds[0] = seeds[0] + rng.normal(size=(3, 3))
        base = rng.normal(size=(3, 3))
    else:
        n = HILBERT_DIM[rep]
        hs = [_hermitian(rng, n) for _ in range(n_params)]
        if kind == "torus2":
            q = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))[0]
            hs = [q @ np.diag(rng.normal(size=n)) @ q.conj().T for _ in range(2)]
        seeds = [_ham(h) for h in hs]
        if not skew:
            seeds[0] = seeds[0] + rng.normal(size=seeds[0].shape)
        base = rng.normal(size=(n * n, n * n))
    fam = ConjugationFamily(tuple(s / fro(s) for s in seeds), _off_span(base, seeds))
    assert fam.kind == ("orbit" if kind == "orbit" else "torus")
    return fam


def _reference(fam: ConjugationFamily, g: np.ndarray, params) -> np.ndarray:
    a = sum(p * s for p, s in zip(params, fam.seeds))
    return expm(a) @ g @ expm(-a)


def _expm_long_double(a: np.ndarray) -> np.ndarray:
    """expm of a long double matrix: a Taylor sum to degree 20 of a / 2^s,
    1-norm at most 1/2, squared s times; its error is of order eps_ld |a|."""
    norm = float(np.abs(a).sum(axis=0).max())
    s = int(np.ceil(np.log2(norm))) + 1 if norm > 0.5 else 0
    x = a / np.longdouble(2.0) ** s
    out = term = np.eye(len(a), dtype=a.dtype)
    for k in range(1, 21):
        term = term @ x / k
        out = out + term
    for _ in range(s):
        out = out @ out
    return out


def _reference_long_double(fam: ConjugationFamily, g: np.ndarray, params) -> np.ndarray:
    """expm(a) g expm(-a) with a = sum_i params_i seed_i, formed and
    exponentiated in long double.  A torus sweep can reach params of 1e6
    and more (a box 2 pi / u for a frequency u near 1e-6), where scipy's
    `expm`, as `_reference` uses it, already drifts by more than the 1e-12
    that `_close` allows."""
    a = sum(np.longdouble(p) * s.astype(np.clongdouble) for p, s in zip(params, fam.seeds))
    want = _expm_long_double(a) @ np.asarray(g).astype(np.clongdouble) @ _expm_long_double(-a)
    return want.astype(complex)


def _close(got: np.ndarray, want: np.ndarray, g: np.ndarray) -> bool:
    """Within 1e-12 max(1, ||g||); unitary conjugation keeps ||want|| = ||g||."""
    return np.max(np.abs(got - want)) <= 1e-12 * max(1.0, fro(g))


@SETTINGS
@given(st.sampled_from(REPS), st.sampled_from(KINDS), st.integers(0, 2**32 - 1),
       st.integers(1, 40))
@example(rep="two_qubit", kind="torus2", seed=448, count=5)
@example(rep="two_qubit", kind="torus2", seed=2684, count=40)
def test_conjugation_kernel_matches_expm(rep, kind, seed, count):
    """The stacked-eigh kernel agrees with expm(a) g expm(-a); sweep points,
    which reach params near 8e6 on the second example's box, are held to
    the long double reference."""
    fam = _family(rep, kind, seed)
    rng = np.random.default_rng(seed)
    g = rng.normal(size=fam.base.shape)
    params = rng.normal(scale=np.pi, size=fam.n_params)
    assert _close(fam.conjugate(g, params), _reference(fam, g, params), g)
    assert _close(fam.element(params), _reference(fam, fam.base, params), fam.base)
    swept = fam.sweep(count, rng)
    if kind == "torus1":
        assert len(swept) == count
    elif kind == "torus2":
        assert len(swept) == max(2, int(np.ceil(np.sqrt(count)))) ** 2
    for p, elem in swept:
        assert p.shape == (fam.n_params,)
        assert _close(elem, _reference_long_double(fam, fam.base, p), fam.base)
    stack = np.stack([g, fam.base, -g])
    thetas = rng.normal(size=(3, fam.n_params))
    for got, gi, p in zip(fam.elements(thetas, stack), stack, thetas):
        assert _close(got, _reference(fam, gi, p), gi)


@SETTINGS
@given(st.sampled_from(REPS), st.sampled_from(KINDS), st.integers(0, 2**32 - 1))
def test_non_skew_seeds_are_rejected(rep, kind, seed):
    """A seed that is not skew exponentiates to no rotation, so it has no
    period and no eigh kernel: the family refuses it."""
    with pytest.raises(ValueError, match="real skew seeds"):
        _family(rep, kind, seed, skew=False)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(REPS), st.sampled_from(("torus1", "torus2")), st.integers(0, 2**32 - 1),
       st.integers(0, 6), st.booleans(), st.floats(0.0, 2.0), st.floats(-4.0, 4.0))
@example(rep="r3", kind="torus1", seed=0, count=0, analytic=True,
         noise=7.491114060928873e-184, log_scale=0.0)
@example(rep="r3", kind="torus1", seed=0, count=0, analytic=False,
         noise=7.491114060928873e-184, log_scale=0.0)
@example(rep="qubit", kind="torus1", seed=0, count=0, analytic=False,
         noise=2.2250738585e-313, log_scale=0.0)
@example(rep="qubit", kind="torus1", seed=0, count=0, analytic=False,
         noise=5e-324, log_scale=0.0)
def test_cone_fit_residual_never_exceeds_the_norm(rep, kind, seed, count, analytic,
                                                  noise, log_scale):
    """Zero lies in every cone, so a fit's residual is at most ||x||: the
    invariant the BCH-closure probe's edge screen rests on.  The points of
    the family's sweep, held as the family's cone (which fits with column
    generation) or as plain generators (tori: the random orbit search costs
    seconds per fit); x a signed mix of them plus noise, at any scale."""
    fam = _family(rep, kind, seed)
    rng = np.random.default_rng(seed)
    thetas = fam.params(count, rng)
    gens = list(fam.elements(thetas))
    shape = fam.base.shape
    cone = (Cone(shape=shape, analytic=fam, thetas=thetas)
            if analytic else Cone(generators=tuple(gens), shape=shape))
    x = noise * rng.normal(size=fam.base.shape)
    for g in gens:
        x = x + rng.normal() * g
    x = 10.0 ** log_scale * x
    assert _cone_fit(cone, x)[0] <= fro(x) * (1 + 1e-12)


def _reference_periods(fam: ConjugationFamily):
    """None unless the seeds commute pairwise; else 2 pi / u_i per seed, u_i
    the seed's least eigenphase difference above the merge tolerance (under
    a dense base every difference is live)."""
    if any(fro(a @ b - b @ a) > 1e-10 for a in fam.seeds for b in fam.seeds):
        return None
    deltas = [np.abs(np.subtract.outer(w, w))
              for w in (np.linalg.eigvalsh(1j * np.asarray(s, dtype=complex)) for s in fam.seeds)]
    floor = 1e-12 * max(1.0, max(d.max() for d in deltas))
    return tuple(2.0 * np.pi / d[d > floor].min() for d in deltas)


@SETTINGS
@given(st.sampled_from(REPS), st.integers(0, 2**32 - 1), st.integers(1, 3), st.booleans())
def test_derived_kind_matches_the_edge_rule(rep, seed, count, commuting):
    """Edges of 1-3 random (or commuting) rotation generators: the family
    on the edge's basis is a torus exactly when its seeds commute, its box
    holds 2 pi over each seed's least eigenphase difference, an orbit has
    no box, and neither kind, box nor `periodic` can be set."""
    rng = np.random.default_rng(seed)
    if rep == "r3":
        first = _skew(rng)
        gens = [(rng.normal() * first if commuting else _skew(rng)) for _ in range(count)]
    else:
        n = HILBERT_DIM[rep]
        q = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))[0]
        hs = [q @ np.diag(rng.normal(size=n)) @ q.conj().T if commuting
              else _hermitian(rng, n) for _ in range(count)]
        gens = [_ham(h) for h in hs]
    edge = orthonormal_span(gens)
    base = rng.normal(size=edge.shape)
    fam = ConjugationFamily(edge.mats, base - edge.project(base))
    want = _reference_periods(fam)
    assert fam.kind == ("orbit" if want is None else "torus")
    if want is None:
        assert fam.periods is None and fam.periodic is False
    else:
        np.testing.assert_allclose(fam.periods, want, rtol=1e-9)
    for name in ("kind", "periods", "periodic"):
        with pytest.raises(AttributeError):
            setattr(fam, name, getattr(fam, name))


def _integer_torus(rep: str, p: int, seed: int, integral: bool) -> ConjugationFamily:
    """p commuting unit-norm seeds around a dense base: integer multiples of
    one skew matrix on r3, the transfer matrices of i*ad_hat(H_i) of jointly
    diagonal, non-scalar H_i otherwise, whose spectra are integers (drawn
    from -3..3) when `integral`, else normal draws; the base is projected
    off the seeds' span."""
    rng = np.random.default_rng(seed)
    if rep == "r3":
        first = _skew(rng)
        seeds = [k * first for k in rng.choice([-3, -2, -1, 1, 2, 3], size=p)]
        base = rng.normal(size=(3, 3))
    else:
        n = HILBERT_DIM[rep]
        q = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))[0]
        spectra = rng.integers(-3, 4, size=(p, n)).astype(float) if integral \
            else rng.normal(size=(p, n))
        spectra[:, 0] = spectra[:, 1] + 1.0  # no scalar H, whose seed is zero
        seeds = [_ham(q @ np.diag(w) @ q.conj().T) for w in spectra]
        base = rng.normal(size=(n * n, n * n))
    return ConjugationFamily(tuple(s / fro(s) for s in seeds), _off_span(base, seeds))


@SETTINGS
@given(st.sampled_from(REPS), st.integers(1, 3), st.integers(0, 2**32 - 1), st.booleans())
def test_integer_spectra_make_the_box_a_period(rep, p, seed, integral):
    """Commuting seeds of integer spectra (on r3 and a qubit, any rates) put
    every frequency on an axis at an integer multiple of the axis's unit:
    the torus is `periodic`, and shifting any parameter by its box returns
    the element to within 1e-12 max(1, |base|).  Generic two-qubit spectra
    have incommensurate frequencies, and the torus is not `periodic`."""
    fam = _integer_torus(rep, p, seed, integral)
    assert fam.kind == "torus"
    if rep == "two_qubit" and not integral:
        assert fam.periodic is False
        return
    assert fam.periodic is True
    rng = np.random.default_rng(seed)
    theta = rng.uniform(0.0, 1.0, size=p) * np.array(fam.periods)
    at = fam.element(theta)
    for i, box in enumerate(fam.periods):
        shifted = theta + box * np.eye(p)[i]
        assert fro(fam.element(shifted) - at) <= 1e-12 * max(1.0, fro(fam.base))


def _grid(fam: ConjugationFamily, n: int) -> np.ndarray:
    axes = np.meshgrid(*(np.arange(n) * (p / n) for p in fam.periods), indexing="ij")
    return np.stack([t.ravel() for t in axes], axis=1)


def _reference_phases(fam: ConjugationFamily):
    """The unmerged co-diagonalization: (q, m, one eigenphase-difference
    matrix per seed), or None when the seeds do not commute."""
    hs = [1j * np.asarray(s, dtype=complex) for s in fam.seeds]
    if len(hs) == 1:
        w0, q = np.linalg.eigh(hs[0])
        ws = [w0]
    else:
        _, q = np.linalg.eigh(sum((h / np.pi ** k for k, h in enumerate(hs[1:], 1)), hs[0]))
        ws = [np.real(np.diag(q.conj().T @ h @ q)) for h in hs]
        if not all(np.linalg.norm(q.conj().T @ h @ q - np.diag(w)) < 1e-8
                   for h, w in zip(hs, ws)):
            return None
    m = q.conj().T @ np.asarray(fam.base, dtype=complex) @ q
    return q, m, [w[:, None] - w[None, :] for w in ws]


def _reference_coeff(fam: ConjugationFamily, direction) -> np.ndarray:
    q, m, _ = _reference_phases(fam)
    return (np.conj(m) * (q.conj().T @ np.asarray(direction, dtype=complex) @ q)).ravel()


def _reference_values(fam: ConjugationFamily, thetas, direction) -> np.ndarray:
    """One exponential per matrix entry."""
    thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
    phases = _reference_phases(fam)
    if phases is None:
        return np.real(np.sum(np.conj(fam.elements(thetas)) * direction, axis=(1, 2)))
    _, _, deltas = phases
    phase = sum(np.multiply.outer(thetas[:, i], d.ravel()) for i, d in enumerate(deltas))
    return np.real(np.exp(1j * phase) @ _reference_coeff(fam, direction))


def _unmerged(fam: ConjugationFamily, direction):
    return lambda thetas: _reference_values(fam, thetas, direction)


def _reference_support_brent(fam: ConjugationFamily, direction, f=None):
    """2048-point grid, then bounded Brent over one grid step either side,
    scored by `f` (default: the unmerged `_reference_values`)."""
    f = _unmerged(fam, direction) if f is None else f
    period, n = fam.periods[0], 2048
    thetas = _grid(fam, n)[:, 0]
    vals = f(thetas[:, None])
    k = int(np.argmax(vals))
    res = minimize_scalar(lambda t: -float(f([[t]])[0]),
                          bounds=(thetas[k] - period / n, thetas[k] + period / n),
                          method="bounded", options={"xatol": 1e-12})
    t_best, v_best = float(res.x), float(-res.fun)
    if v_best < vals[k]:
        t_best, v_best = float(thetas[k]), float(vals[k])
    return [t_best], v_best


def _reference_support_nelder_mead(fam: ConjugationFamily, direction, f=None):
    """64x64 torus, then Nelder-Mead from its best point, scored by `f`
    (default: the unmerged `_reference_values`).  Nelder-Mead runs on the
    offset from that point: its default first simplex is 5% of each nonzero
    coordinate, which on a box of thousands spans many wavelengths and
    makes a wider search of it, not a refinement of the point."""
    f = _unmerged(fam, direction) if f is None else f
    grid = _grid(fam, 64)
    vals = f(grid)
    k = int(np.argmax(vals))
    res = minimize(lambda p: -float(f([grid[k] + p])[0]), x0=np.zeros(2),
                   method="Nelder-Mead", options={"xatol": 1e-10, "fatol": 1e-14, "maxiter": 400})
    params, v_best = grid[k] + res.x, float(-res.fun)
    if v_best < vals[k]:
        params, v_best = grid[k], float(vals[k])
    return params, v_best


def _reference_support_random(fam: ConjugationFamily, direction, rng):
    """Best of a 128-element sweep, then Nelder-Mead with the family's own
    options (xatol 1e-10, fatol 1e-14, at most 400 iterations)."""
    best, best_params = -np.inf, np.zeros(fam.n_params)
    for p, g in fam.sweep(128, rng):
        v = inner(g, direction)
        if v > best:
            best, best_params = v, p
    res = minimize(lambda p: -inner(fam.element(p), direction), x0=best_params,
                   method="Nelder-Mead", options={"xatol": 1e-10, "fatol": 1e-14, "maxiter": 400})
    params = res.x if -res.fun > best else best_params
    return params, max(float(-res.fun), best)


@SETTINGS
@given(st.sampled_from(REPS), st.sampled_from(KINDS), st.integers(0, 2**32 - 1))
def test_merged_support_matches_the_three_routines(rep, kind, seed):
    """One- and two-parameter tori and (non-aligned) orbit families against
    the per-shape routines the one search replaced.  The orbit search and
    its reference refine with the same Nelder-Mead options, so there the
    values agree and the returned element scores the returned value.  A
    torus refines by Newton ascent where the references ran bounded Brent
    (one parameter) or Nelder-Mead (two): the returned element scores the
    returned value (to the rounding of `_scoring_tol`), it is stationary
    (<[s_i, g], D>, the derivative along each seed, vanishes), and the value
    agrees with the reference's where f is periodic on the candidate box.
    That holds for the r3 and qubit seeds, whose eigenphase differences are
    multiples of one unit.  A random two-qubit torus has incommensurate
    frequencies, so the box spans no period and the ascents can end on
    different local peaks from the same candidate (in a 400-seed scan of
    two parameters Newton ended 0.11-0.34 |D| above Nelder-Mead on 3 seeds,
    on two of them where Nelder-Mead stopped at its iteration cap, and never
    below it); there the value is held to at least the reference's,
    one-sided.  That box, 2 pi over the least frequency, can span
    thousands, and at such theta the per-entry sum parts from the merged
    one by 1e-11 (entries merged into one frequency differ by rounding,
    which theta multiplies), so there the reference scores by the family's
    merged objective."""
    fam = _family(rep, kind, seed)
    rng = np.random.default_rng(seed)
    direction = rng.normal(size=fam.base.shape)
    tol = 1e-12 * max(1.0, fro(direction))
    assert fam.exact is None or fam.exact.support(direction) is None
    g, val = fam.support(direction)
    if kind == "orbit":
        params, want = _reference_support_random(fam, direction, np.random.default_rng(0))
        assert abs(inner(g, direction) - val) <= tol
    else:
        assert abs(inner(g, direction) - val) <= _scoring_tol(fam, direction)
        slope = max(abs(inner(comm(s, g), direction)) for s in fam.seeds)
        assert slope <= _scoring_tol(fam, direction)
        reference = _reference_support_brent if kind == "torus1" else _reference_support_nelder_mead
        if rep == "two_qubit":
            _, want = reference(fam, direction, f=fam._objective(direction))
            assert val >= want - tol
            return
        _, want = reference(fam, direction)
    assert abs(val - want) <= tol


def _commuting_family(rep: str, kind: str, seed: int) -> ConjugationFamily:
    """`_family` for one and two parameters; for 'torus3', three commuting
    unit-norm seeds (multiples of one skew matrix on r3, transfer matrices
    of i*ad_hat of jointly diagonal H otherwise), so the seeds
    co-diagonalise, around a base off their span."""
    if kind != "torus3":
        return _family(rep, kind, seed)
    rng = np.random.default_rng(seed)
    if rep == "r3":
        first = _skew(rng)
        seeds = [c * first for c in (1.0, -2.0, 0.5)]
        base = rng.normal(size=(3, 3))
    else:
        n = HILBERT_DIM[rep]
        q = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))[0]
        seeds = [_ham(q @ np.diag(rng.normal(size=n)) @ q.conj().T) for _ in range(3)]
        base = rng.normal(size=(n * n, n * n))
    fam = ConjugationFamily(tuple(s / fro(s) for s in seeds), _off_span(base, seeds))
    assert fam.kind == "torus" and fam._phases is not None
    return fam


def _direction(fam: ConjugationFamily, rng) -> np.ndarray:
    return rng.normal(size=fam.base.shape)


@SETTINGS
@given(st.sampled_from(REPS), st.sampled_from(TORI), st.integers(0, 2**32 - 1))
def test_merged_objective_matches_the_per_entry_sum(rep, kind, seed):
    """One exponential per distinct eigenphase difference gives the sum of
    one exponential per matrix entry, on tori of one to three parameters; every entry's difference lies within the merge tolerance of
    its table row, and the table's rows are distinct."""
    fam = _commuting_family(rep, kind, seed)
    rng = np.random.default_rng(seed)
    direction = _direction(fam, rng)
    thetas = rng.normal(scale=np.pi, size=(16, fam.n_params))
    got = fam._objective(direction)(thetas)
    want = _reference_values(fam, thetas, direction)
    scale = max(1.0, float(np.abs(_reference_coeff(fam, direction)).sum()))
    assert np.max(np.abs(got - want)) <= 1e-12 * scale
    _, _, freqs, index = fam._phases
    deltas = np.stack([d.ravel() for d in _reference_phases(fam)[2]], axis=1)
    tol = 1e-12 * max(1.0, float(np.abs(deltas).max()))
    assert np.abs(freqs[index] - deltas).max() <= tol
    gaps = np.abs(freqs[:, None, :] - freqs[None, :, :]).max(axis=2)
    assert (gaps[~np.eye(len(freqs), dtype=bool)] > tol).all()


@SETTINGS
@given(st.sampled_from(REPS), st.sampled_from(TORI), st.integers(0, 2**32 - 1))
def test_cached_grid_waves_score_like_values(rep, kind, seed):
    """A torus builds its support candidates once per family, a grid over
    its box of 2048 points on one parameter, 64 x 64 on two and 16 per axis
    on three, and scoring them through the cached plane waves is bitwise
    `values`."""
    fam = _commuting_family(rep, kind, seed)
    thetas, waves = fam._support_grid
    assert fam._support_grid[1] is waves
    assert np.array_equal(thetas, _grid(fam, {1: 2048, 2: 64, 3: 16}[fam.n_params]))
    f = fam._objective(_direction(fam, np.random.default_rng(seed)))
    assert f(thetas, waves).tobytes() == f(thetas).tobytes()


@pytest.mark.parametrize("name, rows", [("example2", 5), ("example3", 5), ("phase_flip", 5),
                                        ("bit_flip", 5), ("depolarizing", 5),
                                        ("two_qubit_C", 25)])
def test_frequency_tables_of_the_built_in_families(name, rows):
    """A qubit or r3 rotation has eigenphase differences {0, +-w, +-2w};
    two_qubit_C's torus has 5 x 5 pairs, where its 256 entries had one each."""
    axes = {} if name.startswith(("example", "two_qubit")) else {
        "control_axes": ("x",), "drift_axis": "z"}
    fam = saturate(initial_wedge(build_system(ChannelSpec(name=name, **axes))),
                   orbit_samples=24).cone.analytic
    assert (fam.kind, fam.n_params) == ("torus", 2 if name == "two_qubit_C" else 1)
    assert fam.periodic
    assert fam._phases[2].shape == (rows, fam.n_params)


def test_grid2_sweep_runs_over_the_torus_row_major():
    fam = _family("qubit", "torus2", 5)
    n = 3
    t1 = np.arange(n) * (fam.periods[0] / n)
    t2 = np.arange(n) * (fam.periods[1] / n)
    params = [p for p, _ in fam.sweep(n * n, np.random.default_rng(0))]
    assert np.array_equal(np.array(params),
                          np.array([[t1[i], t2[j]] for i in range(n) for j in range(n)]))


@pytest.mark.parametrize("rep", REPS)
@pytest.mark.parametrize("kind", KINDS)
def test_empty_sweep_draws_nothing(rep, kind):
    fam = _family(rep, kind, 3)
    rng = np.random.default_rng(11)
    assert fam.sweep(0, rng) == []
    assert rng.normal() == np.random.default_rng(11).normal()


@pytest.mark.parametrize("kind", KINDS)
def test_real_seeds_and_base_give_real_elements(kind):
    fam = _family("r3", kind, 8)
    rng = np.random.default_rng(8)
    elems = [fam.element(rng.normal(size=fam.n_params)),
             fam.conjugate(rng.normal(size=(3, 3)), rng.normal(size=fam.n_params))]
    elems += [g for _, g in fam.sweep(9, rng)]
    for g in elems:
        assert g.dtype == np.float64


def _reference_closure(gens, tol: float = 1e-9):
    """The full pairwise closure: each round brackets the newest directions
    against the whole current basis, in one broadcast matmul.  Returns the
    basis stack and the number of rounds that added directions."""
    basis = orthonormal_span(gens, tol=tol)
    shape = basis.shape
    ambient = int(np.prod(shape))
    stack = basis.stack
    mats = np.asarray(basis.mats)
    frontier = mats
    productive = 0
    while stack.shape[1] < ambient:
        br = frontier[:, None] @ mats[None] - mats[None] @ frontier[:, None]
        cols = _columns(br.reshape(-1, *shape)).copy()
        res = cols - stack @ (stack.T @ cols)
        sel = np.linalg.norm(res, axis=0) > tol * np.maximum(1.0, np.linalg.norm(cols, axis=0))
        if not np.any(sel):
            break
        u, s, _ = np.linalg.svd(res[:, sel], full_matrices=False)
        add = u[:, s > tol * s[0]]
        add = add - stack @ (stack.T @ add)
        add = add[:, np.linalg.norm(add, axis=0) > 0.5]
        if add.shape[1] == 0:
            break
        add /= np.linalg.norm(add, axis=0)
        stack = np.concatenate([stack, add], axis=1)
        frontier = add.T.reshape(-1, *shape)
        mats = np.concatenate([mats, frontier], axis=0)
        productive += 1
    return stack, productive


CARRIERS = ("r3", "r3_skew", "qubit", "antihermitian4", "pauli4")
PAULI_PAIRS = [a + b for a in "1xyz" for b in "1xyz"]


def _closure_gens(carrier: str, seed: int, n: int) -> list:
    """n random generators: real 3x3 (general or skew), complex 2x2, 4x4
    anti-Hermitian, or i/2 times a sum of one or two Pauli pairs, the
    complex ones in their real form (`_real_form`)."""
    rng = np.random.default_rng(seed)
    if carrier == "r3":
        return [rng.normal(size=(3, 3)) for _ in range(n)]
    if carrier == "r3_skew":
        return [_skew(rng) for _ in range(n)]
    if carrier == "qubit":
        mats = [rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(n)]
    elif carrier == "antihermitian4":
        mats = [1j * _hermitian(rng, 4) for _ in range(n)]
    else:
        mats = [0.5j * sum(sigma2(p) for p in rng.choice(PAULI_PAIRS, size=rng.integers(1, 3)))
                for _ in range(n)]
    return [_real_form(m) for m in mats]


def _bracket_residual(sub, a: np.ndarray, b: np.ndarray) -> float:
    """Residual of [a, b] off `sub`, relative to max(1, ||[a, b]||)."""
    br = a @ b - b @ a
    return sub.residual(br) / max(1.0, fro(br))


@SETTINGS
@given(st.sampled_from(CARRIERS), st.integers(0, 2**32 - 1), st.integers(1, 3))
# draws that close in one productive round, so the byte comparison below runs
# under every hypothesis seed; on each, the chunked einsum kernel that the
# broadcast one replaced differs from the reference in the last bits
@example("r3_skew", 5, 2)
@example("r3_skew", 6, 2)
@example("pauli4", 14, 3)
@example("pauli4", 397, 2)
def test_lie_closure_matches_the_full_pairwise_closure(carrier, seed, n):
    gens = _closure_gens(carrier, seed, n)
    got = lie_closure(gens)
    want, productive = _reference_closure(gens)
    assert got.dim == want.shape[1]
    assert np.max(np.abs(want - got.stack @ (got.stack.T @ want)), initial=0.0) <= 1e-8
    assert np.max(np.abs(got.stack - want @ (want.T @ got.stack)), initial=0.0) <= 1e-8
    for g in gens:
        assert got.contains(g, 1e-8)
    for a in got.mats:
        for b in got.mats:
            assert _bracket_residual(got, a, b) <= 1e-8
    if productive <= 1:
        assert got.stack.tobytes() == want.tobytes()


def _reference_closure_by(gens, by, tol: float = 1e-9) -> np.ndarray:
    """The closure of span(gens) under [s, .] for s in `by`: each round
    brackets the whole current basis with `by`, pair by pair, until a round
    adds nothing.  Returns the basis stack."""
    basis = orthonormal_span(gens, tol=tol)
    shape, stack = basis.shape, basis.stack
    while True:
        mats = stack.T.reshape(-1, *shape)
        cols = _columns([s @ m - m @ s for m in mats for s in by])
        res = cols - stack @ (stack.T @ cols)
        sel = np.linalg.norm(res, axis=0) > tol * np.maximum(1.0, np.linalg.norm(cols, axis=0))
        if not np.any(sel):
            return stack
        u, s, _ = np.linalg.svd(res[:, sel], full_matrices=False)
        add = u[:, s > tol * s[0]]
        add = add - stack @ (stack.T @ add)
        add = add[:, np.linalg.norm(add, axis=0) > 0.5]
        if add.shape[1] == 0:
            return stack
        stack = np.concatenate([stack, add / np.linalg.norm(add, axis=0)], axis=1)


@SETTINGS
@given(st.sampled_from(CARRIERS), st.integers(0, 2**32 - 1), st.integers(1, 3),
       st.integers(1, 3))
def test_closure_under_a_bracket_set_matches_the_whole_basis_reference(carrier, seed, n, k):
    gens = _closure_gens(carrier, seed, n)
    by = _closure_gens(carrier, seed + 1, k)
    got = lie_closure(gens, by=by)
    want = _reference_closure_by(gens, by)
    assert got.dim == want.shape[1]
    assert np.max(np.abs(want - got.stack @ (got.stack.T @ want)), initial=0.0) <= 1e-8
    assert np.max(np.abs(got.stack - want @ (want.T @ got.stack)), initial=0.0) <= 1e-8
    for g in gens:
        assert got.contains(g, 1e-8)
    for s in by:
        for m in got.mats:
            assert _bracket_residual(got, s, m) <= 1e-8


def test_two_qubit_c_closure_is_closed_under_brackets():
    sys = build_system(ChannelSpec(name="two_qubit_C"))
    drift, controls = ptm_directions(sys)
    s = lie_closure([*controls, drift])
    assert s.dim == 225
    rng = np.random.default_rng(225)
    for i, j in rng.integers(s.dim, size=(200, 2)):
        assert _bracket_residual(s, s.mats[i], s.mats[j]) <= 1e-8


def _conjugated(sys: ControlSystem, seed: int) -> ControlSystem:
    """`sys` with its Hamiltonian, controls and jump operators conjugated
    by one random unitary."""
    n = sys.drift_H.shape[0]
    rng = np.random.default_rng(seed)
    q = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))[0]

    def turn(m):
        return q @ m @ q.conj().T

    return ControlSystem(rep=sys.rep, drift_H=turn(sys.drift_H),
                         controls=tuple(turn(c) for c in sys.controls),
                         lindblad_ops=tuple((turn(v), g) for v, g in sys.lindblad_ops))


def _superoperator_condition_dims(sys: ControlSystem) -> tuple:
    """(dim_kc, dim_kd, dim_s) closed on the complex superoperators, in
    their real form (`_real_form`)."""
    ctrl = [_real_form(c) for c in _control_generators(sys)]
    kc = lie_closure(ctrl).dim if ctrl else 0
    kd = lie_closure(ctrl + [_real_form(ham_drift_direction(sys))]).dim
    return kc, kd, lie_closure(ctrl + [_real_form(lindbladian(sys))]).dim


@SETTINGS
@given(st.sampled_from(("qubit", "two_qubit")), st.integers(0, 2**32 - 1), st.integers(0, 2),
       st.integers(0, 2), st.booleans())
def test_condition_dims_are_unitarily_invariant_within_the_ptm_ceiling(rep, seed, n_controls,
                                                                      n_ops, unital):
    """Hermitian (unital) or general jumps; a trace-preserving generator's
    transfer matrix has a zero first row, so no algebra exceeds N^2 (N^2 - 1)
    dimensions; on qubits the superoperators in real form give the same
    dims."""
    sys = _random_system(rep, seed, n_controls, n_ops, unital)
    got = check_conditions(sys)
    dims = (got.dim_kc, got.dim_kd, got.dim_s)
    turned = check_conditions(_conjugated(sys, seed + 1))
    assert (turned.dim_kc, turned.dim_kd, turned.dim_s) == dims
    n2 = HILBERT_DIM[rep] ** 2
    assert got.dim_s <= n2 * (n2 - 1)
    if rep == "qubit":
        assert _superoperator_condition_dims(sys) == dims


# ---------------------------------------------------------------------------
# one stored array per subspace and per cone
# ---------------------------------------------------------------------------

def _carrier(rep: str) -> tuple:
    """The shape of a rep's generators on its real carrier."""
    if rep == "r3":
        return (3, 3)
    n = HILBERT_DIM[rep] ** 2
    return (n, n)


def _matrices(rng, rep: str, m: int) -> list:
    shape = _carrier(rep)
    return [10.0 ** rng.uniform(-3, 3) * rng.normal(size=shape) for _ in range(m)]


@SETTINGS
@given(st.sampled_from(REPS), st.integers(0, 2**32 - 1), st.integers(0, 5),
       st.integers(0, 3))
def test_cone_stores_unit_columns_and_derives_its_generators(rep, seed, m, zeros):
    rng = np.random.default_rng(seed)
    shape = _carrier(rep)
    mats = _matrices(rng, rep, m) + [np.zeros(shape)] * zeros
    mats = [mats[i] for i in rng.permutation(len(mats))]
    c = Cone(generators=tuple(mats), shape=shape)
    nonzero = [a for a in mats if fro(a) > 0]
    assert c.stack.shape == (np.prod(shape), len(nonzero))
    assert c.n_generators == len(c.generators) == len(nonzero)
    assert np.max(np.abs(np.linalg.norm(c.stack, axis=0) - 1.0), initial=0.0) <= 1e-14
    for k, (g, a) in enumerate(zip(c.generators, nonzero)):
        assert g.tobytes() == c.stack[:, k].reshape(shape).tobytes()
        assert np.max(np.abs(g - a / fro(a))) <= 1e-14


@SETTINGS
@given(st.sampled_from(REPS), st.integers(0, 2**32 - 1), st.integers(0, 4))
def test_orthonormal_span_derives_its_matrices_from_its_stack(rep, seed, m):
    rng = np.random.default_rng(seed)
    shape = _carrier(rep)
    gens = _matrices(rng, rep, m)
    if m:
        gens.append(gens[0] - 2.0 * gens[-1])  # a dependent generator
    sub = orthonormal_span(gens, shape=shape)
    assert sub.dim == sub.stack.shape[1] == len(sub.mats) == min(m, sub.stack.shape[0])
    assert np.allclose(sub.stack.T @ sub.stack, np.eye(sub.dim), atol=1e-12)
    for k, got in enumerate(sub.mats):
        assert got.tobytes() == sub.stack[:, k].reshape(shape).tobytes()
    a = _matrices(rng, rep, 1)[0]
    for empty in (orthonormal_span([], shape=shape), orthonormal_span([np.zeros(shape)])):
        assert empty.dim == 0 and empty.mats == ()
        assert empty.project(a).shape == shape and not np.any(empty.project(a))
        assert empty.residual(a) == np.linalg.norm(a.ravel())


def _reference_wedge_dim(w: Wedge) -> int:
    """Edge dimension plus the rank of the generators' edge-orthogonal parts,
    projected one generator at a time; (unit) generators whose part has norm
    <= 1e-12 are rounding noise inside the edge and dropped, as in `saturate`."""
    perp = [g - w.edge.project(g) for g in w.cone.generators]
    perp = [p / fro(p) for p in perp if fro(p) > 1e-12]
    extra = orthonormal_span(perp, shape=w.cone.shape)
    return w.edge.dim + extra.dim


@SETTINGS
@given(st.sampled_from(REPS), st.integers(0, 2**32 - 1), st.integers(0, 3),
       st.integers(0, 3), st.integers(0, 3))
def test_wedge_dim_matches_the_per_generator_projection(rep, seed, k, in_edge, outside):
    """Cone generators inside the edge, off it, and sums of the two."""
    rng = np.random.default_rng(seed)
    shape = _carrier(rep)
    edge = orthonormal_span(_matrices(rng, rep, k), shape=shape)
    mixed = [sum(c * m for c, m in zip(rng.normal(size=k), edge.mats))
             for _ in range(in_edge)] if k else []
    off = _matrices(rng, rep, outside)
    gens = mixed + off + [a + b for a, b in zip(mixed, off)]
    w = Wedge(edge=edge, cone=Cone(generators=tuple(gens), shape=shape))
    assert w.dim == _reference_wedge_dim(w)
    assert w.dim == k + len(off)


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(("r3", "qubit")), st.integers(0, 2**32 - 1), st.integers(0, 2),
       st.integers(0, 2), st.integers(24, 48))
def test_saturated_cones_hold_unit_columns_orthogonal_to_the_edge(rep, seed, n_controls,
                                                                 n_ops, samples):
    start = initial_wedge(_random_system(rep, seed, n_controls, n_ops))
    assert start.dim == _reference_wedge_dim(start)  # the drift is not edge-orthogonal
    w = saturate(start, orbit_samples=samples, seed=seed % 100)
    c, e = w.cone.stack, w.edge.stack
    assert np.max(np.abs(np.linalg.norm(c, axis=0) - 1.0), initial=0.0) <= 1e-12
    assert np.max(np.abs(e.T @ c), initial=0.0) <= 1e-12
    assert w.dim == _reference_wedge_dim(w)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(REPS), st.integers(0, 2**32 - 1), st.integers(0, 2), st.integers(0, 2))
def test_saturation_ends_at_the_edge_base_fixed_point(rep, seed, n_controls, n_ops):
    """The saturated edge is a Lie algebra that holds every control, and the
    base is orthogonal to it; a converged wedge with a family has no
    lineality left to absorb, and where the family has a closed form every
    swept column lies within `_CERTIFIED` of its cone."""
    system = _random_system(rep, seed, n_controls, n_ops)
    w = saturate(initial_wedge(system), orbit_samples=24, seed=seed % 100)
    edge, family = w.edge, w.cone.analytic
    base = w.drift - edge.project(w.drift)
    assert edge.dim == 0 or lie_closure(edge.mats).dim == edge.dim
    assert all(edge.residual(c) <= 1e-9 * max(1.0, fro(c)) for c in ptm_directions(system)[1])
    assert all(abs(inner(m, base)) <= 1e-12 * max(1.0, fro(base)) for m in edge.mats)
    if family is None:
        return
    assert np.array_equal(family.base, base)
    if w.saturation["converged"]:
        assert lineality(w.cone).dim == 0
    bounds = None if family.exact is None else family.exact.contains(np.stack(w.cone.generators))
    if bounds is not None:
        assert bounds[1].max() <= wedge_module._CERTIFIED


def _reference_support_aligned(fam: ConjugationFamily, direction, rep: str):
    """The r3 and qubit branches of the closed-form orbit support, kept apart.
    The qubit branch works on the coherence representation of the
    superoperators (`superop_from_ptm`, `_reference_coherence_rep`); a qubit
    direction off the coherence image is projected onto it, through the
    image's orthonormal basis, the transfer matrices `_coherence_ptm(E_ij)`."""
    if rep == "r3" and fam.n_params == 3:
        base_sym = (fam.base + fam.base.T) / 2
        if fro(base_sym - fam.base) > 1e-10 * max(1.0, fro(fam.base)):
            return None
        d_sym = (direction + direction.T) / 2
        w_b, _ = eig_sym(base_sym)
        w_d, v_d = eig_sym(d_sym)
        g = v_d @ np.diag(w_b) @ v_d.T
        return g, float(np.dot(w_b, w_d))
    if rep == "qubit" and fam.n_params == 3:
        try:
            cr_b = _reference_coherence_rep(superop_from_ptm(fam.base), 2)
        except ValueError:
            return None
        try:
            cr_d = _reference_coherence_rep(superop_from_ptm(direction), 2)
        except ValueError:
            units = np.eye(3)
            cr_d = np.array([[inner(_coherence_ptm(np.outer(e_i, e_j)), direction)
                              for e_j in units] for e_i in units])
        cr_bs = (cr_b + cr_b.T) / 2
        if fro(cr_bs - cr_b) > 1e-10 * max(1.0, fro(cr_b)):
            return None
        d_sym = (cr_d + cr_d.T) / 2
        w_b, _ = eig_sym(cr_bs)
        w_d, v_d = eig_sym(d_sym)
        g_cr = v_d @ np.diag(w_b) @ v_d.T
        g = _coherence_ptm(g_cr)
        return g, float(np.dot(w_b, w_d))
    return None


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(("r3", "qubit")), st.integers(0, 2**32 - 1), st.sampled_from((2, 3)),
       st.sampled_from(("symmetric", "general", "non-unital")),
       st.sampled_from(("coherent", "non-unital")))
def test_aligned_support_matches_the_two_branch_routine(rep, seed, n_seeds, base_kind,
                                                        direction_kind):
    """Symmetric and general bases, projected off the seeds' span, and
    (qubit) transfer matrices of bases or directions that the coherence
    loop rejects, on orbit families with 2- and 3-dim edges.  On r3 the element
    and the value are the reference's bit for bit.  The qubit reference
    passes through the superoperators, so there the values agree to 1e-12
    and the element is an orbit point scoring the value."""
    rng = np.random.default_rng(seed)

    def block(kind):
        a = rng.normal(size=(3, 3))
        a = (a + a.T) / 2 if kind == "symmetric" else a
        if rep == "r3":
            return a
        if kind == "non-unital":
            return rng.normal(size=(4, 4))
        return _coherence_ptm(a)

    if rep == "r3":
        seeds = [_skew(rng) for _ in range(n_seeds)]
    else:
        seeds = [_ham(sigma(axis) / 2.0) for axis in "xyz"[:n_seeds]]
    seeds = tuple(s / fro(s) for s in seeds)
    fam = ConjugationFamily(seeds, _off_span(block(base_kind), seeds))
    assert orthonormal_span(list(seeds)).dim == n_seeds
    direction = block(direction_kind)
    got = None if fam.exact is None else fam.exact.support(direction)
    want = _reference_support_aligned(fam, direction, rep)
    assert (got is None) == (want is None)
    if want is not None and rep == "qubit":
        tol = 1e-12 * max(1.0, fro(fam.base)) * max(1.0, fro(direction))
        assert abs(got[1] - want[1]) <= tol
        assert abs(inner(got[0], direction) - got[1]) <= tol
        assert np.allclose(eig_sym(_reference_coherence_rep(superop_from_ptm(got[0]), 2))[0],
                           fam.exact.rates, rtol=0.0, atol=1e-12 * max(1.0, fro(fam.base)))
    elif want is not None:
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1] == want[1]


# ---------------------------------------------------------------------------
# report writer
# ---------------------------------------------------------------------------

def _reference_jsonable(v):
    """Two-pass writer, first pass: numpy values and complex -> Python values."""
    if isinstance(v, np.ndarray):
        if v.ndim == 0:
            return _reference_jsonable(v.item())
        return [_reference_jsonable(row) for row in v]
    if isinstance(v, (np.bool_, bool)):
        return bool(v)
    if isinstance(v, (np.integer, int)):
        return int(v)
    if isinstance(v, (np.floating, float)):
        return float(v)
    if isinstance(v, (np.complexfloating, complex)):
        return [float(v.real), float(v.imag)]
    if isinstance(v, dict):
        return {str(k): _reference_jsonable(u) for k, u in v.items()}
    if isinstance(v, (list, tuple)):
        return [_reference_jsonable(u) for u in v]
    return v


def _reference_write(v, level: int = 0) -> str:
    """Two-pass writer, second pass: Python values -> text."""
    pad = "  " * level
    if v is None:
        return "null"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    if isinstance(v, float):
        return "%.17g" % float(v)
    if isinstance(v, str):
        return json.dumps(v)
    if isinstance(v, dict):
        if not v:
            return "{}"
        rows = [f'{pad}  {json.dumps(str(k))}: {_reference_write(u, level + 1)}'
                for k, u in v.items()]
        return "{\n" + ",\n".join(rows) + f"\n{pad}}}"
    if isinstance(v, (list, tuple)):
        items = list(v)
        if not items:
            return "[]"
        if any(isinstance(u, dict) for u in items):
            rows = [f"{pad}  {_reference_write(u, level + 1)}" for u in items]
            return "[\n" + ",\n".join(rows) + f"\n{pad}]"
        return "[" + ", ".join(_reference_write(u, level + 1) for u in items) + "]"
    raise TypeError(f"cannot serialize {type(v).__name__}")


def _reference_dumps(v) -> str:
    return _reference_write(_reference_jsonable(v))


REPORT_DTYPES = ("float64", "float32", "float16", "complex128", "complex64", ">f8", ">c16",
                 "int64", "bool")
# views whose memory order differs from the C order the writer reads in
ARRAY_VIEWS = (lambda a: a, lambda a: a.T, np.asfortranarray,
               lambda a: a[::-1] if a.ndim else a,
               lambda a: a[..., ::-2] if a.ndim else a,
               lambda a: np.moveaxis(a, 0, -1)[::-1] if a.ndim else a)

numpy_arrays = st.tuples(
    st.sampled_from(REPORT_DTYPES).flatmap(
        lambda dt: hnp.arrays(dt, hnp.array_shapes(min_dims=0, max_dims=4,
                                                    min_side=0, max_side=3))),
    st.sampled_from(ARRAY_VIEWS)).map(lambda av: av[1](av[0]))
numpy_scalars = st.sampled_from(REPORT_DTYPES).flatmap(
    lambda dt: hnp.arrays(dt, ())).map(lambda a: a[()])
report_text = st.text() | st.sampled_from(['say "hi"', "back\\slash", "Lie–wedge ⊂ 𝔤", "tab\t"])
report_leaves = (st.none() | st.booleans() | st.integers() | st.floats()
                 | st.sampled_from([-0.0, float("nan"), float("inf"), -float("inf")])
                 | st.complex_numbers() | report_text | numpy_arrays | numpy_scalars)
reports = st.recursive(
    report_leaves,
    lambda children: (st.lists(children, max_size=4)
                      | st.lists(children, max_size=4).map(tuple)
                      | st.dictionaries(report_text, children, max_size=4)
                      | st.lists(st.dictionaries(report_text, children, max_size=3),
                                 max_size=3)),
    max_leaves=20)


@settings(max_examples=300, deadline=None)
@given(reports)
def test_one_pass_writer_matches_the_two_pass_writer(report):
    assert _dumps(report) == _reference_dumps(report)


def test_writer_shapes_and_empty_arrays():
    report = {"empty": np.zeros((2, 0)), "none": np.zeros((0,)), "c": 1 + 2j,
              "z": np.complex128(-0.0 + 1j), "rows": [{"a": np.bool_(True)}]}
    assert _dumps(report) == _reference_dumps(report)
    assert '"empty": [[], []]' in _dumps(report)


def test_writer_matches_the_reference_on_generator_sized_stacks():
    """The large stacks `example` and `wedge` reports carry, with every
    special float, as whole arrays and as tuples of matrices."""
    rng = np.random.default_rng(5)
    real = rng.normal(size=(900, 15, 15)) * np.exp(rng.normal(scale=20.0, size=(900, 15, 15)))
    real.flat[:6] = [-0.0, 0.0, np.nan, np.inf, -np.inf, 5e-324]
    cplx = rng.normal(size=(300, 4, 4)) + 1j * rng.normal(size=(300, 4, 4))
    cplx.flat[:4] = [complex(-0.0, np.nan), complex(np.inf, -0.0), -1j, 1e300 - 1e-300j]
    report = {"real": real, "complex": cplx, "generators": tuple(real[:50]),
              "complex_generators": tuple(cplx[:50]),
              "views": [real[:20].T, real[::-7, 3:, ::-2], np.asfortranarray(real[:9]),
                        real[:40].astype(">f8"), cplx.T, cplx[::-5, :, ::-1],
                        cplx[:40].astype(">c16"), real[1:41].clip(-1e30, 1e30).astype(np.float32),
                        cplx[1:41].astype(np.complex64)]}
    assert _dumps(report) == _reference_dumps(report)


@pytest.mark.parametrize("bad", [{1, 2}, {"nested": [frozenset()]}])
def test_writer_rejects_unsupported_objects(bad):
    with pytest.raises(TypeError):
        _dumps(bad)
    with pytest.raises(TypeError):
        _reference_dumps(bad)


def _reference_format_entry(v, complex_field: bool) -> str:
    if complex_field:
        c = complex(v)
        return json.dumps("%.17g%+.17gj" % (c.real, c.imag))
    return "%.17g" % float(v)


def _reference_format_matrix(m, complex_field: bool) -> str:
    rows = []
    for row in np.asarray(m):
        rows.append("[" + ",".join(_reference_format_entry(v, complex_field)
                                   for v in row) + "]")
    return "[" + ",".join(rows) + "]"


def _reference_format_system_file(system: ControlSystem, options: dict = None) -> str:
    """The per-entry system-file formatter."""
    cf = system.rep != "r3"
    lines = [f"rep {system.rep}",
             f"drift {_reference_format_matrix(system.drift_H, cf)}"]
    for c in system.controls:
        lines.append(f"control {_reference_format_matrix(c, cf)}")
    for v, g in system.lindblad_ops:
        lines.append(f"lindblad {_reference_format_matrix(v, cf)} {'%.17g' % float(g)}")
    for k, v in (options or {}).items():
        lines.append(f"{k} {'%.17g' % v if isinstance(v, float) else v}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("name", NAMES)
def test_system_files_match_the_per_entry_formatter(name):
    system = build_system(ChannelSpec(name))
    options = {"samples": 240, "tol": 1e-9, "horizon": 0.7}
    assert format_system_file(system) == _reference_format_system_file(system)
    assert format_system_file(system, options) == _reference_format_system_file(system, options)


@SETTINGS
@given(st.sampled_from(("r3", "qubit", "two_qubit")), st.integers(0, 2**32 - 1),
       st.booleans())
def test_random_system_files_match_the_per_entry_formatter(rep, seed, real_drift):
    """Random systems, with a real-valued drift array on a quantum carrier
    and signed zeros among the entries."""
    system = _random_system(rep, seed, n_controls=2, n_ops=2)
    drift = np.asarray(system.drift_H)
    drift = np.where(np.abs(drift) < 0.3, -0.0, drift.real if real_drift else drift)
    system = ControlSystem(rep=rep, drift_H=drift, controls=system.controls,
                           lindblad_ops=system.lindblad_ops)
    assert format_system_file(system) == _reference_format_system_file(system)


# ---------------------------------------------------------------------------
# Schur-Horn distance bounds of full-rotation orbit cones
# ---------------------------------------------------------------------------

def _rotation_orbit(rep: str, rates) -> tuple:
    """The closed form of a full-rotation family on r3 or a qubit, and the
    map from a symmetric 3x3 block onto its carrier."""
    if rep == "r3":
        seeds = tuple(np.asarray(h) for h in (H_X, H_Y, H_Z))
        lift = np.asarray
    else:
        seeds = tuple(_ham(sigma(a) / 2.0) for a in "xyz")

        lift = _coherence_ptm
    exact = ConjugationFamily(tuple(s / fro(s) for s in seeds), lift(np.diag(rates))).exact
    assert exact is not None and exact.qubit == (rep == "qubit")
    return exact, lift


def _rotations(rng, n: int) -> np.ndarray:
    return np.linalg.qr(rng.normal(size=(n, 3, 3)))[0]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(("r3", "qubit")),
       st.lists(st.floats(-1.0, 3.0), min_size=3, max_size=3).filter(lambda r: sum(r) > 0.3),
       st.sampled_from(("random", "orbit", "mix", "ray", "face1", "face2")),
       st.floats(-7.0, -2.0), st.sampled_from((-1.0, 1.0)), st.booleans(),
       st.integers(0, 2**32 - 1))
@example(rep="qubit", rates=[1.4727760204272022, 0.37109375, -0.30378495326079225],
         kind="face1", log_push=-4.0, side=-1.0, noisy=True, seed=20483)
def test_schur_horn_bounds_bracket_the_sampled_distance(rep, rates, kind, log_push, side,
                                                        noisy, seed):
    """For random symmetric blocks, scaled orbit points, conic mixes, and
    points on the extreme ray or on a face of K pushed in or out by 1e-2 to
    1e-7 relative along the face normal (plus, if `noisy`, a part off the
    symmetric image): lower <= upper, and lower <= |x - fit| for an NNLS
    fit over 4000 orbit points, which is at least the true distance (the
    residual NNLS reports can fall below it).
    Orbit points and mixes are certified members; outward pushes get a
    positive lower bound."""
    rates = np.sort(np.asarray(rates, dtype=float))[::-1]
    exact, lift = _rotation_orbit(rep, rates)
    rng = np.random.default_rng(seed)
    total = rates.sum()
    scale = rng.uniform(0.1, 10.0)
    if kind == "random":
        s = rng.normal(size=(3, 3))
        s = scale * (s + s.T) / 2.0
    elif kind in ("orbit", "mix"):
        qs = _rotations(rng, 1 if kind == "orbit" else 3)
        s = np.einsum("k,kij,j,klj->il", rng.uniform(0.2, 1.0, len(qs)) * scale,
                      qs, rates, qs)
    else:
        lam, normal = {
            "ray": (rates, [2.0, -1.0, -1.0]),
            "face1": ([rates[0], (total - rates[0]) / 2, (total - rates[0]) / 2],
                      [2.0, -1.0, -1.0]),
            "face2": ([(rates[0] + rates[1]) / 2] * 2 + [rates[2]], [1.0, 1.0, -2.0]),
        }[kind]
        lam = scale * np.asarray(lam)
        lam = lam + side * 10.0 ** log_push * np.linalg.norm(lam) * np.asarray(normal) / np.sqrt(6.0)
        q = _rotations(rng, 1)[0]
        s = q @ np.diag(lam) @ q.T
    x = lift(s)
    if noisy:
        x = x + 1e-3 * scale * rng.normal(size=x.shape)
    (lower,), (upper,) = exact.contains(x[None])
    qs = _rotations(np.random.default_rng(0), 4000)
    orbit = np.einsum("kij,j,klj->kil", qs, rates, qs)
    a = _columns([lift(g) for g in orbit])
    b = x.ravel()
    coef, _ = nnls(a, b)
    sampled = np.linalg.norm(a @ coef - b)
    slack = 1e-12 * fro(x)
    assert lower <= upper + slack
    assert lower <= sampled + slack
    if not noisy and kind in ("orbit", "mix"):
        assert upper <= slack
    if not noisy and kind in ("ray", "face1", "face2") and side > 0:
        assert lower > 0.0


# ---------------------------------------------------------------------------
# Caratheodory-Toeplitz distance bounds of one-parameter orbit cones
# ---------------------------------------------------------------------------

def _orbit_grid(fam: ConjugationFamily, n: int) -> np.ndarray:
    return fam.elements(np.arange(n)[:, None] * (fam.periods[0] / n))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(REPS),
       st.sampled_from(("random", "orbit", "mix", "pushed")),
       st.floats(-7.0, -2.0), st.sampled_from((-1.0, 1.0)), st.booleans(),
       st.integers(0, 2**32 - 1))
def test_toeplitz_bounds_bracket_the_sampled_distance(rep, kind, log_push, side, noisy, seed):
    """On `_family`'s one-parameter tori: random points, scaled orbit points,
    conic mixes, and mixes of 1..d orbit points (a singular Toeplitz matrix)
    moved along M_0, the orbit mean, by 1e-2 to 1e-7 relative, outward
    (side 1: T - eps I) or inward (T + eps I); plus, if `noisy`, a random
    part mostly off the moment span.  lower <= upper, and lower <= the
    distance to an NNLS fit over 4096 orbit points, which is at least the
    true distance (measured, since the residual NNLS reports can fall below
    it).  Orbit points, mixes and inward moves are certified members;
    outward moves get a positive lower bound.  Random two-qubit frequencies
    are incommensurate, and those families get no closed form."""
    fam = _family(rep, "torus1", seed)
    exact = fam.exact
    if rep == "two_qubit":
        assert exact is None
        return
    assert exact is not None and exact.degree >= 1
    rng = np.random.default_rng(seed)
    scale = rng.uniform(0.1, 10.0)
    period = fam.periods[0]
    atoms = {"orbit": 1, "mix": int(rng.integers(2, 5)),
             "pushed": int(rng.integers(1, exact.degree + 1))}.get(kind, 0)
    thetas = rng.uniform(0.0, period, size=(atoms, 1))
    x = np.tensordot(scale * rng.uniform(0.2, 1.0, atoms), fam.elements(thetas), axes=1)
    if kind == "random":
        x = scale * _direction(fam, rng)
    orbit = _orbit_grid(fam, 4096)
    if kind == "pushed":
        mean = orbit.mean(axis=0)
        x = x - side * 10.0 ** log_push * fro(x) * mean / fro(mean)
    if noisy:
        x = x + 1e-3 * scale * _direction(fam, rng)
    (lower,), (upper,) = exact.contains(x[None])
    a = _columns(orbit)
    b = x.ravel()
    coef, _ = nnls(a, b)
    sampled = np.linalg.norm(a @ coef - b)
    slack = 1e-12 * max(1.0, fro(x))
    assert lower <= upper + slack
    assert lower <= sampled + slack
    if not noisy and (kind in ("orbit", "mix") or (kind == "pushed" and side < 0)):
        assert upper <= slack
    if not noisy and kind == "pushed" and side > 0:
        assert lower > 0.0


# ---------------------------------------------------------------------------
# exact tangent spaces of both closed forms, audited by certified differences
# ---------------------------------------------------------------------------

def _audit_tangent(exact, x: np.ndarray, span: Subspace):
    """At the unit member x of the closed form's cone K, whose linear span is
    `span`: along every direction y of `exact.tangent`'s span, the upper
    distance bound of x +- eps y to K falls as eps^2; along every direction z
    of span that is orthogonal to it, the lower bound of x + eps z or of
    x - eps z grows as eps.  Both bounds are rigorous (`exact.contains`), so
    a missing tangent direction fails the second check and a spurious one
    the first, at eps = 1e-3 and 1e-4."""
    x = x / fro(x)
    tangent = orthonormal_span(exact.tangent(x, 1e-8), shape=span.shape)
    q = span.stack - tangent.stack @ (tangent.stack.T @ span.stack)
    assert np.linalg.norm(tangent.stack - span.stack @ (span.stack.T @ tangent.stack)) < 1e-9
    u, sv, _ = np.linalg.svd(q, full_matrices=False)
    normal = u[:, sv > 0.5]  # q projects an orthonormal basis: each sv is 0 or 1
    for eps in (1e-3, 1e-4):
        for cols, along in ((tangent.stack, True), (normal, False)):
            if cols.shape[1] == 0:
                continue
            ys = cols.T.reshape(-1, *span.shape)
            lower, upper = exact.contains(np.concatenate([x + eps * ys, x - eps * ys]))
            if along:
                assert upper.max() <= 200.0 * eps ** 2, (eps, upper.max())
            else:
                apart = np.maximum(lower[:len(ys)], lower[len(ys):])
                assert apart.min() >= 0.02 * eps, (eps, apart.min())
    return tangent


_SYMMETRIC = tuple(np.eye(3)[:, [i]] @ np.eye(3)[[j]] + np.eye(3)[:, [j]] @ np.eye(3)[[i]]
                   for i in range(3) for j in range(i, 3))
_PERMUTATIONS = ((0, 1, 2), (1, 0, 2), (0, 2, 1), (2, 0, 1), (1, 2, 0), (2, 1, 0))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(("r3", "qubit")),
       st.sampled_from(((3, 2, 1), (2, 2, 1), (2, 1, 1), (1, 1, 1), (1, 0, 0), (1, 1, 0),
                        (4, 1, 0), (3, 1, -1), (2, 0, -1))),
       st.dictionaries(st.integers(0, 5), st.integers(1, 4), min_size=1),
       st.integers(0, 2**32 - 1))
def test_rotation_orbit_tangent_is_certified_by_differences(rep, rates, weights, seed):
    """Members U diag(lam) U^T with lam a conic mix, by integer weights, of
    permutations of the rates: a ray (one permutation), points on faces and
    interior points, with ties and zeros and an indefinite base.  Integer
    weights keep every draw on its face or a margin away from a lower one."""
    exact, lift = _rotation_orbit(rep, np.asarray(rates, dtype=float))
    lam = sum(w * np.asarray(rates, dtype=float)[list(_PERMUTATIONS[k])]
              for k, w in weights.items())
    q = _rotations(np.random.default_rng(seed), 1)[0]
    x = lift(q @ np.diag(lam) @ q.T)
    span = orthonormal_span([lift(m) for m in _SYMMETRIC], shape=x.shape)
    tangent = _audit_tangent(exact, x, span)
    if len(weights) == 1:  # an orbit ray: x and its brackets, no more
        ray = orthonormal_span([x, *comm(np.asarray(exact.seeds), x)], shape=x.shape)
        assert tangent.dim == ray.dim


@functools.lru_cache(maxsize=None)
def _moment_family(source: str) -> ConjugationFamily:
    """The one-parameter torus of a saturated example 2, example 3 or phase_flip
    (control x) wedge, or `_family`'s random r3 or qubit one."""
    if source in ("r3", "qubit"):
        return _family(source, "torus1", 3)
    spec = ChannelSpec(name=source, control_axes=("x",), drift_axis="z") \
        if source == "phase_flip" else ChannelSpec(name=source)
    return saturate(initial_wedge(build_system(spec)), orbit_samples=24).cone.analytic


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(("example2", "example3", "phase_flip", "r3", "qubit")),
       st.dictionaries(st.integers(0, 5), st.integers(1, 4), min_size=1, max_size=5))
def test_moment_curve_tangent_is_certified_by_differences(source, weights):
    """Conic mixes, by integer weights, of 1 to 5 orbit points at multiples of
    a sixth of the period: a single atom, faces of up to d atoms, and
    interior points.  Separated atoms and integer weights keep every draw a
    margin away from a lower face.  Twelfths are too close: three adjacent
    ones on a degree-2 curve (example 3, weights 1, 1, 4) give an interior
    point whose Toeplitz matrix has least eigenvalue 6e-4, so the eps = 1e-3
    differences leave the cone along tangent directions."""
    fam = _moment_family(source)
    exact = fam.exact
    atoms = fam.elements(np.array(sorted(weights))[:, None] * (fam.periods[0] / 6))
    x = np.tensordot([weights[k] for k in sorted(weights)], atoms, axes=1)
    span = orthonormal_span(list(exact.basis.T.reshape(-1, *x.shape)), shape=x.shape)
    tangent = _audit_tangent(exact, x, span)
    if len(weights) == 1:  # one atom: the ray and the orbit's direction
        assert tangent.dim == 2


# ---------------------------------------------------------------------------
# membership at straddling exact bounds, the saturated wedge's bookkeeping,
# the singular-value wedge dimension and the Newton support ascent
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _certified_cone(name: str) -> Cone:
    """The saturated cone of example 1 (r3 full-rotation orbit, Schur-Horn)
    or of phase_flip with control x (qubit one-parameter torus,
    Caratheodory-Toeplitz), at 48 samples."""
    spec = {"example1": ChannelSpec(name="example1"),
            "phase_flip": ChannelSpec(name="phase_flip", control_axes=("x",),
                                      drift_axis="z")}[name]
    return saturate(initial_wedge(build_system(spec)), orbit_samples=48).cone


def _orbit_points(cone: Cone, rng, pushes) -> np.ndarray:
    """Unit orbit points of the cone's family, each moved by 10**push along
    a random unit direction of the carrier (not moved where push is None);
    uniform over a torus's box, normal draws on an orbit, which has none."""
    fam = cone.analytic
    size = (len(pushes), fam.n_params)
    thetas = (rng.normal(scale=np.pi, size=size) if fam.kind == "orbit"
              else rng.uniform(0.0, 1.0, size=size) * np.array(fam.periods))
    points = fam.elements(thetas)
    points = points / np.linalg.norm(points, axis=(1, 2))[:, None, None]
    for p, push in zip(points, pushes):
        if push is not None:
            d = _direction(fam, rng)
            p += 10.0 ** push * d / fro(d)
    return points


@pytest.mark.parametrize("name", ["example1", "phase_flip"])
def test_spot_points_whose_exact_bounds_straddle_match_per_point_membership(name):
    """Points 10^-8.3 to 10^-7.7 off the orbit of a certified cone, where the
    Schur-Horn or Toeplitz bounds can straddle the threshold: there
    `cone_contains` leaves the verdict to the distance from the fit, of
    which some points are members."""
    cone = _certified_cone(name)
    rng = np.random.default_rng(7)
    points = _orbit_points(cone, rng, rng.uniform(-8.3, -7.7, size=400))
    lower, upper = cone.exact.contains(points)
    bounds = np.array([cone.tol * max(1.0, fro(p)) for p in points])
    straddle = (lower <= bounds) & (upper > bounds)
    points, bounds = points[straddle], bounds[straddle]
    want = [cone_contains(cone, p, cone.tol) for p in points]
    assert want == [cone_residual(cone, p) <= b for p, b in zip(points, bounds)]
    assert any(want) and len(want) >= 2


@pytest.mark.parametrize("name, samples, report", [
    ("two_qubit_C", 48, {"rounds": 2, "converged": True, "termination": "fixed-point",
                         "edge_dims": [2, 2], "novel_counts": [0, 0]}),
    ("two_qubit_B", 120, {"rounds": 2, "converged": True, "termination": "no-family",
                          "edge_dims": [6, 15], "novel_counts": [0, 0]})])
def test_two_qubit_spot_check_makes_no_fit(monkeypatch, name, samples, report):
    """two_qubit_C's edge stops growing after round one, where its orbit
    centroid is nonzero, and round two ends at the fixed point; two_qubit_B's
    orbit cone is a subspace, which `lineality` reads off the orbit centroid
    (where it once fitted each of 125 stored generators' negatives), so the
    edge grows to all 15 dimensions, and the drift's part off it, of norm
    below 1e-12, builds no family (where a rounding-level base once took a
    third round to a spot check).  Neither saturation makes a `_cone_fit`
    call."""
    calls = []
    fit = wedge_module._cone_fit
    monkeypatch.setattr(wedge_module, "_cone_fit",
                        lambda *a, **k: calls.append(1) or fit(*a, **k))
    w = saturate(initial_wedge(build_system(ChannelSpec(name=name))), orbit_samples=samples)
    assert w.saturation == {**report, "tol": 1e-8, "orbit_samples": samples}
    assert calls == []


def _reference_lineality(c: Cone, tol: float) -> Subspace:
    """The fitted rule `lineality` applied to every cone before the orbit
    centroid decided cones with a family: a mean functional above 10 tol on
    every unit generator certifies pointedness, otherwise the generators
    whose negatives `cone_contains` fits span the lineality."""
    h = c.stack.mean(axis=1)
    nh = np.linalg.norm(h)
    if nh > 0 and (c.stack.T @ (h / nh)).min() > 10 * tol:
        two_sided = []
    else:
        two_sided = [g for g in c.generators if cone_contains(c, -g, tol)]
    return orthonormal_span(two_sided, shape=c.shape)


def _reference_centroid(fam: ConjugationFamily) -> np.ndarray:
    """Projection of the base onto the common kernel of the maps [s_i, .],
    each written out as a dense linear map of the whole carrier."""
    shape = fam.base.shape
    units = np.eye(int(np.prod(shape))).reshape(-1, *shape)
    ad = np.concatenate([_columns(comm(np.broadcast_to(s, units.shape), units))
                         for s in fam.seeds])
    _, sv, vt = np.linalg.svd(ad)
    kernel = vt[np.count_nonzero(sv > 1e-9 * sv[0]):]
    b = fam.base.ravel()
    return (kernel.T @ (kernel @ b)).reshape(shape)


def _dichotomy_family(rep: str, kind: str, seed: int, case: str) -> ConjugationFamily:
    """`_family`'s seeds on a base with a trace margin of at least 0.27
    ('traced'), on its traceless part ('traceless'), or on that minus its
    centroid ('centred')."""
    fam = _family(rep, kind, seed)
    b = fam.base
    n = b.shape[0]
    if case == "traced":
        return ConjugationFamily(fam.seeds, b + fro(b) * np.eye(n))
    b = b - np.trace(b) / n * np.eye(n)
    if case == "centred":
        b = b - _reference_centroid(ConjugationFamily(fam.seeds, b))
    return ConjugationFamily(fam.seeds, b)


@SETTINGS
@given(st.sampled_from(("r3", "qubit")), st.sampled_from(KINDS), st.integers(0, 2**32 - 1),
       st.sampled_from(("traced", "traceless", "centred")))
def test_lineality_of_an_orbit_cone_is_the_centroid_dichotomy(rep, kind, seed, case):
    """A cone with a family and 24 sweep rows, on the orbit of a base with
    a trace margin, of a traceless base, or of a base with zero centroid.
    `lineality` makes no fit.  A trace margin decides "pointed" without the
    orbit's span; a traceless base takes the span, and the cone is pointed
    exactly when the centroid (the projection onto the dense common kernel)
    is nonzero.  Otherwise the lineality is the orbit's span: it holds the
    base and 64 random orbit points with their negatives, is closed under
    every [s_i, .], and has the rank of those points.  On one-parameter tori the
    fitted rule agrees."""
    fam = _dichotomy_family(rep, kind, seed, case)
    b = fam.base
    rng = np.random.default_rng(seed)
    cone = Cone(shape=b.shape, analytic=fam, thetas=fam.params(24, rng))
    calls = []
    closure = wedge_module.lie_closure
    with pytest.MonkeyPatch.context() as mp:
        for name in ("_cone_fit", "cone_contains"):
            mp.setattr(wedge_module, name, lambda *a, _name=name, **k: calls.append(_name))
        mp.setattr(wedge_module, "lie_closure",
                   lambda *a, **k: calls.append("lie_closure") or closure(*a, **k))
        got = lineality(cone)
    assert calls == ([] if case == "traced" else ["lie_closure"])
    if case == "traced" or fro(_reference_centroid(fam)) > 1e-6 * fro(b):
        assert case != "centred"
        assert got.dim == 0
    else:
        assert got.contains(b)
        for s in fam.seeds:
            for v in got.mats:
                assert got.residual(comm(s, v)) <= 1e-8
        points = fam.elements(rng.normal(scale=np.pi, size=(64, fam.n_params)))
        for g in points:
            assert got.contains(g) and got.contains(-g)
        assert got.dim == _rank(_columns(points))
    if kind == "torus1":
        want = _reference_lineality(cone, cone.tol)
        assert got.dim == want.dim
        assert all(got.contains(m) for m in want.mats)


@pytest.mark.parametrize("base, dim", [(np.diag([1.0, 1.0, -2.0]), 0),
                                       (np.diag([1.0, -1.0, 0.0]), 2)])
def test_lineality_of_z_rotation_orbits(base, dim):
    """Traceless bases under rotations about z: diag(1, 1, -2) is its own
    centroid, a pointed ray; diag(1, -1, 0) turns on a circle around the
    apex, whose cone is a plane.  The fitted rule agrees."""
    fam = ConjugationFamily((H_Z,), base)
    cone = Cone(shape=(3, 3), analytic=fam,
                thetas=fam.params(24, np.random.default_rng(0)))
    got = lineality(cone)
    want = _reference_lineality(cone, cone.tol)
    assert got.dim == want.dim == dim
    assert all(got.contains(m) for m in want.mats)


@SETTINGS
@given(st.sampled_from(REPS), st.integers(0, 2**32 - 1), st.integers(0, 3),
       st.integers(0, 5), st.integers(0, 4), st.sampled_from((0.0, 1e-14, 1e-5)))
def test_wedge_dim_is_the_span_columns_count(rep, seed, k, rank, extra, noise):
    """Cones of `rank` independent edge-orthogonal directions plus `extra`
    combinations of them, with noise far below or far above the rank
    tolerance: the singular-value count is the `_span_columns` count."""
    rng = np.random.default_rng(seed)
    shape = _carrier(rep)
    edge = orthonormal_span(_matrices(rng, rep, k), shape=shape)
    basis = _matrices(rng, rep, rank)
    combos = [sum(c * b for c, b in zip(rng.normal(size=rank), basis))
              for _ in range(extra if rank else 0)]
    gens = []
    for g in basis + combos:
        d = _matrices(rng, rep, 1)[0]
        gens.append(g + noise * fro(g) * d / fro(d))
    w = Wedge(edge=edge, cone=Cone(generators=tuple(gens), shape=shape))
    units = wedge_module._edge_orthogonal_units(edge, w.cone.stack)
    assert w.dim == edge.dim + wedge_module._span_columns(units).shape[1]


@SETTINGS
@given(st.sampled_from(REPS), st.sampled_from(TORI), st.integers(0, 2**32 - 1))
def test_newton_support_beats_its_grid_candidate(rep, kind, seed):
    """On every torus the Newton ascent starts from the best support
    candidate and keeps its result only when it scores at least as well,
    and the returned element scores the returned value.  The element comes
    from a stacked eigh and the value from the merged polynomial, so they
    agree to rounding on the scale |D| |base| that bounds both (3.1e-13 of
    it at worst over 300 qubit two-parameter seeds)."""
    fam = _commuting_family(rep, kind, seed)
    direction = _direction(fam, np.random.default_rng(seed))
    g, val = fam.support(direction)
    thetas, waves = fam._support_grid
    assert val >= fam._objective(direction)(thetas, waves).max()
    assert abs(inner(g, direction) - val) <= _scoring_tol(fam, direction)


def _scoring_tol(fam: ConjugationFamily, direction) -> float:
    """Rounding allowance between <element(theta), D> and the merged
    objective at theta: 1e-11 max(1, |D|) max(1, |base|)."""
    return 1e-11 * max(1.0, fro(direction)) * max(1.0, fro(fam.base))


# ---------------------------------------------------------------------------
# the exact outer wedge: gks_margin and outer_contains
# ---------------------------------------------------------------------------

@SETTINGS
@given(st.sampled_from((2, 4)), st.integers(0, 2**32 - 1), st.integers(1, 3))
def test_gks_margin_admits_every_gks_generator(n, seed, k):
    """i ad(H) plus k GKS terms at nonnegative rates on random (non-normal)
    noise operators."""
    rng = np.random.default_rng(seed)
    x = 1j * ad_hat(_hermitian(rng, n))
    for g in rng.uniform(0.0, 2.0, size=k):
        x = x + gks_term(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)), g)
    assert gks_margin(x) >= -1e-12


@SETTINGS
@given(st.sampled_from((2, 4)), st.integers(0, 2**32 - 1), st.floats(0.01, 2.0))
def test_gks_margin_refuses_a_negative_rate(n, seed, rate):
    """One GKS term at rate -rate puts -rate |V_0|^2 on the Choi matrix off
    the maximally entangled vector, V_0 the traceless part of V; the margin
    is that eigenvalue over max(1, |x|)."""
    rng = np.random.default_rng(seed)
    v = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    x = 1j * ad_hat(_hermitian(rng, n)) + gks_term(v, -rate)
    v0 = v - np.trace(v) / n * np.eye(n)
    want = -rate * fro(v0) ** 2 / max(1.0, fro(x))
    assert gks_margin(x) < 0.0
    assert abs(gks_margin(x) - want) <= 1e-10 * abs(want)


@SETTINGS
@given(st.integers(0, 2**32 - 1))
def test_gks_margin_matches_the_r3_rule_on_unital_qubit_generators(seed):
    """On a unital qubit generator (Hermitian noise operators, rates of
    either sign) the Choi margin admits x exactly when the relaxation rates
    r of its coherence representation ptm_rep(x)[1:, 1:].T obey
    r_i <= r_j + r_k, off the boundary."""
    rng = np.random.default_rng(seed)
    x = 1j * ad_hat(_hermitian(rng, 2))
    for g in rng.uniform(-0.3, 1.0, size=3):
        x = x + gks_term(_hermitian(rng, 2), g)
    r3 = gks_margin(ptm_rep(x)[1:, 1:].T)
    if abs(r3) > 1e-9:
        assert (gks_margin(x) >= -1e-12) == (r3 > 0.0)


def _named_system(name: str) -> ControlSystem:
    """A named system; the qubit files take control x and drift z."""
    if name in ("phase_flip", "bit_flip", "depolarizing"):
        return build_system(ChannelSpec(name=name, control_axes=("x",), drift_axis="z"))
    return build_system(ChannelSpec(name=name))


@functools.lru_cache(maxsize=None)
def _named_wedge(name: str) -> Wedge:
    """A named system's wedge, saturated at 360 samples."""
    return saturate(initial_wedge(_named_system(name)), orbit_samples=360)


NAMED_WEDGES = ("example1", "example2", "example3", "phase_flip", "bit_flip", "depolarizing",
                "two_qubit_A", "two_qubit_B", "two_qubit_C")


@SETTINGS
@given(st.sampled_from(NAMED_WEDGES), st.integers(0, 2**32 - 1))
def test_inner_wedge_lies_in_the_outer_wedge(name, seed):
    """A random wedge element, an edge combination plus a conic combination
    of up to four stored generators, passes the outer test; so does its
    negative when the cone is empty, and otherwise a negated generator
    fails it."""
    w = _named_wedge(name)
    rng = np.random.default_rng(seed)
    x = np.tensordot(rng.normal(size=w.edge.dim), np.stack(w.edge.mats), axes=1)
    gens = w.cone.generators
    if gens:
        idx = rng.integers(len(gens), size=int(rng.integers(1, 5)))
        x = x + np.tensordot(rng.uniform(0.0, 2.0, size=len(idx)), np.stack(gens)[idx], axes=1)
        assert not outer_contains(w, -gens[idx[0]])
    else:
        assert outer_contains(w, -x)
    assert wedge_contains(w, x)
    assert outer_contains(w, x)


@SETTINGS
@given(st.sampled_from(("example1", "example2", "example3", "phase_flip", "depolarizing",
                        "two_qubit_C")),
       st.sampled_from((0.1, 0.01)), st.integers(0, 2**32 - 1))
def test_one_segment_channels_have_generators_in_the_outer_wedge(name, t, seed):
    """-log(X) / t of a one-segment channel X = expm(-t L_u), with amplitudes
    u uniform in [-U_MAX, U_MAX], passes the outer test (as its transfer
    matrix on a qubit or two qubits)."""
    w = _named_wedge(name)
    system = _named_system(name)
    u = np.random.default_rng(seed).uniform(-reachable.U_MAX, reachable.U_MAX,
                                            size=system.n_controls)
    x = -logm(propagate(system, Schedule(((t, u),)))) / t
    assert outer_contains(w, x if x.shape == (3, 3) else ptm_rep(x))


# ---------------------------------------------------------------------------
# saturation with one sweep, and the broadcast Kronecker product
# ---------------------------------------------------------------------------

def _reference_saturate(w: Wedge, orbit_samples: int, max_rounds: int, tol: float,
                        seed: int) -> Wedge:
    """The saturation loop as it was while every round drew its family's
    sweep rows, including the rounds whose cone only `lineality` reads."""
    shape = w.cone.shape
    drift = w.drift if w.drift is not None else np.zeros(shape)
    report = {"rounds": 0, "converged": False, "termination": None,
              "edge_dims": [], "novel_counts": [], "tol": tol,
              "orbit_samples": orbit_samples}
    edge, lin = w.edge, ()
    for rnd in range(1, max_rounds + 1):
        gens = [*edge.mats, *lin]
        if gens:
            edge = lie_closure(gens, tol=1e-9)
        base = drift - edge.project(drift)
        report["rounds"] = rnd
        report["edge_dims"].append(edge.dim)
        report["novel_counts"].append(0)
        if not edge.dim or fro(base) <= 1e-12:
            cone = Cone((base,) if fro(base) > 1e-12 else (), shape=shape, tol=tol)
            report.update(converged=True, termination="no-family")
            break
        family = ConjugationFamily(edge.mats, base)
        cone = Cone(shape=shape, analytic=family, tol=tol,
                    thetas=family.params(orbit_samples, np.random.default_rng(seed)))
        if rnd > 1 and not lin:
            aperiodic = family.kind == "torus" and not family.periodic
            report.update(converged=not aperiodic,
                          termination="aperiodic-torus" if aperiodic else "fixed-point")
            break
        lin = lineality(cone, tol).mats
    return Wedge(edge=edge, cone=cone, drift=drift, saturation=report)


def _same_bytes(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@st.composite
def _saturation_systems(draw) -> ControlSystem:
    """One of the 9 named systems, or a qubit channel with any control axes
    (none included) and any drift axis or none."""
    name = draw(st.sampled_from(NAMED_WEDGES + ("qubit",)))
    if name != "qubit":
        return _named_system(name)
    channel = draw(st.sampled_from(("bit_flip", "phase_flip", "bit_phase_flip",
                                    "depolarizing")))
    axes = draw(st.lists(st.sampled_from("xyz"), unique=True, max_size=3))
    drift = draw(st.sampled_from((None, "x", "y", "z")))
    return build_system(ChannelSpec(name=channel, control_axes=tuple(axes), drift_axis=drift))


@settings(max_examples=60, deadline=None)
@given(_saturation_systems(), st.integers(1, 720), st.sampled_from((1, 2, 10)),
       st.integers(0, 2**32 - 1))
def test_saturate_matches_the_per_round_sweep_bit_for_bit(system, samples, max_rounds, seed):
    """Drawing the sweep rows once, for the returned family, changes no
    byte of the result against the loop that drew them every round: the
    edge, the family's seeds and base, the rows, the report, `Wedge.dim` and
    `pointed`, on converged and cut-off saturations alike."""
    start = initial_wedge(system)
    got = saturate(start, orbit_samples=samples, max_rounds=max_rounds, seed=seed)
    want = _reference_saturate(start, samples, max_rounds, 1e-8, seed)
    assert _same_bytes(got.edge.stack, want.edge.stack)
    family, reference = got.cone.analytic, want.cone.analytic
    assert (family is None) == (reference is None)
    if family is None:
        assert _same_bytes(got.cone.stack, want.cone.stack)
    else:
        assert _same_bytes(np.stack(family.seeds), np.stack(reference.seeds))
        assert _same_bytes(family.base, reference.base)
        assert _same_bytes(got.cone.thetas, want.cone.thetas)
    assert repr(got.saturation) == repr(want.saturation)
    assert (got.dim, got.cone.pointed) == (want.dim, want.cone.pointed)


@SETTINGS
@given(st.sampled_from((2, 3, 4)), st.sampled_from((2, 3, 4)),
       st.sampled_from(((float, float), (complex, complex), (float, complex),
                        (complex, float))),
       st.integers(0, 2**32 - 1))
def test_kron_is_np_kron_bit_for_bit(n, m, dtypes, seed):
    """The broadcast product forms np.kron's entrywise products, so every
    byte agrees on real, complex and mixed square pairs; so does the
    block-diagonal eye(k + 1) (x) 16x16 of the reachable Jacobian."""
    rng = np.random.default_rng(seed)

    def draw(side, dtype):
        a = rng.normal(size=(side, side))
        return a + 1j * rng.normal(size=(side, side)) if dtype is complex else a

    a, b = draw(n, dtypes[0]), draw(m, dtypes[1])
    assert _same_bytes(kron(a, b), np.kron(a, b))
    assert _same_bytes(kron(a.T, b), np.kron(a.T, b))
    big = draw(16, dtypes[1])
    for k in range(4):
        assert _same_bytes(kron(np.eye(k + 1), big), np.kron(np.eye(k + 1), big))


# ---------------------------------------------------------------------------
# the BCH probe's bracket-table certificate
# ---------------------------------------------------------------------------

QUBIT_GRID = tuple((channel, axes, drift)
                   for channel in ("bit_flip", "phase_flip", "bit_phase_flip", "depolarizing")
                   for axes in ("x", "y", "z", "xy", "xz", "yz", "xyz")
                   for drift in (None, "x", "y", "z"))


@functools.lru_cache(maxsize=None)
def _grid_wedge(channel: str, axes: str, drift) -> Wedge:
    spec = ChannelSpec(channel, control_axes=tuple(axes), drift_axis=drift)
    return saturate(initial_wedge(build_system(spec)), orbit_samples=24)


@pytest.mark.parametrize("channel, axes, drift", QUBIT_GRID)
def test_qubit_grid_closed_forms_follow_the_control_axes(channel, axes, drift):
    """On the Pauli transfer matrices, two or more control axes generate
    every rotation of the coherence vector: the edge is so(3), the cone a
    full-rotation orbit decided by Schur-Horn (`RotationOrbit`, read off
    the traceless block), and the wedge has dimension 9, or 4 for the
    depolarizing channel, whose rates are equal, so its orbit is one point.
    One control axis gives a one-parameter torus decided by the
    Caratheodory-Toeplitz bounds (`MomentCurve`)."""
    w = _grid_wedge(channel, axes, drift)
    if len(axes) >= 2:
        assert type(w.cone.exact) is RotationOrbit and w.cone.exact.qubit
        assert (w.edge.dim, w.dim) == ((3, 4) if channel == "depolarizing" else (3, 9))
    else:
        assert type(w.cone.exact) is MomentCurve


@st.composite
def _probed_wedges(draw) -> Wedge:
    """One of the 112 qubit (channel, control axes, drift) wedges, an
    so(3) orbit wedge whose rates may be isotropic, scaled by 10^k for k in
    -12..12, or an r3 wedge whose edge is {0}, span{H_Z} or so(3) and
    whose one to four generators are diagonal, diagonal with two equal
    entries (commuting with H_Z), or arbitrary."""
    kind = draw(st.sampled_from(("qubit", "orbit", "generators")))
    if kind == "qubit":
        return _grid_wedge(*draw(st.sampled_from(QUBIT_GRID)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "orbit":
        scale = 10.0 ** draw(st.integers(-12, 12))
        lam, a, b = np.sort(rng.uniform(0.1, 2.0, size=3))[::-1] * scale
        rates = draw(st.sampled_from(((lam, lam, lam), (lam, 0.0, 0.0), (lam, lam, 0.0),
                                      (lam, a, b))))
        return orbit_wedge(rates, hull_samples=24, seed=0)
    edge = orthonormal_span(draw(st.sampled_from(((), (H_Z,), (H_X, H_Y, H_Z)))),
                            shape=(3, 3))
    pattern = draw(st.sampled_from(("diagonal", "z-symmetric", "arbitrary")))
    gens = []
    for _ in range(draw(st.integers(1, 4))):
        d = rng.normal(size=3)
        if pattern == "z-symmetric":
            d[1] = d[0]
        gens.append(np.diag(d) if pattern != "arbitrary" else rng.normal(size=(3, 3)))
    return Wedge(edge=edge, cone=Cone(gens, shape=(3, 3)))


def _span_certificate(w: Wedge) -> bool:
    """The bracket table over an orthonormal basis of edge + `Cone.span`
    itself, the orbit's span included."""
    span = orthonormal_span([*w.edge.mats, *w.cone.span().mats], shape=w.cone.shape)
    return all(w.edge.residual(comm(a, b)) <= 1e-12
               for k, a in enumerate(span.mats) for b in span.mats[k + 1:])


@settings(max_examples=80, deadline=None)
@given(_probed_wedges(), st.integers(0, 2**32 - 1))
def test_bracket_certificate_is_sound(reference_probe, w, seed):
    """The certificate is that of the table over edge + `Cone.span`.  Where
    it holds, the order-4 BCH tail of each random pair of unit members, at
    t = 1e-2 and 0.3, lies within 1e-12 (|tail| + t^2) of the edge; and
    wherever the per-pair sampled probe finds a witness, it does not."""
    assert w.abelian_modulo_edge == _span_certificate(w)
    if w.abelian_modulo_edge:
        elems = semialgebra._wedge_samples(w, 40, np.random.default_rng(seed))
        n = len(elems) // 2
        a, b = elems[:2 * n:2], elems[1:2 * n:2]
        q = w.edge.stack
        for t in (1e-2, 0.3):
            tails = bch(t * a, t * b) - t * (a + b)
            cols = _columns(tails)
            off = np.linalg.norm(cols - q @ (q.T @ cols), axis=0)
            assert np.all(off <= 1e-12 * (np.linalg.norm(cols, axis=0) + t * t))
    witness, _ = reference_probe(w, 20, (1e-2,), 1e-8, seed)
    assert witness is None or not w.abelian_modulo_edge


# ---------------------------------------------------------------------------
# one membership pass for one matrix or a stack, and the closed-form bounds
# against the formulas they replaced
# ---------------------------------------------------------------------------

MEMBERSHIP_SPECS = {
    "example1": ChannelSpec(name="example1"),
    "example2": ChannelSpec(name="example2"),
    "example3": ChannelSpec(name="example3"),
    "phase_flip": ChannelSpec(name="phase_flip", control_axes=("x",), drift_axis="z"),
    "depolarizing_xy": ChannelSpec(name="depolarizing", control_axes=("x", "y"),
                                   drift_axis="z"),
}
_POINT_KINDS = ("member", "negative", "random", "imaginary", "straddling")


@functools.lru_cache(maxsize=None)
def _membership_wedge(name: str) -> Wedge:
    """Examples 1-3 and phase_flip (control x, drift z), whose cones the
    Schur-Horn (example 1) or Toeplitz bounds decide, and the depolarizing
    qubit with controls x and y and drift z, a qubit rotation orbit with
    equal rates; saturated at 48 samples."""
    return saturate(initial_wedge(build_system(MEMBERSHIP_SPECS[name])), orbit_samples=48)


def _membership_stack(w: Wedge, rng, kinds) -> np.ndarray:
    """One point per entry of `kinds`: a member (a conic mix of 1-3 stored
    generators plus an edge part), its negative, a normal draw on the
    carrier, a member plus an imaginary part of size 10^-10 to 1 (on a real
    carrier a non-member unless it is tiny), or a unit orbit point moved
    10^-8.3 to 10^-7.7 along a random direction, where the closed-form
    bounds can straddle the threshold and `cone_residual` decides."""
    gens, shape = np.stack(w.cone.generators), w.cone.shape

    def member():
        idx = rng.integers(len(gens), size=int(rng.integers(1, 4)))
        x = np.tensordot(rng.uniform(0.2, 1.0, size=len(idx)), gens[idx], axes=1)
        return x + np.tensordot(rng.normal(size=w.edge.dim), np.stack(w.edge.mats), axes=1)

    points = []
    for kind in kinds:
        if kind == "member":
            x = member()
        elif kind == "negative":
            x = -member()
        elif kind == "random":
            x = rng.normal(size=shape)
        elif kind == "imaginary":
            x = member() + 1j * 10.0 ** rng.uniform(-10.0, 0.0) * rng.normal(size=shape)
        else:
            x = _orbit_points(w.cone, rng, [rng.uniform(-8.3, -7.7)])[0]
        points.append(x)
    return np.array(points, dtype=complex if any(np.iscomplexobj(p) for p in points)
                    else float)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(tuple(MEMBERSHIP_SPECS)),
       st.lists(st.sampled_from(_POINT_KINDS), min_size=1, max_size=10),
       st.integers(0, 2**32 - 1))
def test_stacked_membership_is_the_per_point_verdicts(name, kinds, seed):
    """`wedge_contains` and `cone_contains` on a (k, *shape) stack return k
    verdicts, each the one its matrix gets alone; a single matrix gets a
    Python bool."""
    w = _membership_wedge(name)
    xs = _membership_stack(w, np.random.default_rng(seed), kinds)
    for oracle, target in ((wedge_contains, w), (cone_contains, w.cone)):
        got = oracle(target, xs)
        want = [oracle(target, x) for x in xs]
        assert all(type(v) is bool for v in want)
        assert got.dtype == bool and got.shape == (len(xs),)
        assert got.tolist() == want
    assert wedge_contains(w, xs[:0]).shape == (0,)


def _reference_schur_horn(exact, xs: np.ndarray):
    """`RotationOrbit.contains` as it read before it took its rate constants
    from cached tables and |S| and |S - (tr S / 3) I| from S's eigenvalues."""
    total = float(np.sum(exact.rates))
    xs = np.asarray(xs)
    if exact.qubit:
        m = xs[:, 1:, 1:]
        off = np.hypot(np.linalg.norm(xs[:, 0], axis=1), np.linalg.norm(xs[:, 1:, 0], axis=1))
    else:
        m, off = xs, np.zeros(len(xs))
    s = (m + np.swapaxes(m, 1, 2)) / 2
    off = np.hypot(off, np.linalg.norm(m - s, axis=(1, 2)))
    lam = np.linalg.eigvalsh(s)[:, ::-1]
    tr = lam.sum(axis=1)
    t = tr / total
    mu_k = np.cumsum(exact.rates)[:2]
    k = np.arange(1, 3)
    v_k = np.cumsum(lam, axis=1)[:, :2] - t[:, None] * mu_k
    g_k = np.maximum(t[:, None] * mu_k - k * tr[:, None] / 3, 0.0)
    apart = np.maximum(np.maximum(-tr, 0.0) / np.sqrt(3.0),
                       (v_k / (np.sqrt(k) + np.sqrt(3.0) * mu_k / total)).max(axis=1))
    lower = np.hypot(off, np.maximum(apart, 0.0))
    vp = np.maximum(v_k, 0.0)
    mix = np.divide(vp, vp + g_k, out=np.zeros_like(vp), where=vp > 0.0).max(axis=1)
    centred = np.linalg.norm(s - (tr / 3)[:, None, None] * np.eye(3), axis=(1, 2))
    upper = np.hypot(off, np.where(tr >= 0.0, mix * centred, np.linalg.norm(s, axis=(1, 2))))
    return lower, upper


def _reference_toeplitz(exact, xs: np.ndarray):
    """`MomentCurve.contains` as it read before it kept its reshaped
    Toeplitz table and took its products slice by slice."""
    flat = np.asarray(xs).reshape(len(xs), -1)
    c = flat @ exact.basis
    off = np.linalg.norm(flat - c @ exact.basis.T, axis=1)
    m, n, _ = exact.toeplitz.shape
    toeplitz = exact.toeplitz.reshape(m, n * n)
    lam, vecs = np.linalg.eigh((c @ toeplitz).reshape(-1, n, n))
    gap = np.maximum(-lam[:, 0], 0.0)
    v = vecs[:, :, 0]
    normal = np.real((np.conj(v)[:, :, None] * v[:, None, :]).reshape(-1, n * n)
                     @ toeplitz.T)
    lower = np.hypot(off, gap / np.linalg.norm(normal, axis=1))
    upper = np.hypot(off, gap * exact.m0_norm)
    return lower, upper


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(tuple(MEMBERSHIP_SPECS)),
       st.lists(st.sampled_from(_POINT_KINDS), min_size=1, max_size=10),
       st.floats(-3.0, 3.0), st.integers(0, 2**32 - 1))
def test_closed_form_bounds_match_the_formulas_they_replaced(name, kinds, log_scale, seed):
    """The Schur-Horn bounds (rate constants cached per orbit, both norms of
    S read off its eigenvalues, sums of squares) and the Toeplitz bounds
    (reshaped table kept, products slice by slice) agree with the reference
    copies, run one point at a time, to 1e-13 of |x|, at scales 1e-3 to
    1e3.  The closed forms take real points, so an imaginary part is
    dropped here; `_membership` adds it to their bounds."""
    w = _membership_wedge(name)
    exact = w.cone.exact
    reference = _reference_toeplitz if name in ("example2", "example3", "phase_flip") \
        else _reference_schur_horn
    xs = 10.0 ** log_scale * _membership_stack(w, np.random.default_rng(seed), kinds).real
    lower, upper = exact.contains(xs)
    want = np.array([np.concatenate(reference(exact, x[None])) for x in xs])
    size = np.array([fro(x) for x in xs])
    assert np.all(np.abs(lower - want[:, 0]) <= 1e-13 * size)
    assert np.all(np.abs(upper - want[:, 1]) <= 1e-13 * size)
    assert np.all(lower <= upper + 1e-13 * size)


@pytest.mark.parametrize("oracle", ["cone", "wedge"])
@pytest.mark.parametrize("x, message", [
    (np.zeros((2, 3, 4)), r"a stack x must have the shape \(k, 3, 3\) of k carrier matrices, "
                          r"got \(2, 3, 4\)"),
    (np.zeros((2, 4, 4)), r"a stack x must have the shape \(k, 3, 3\) of k carrier matrices, "
                          r"got \(2, 4, 4\)"),
    (np.zeros((1, 2, 3, 3)), r"a stack x must have the shape \(k, 3, 3\) of k carrier "
                             r"matrices, got \(1, 2, 3, 3\)"),
    (np.zeros((0, 4, 4)), r"a stack x must have the shape \(k, 3, 3\) of k carrier matrices, "
                          r"got \(0, 4, 4\)"),
    (np.zeros((2, 9)), r"x must have the carrier's shape \(3, 3\), got \(2, 9\)"),
    (np.stack([np.eye(3), np.full((3, 3), np.nan)]), "x must be finite"),
])
def test_a_stack_of_no_carrier_gets_its_own_message(oracle, x, message):
    """A stack whose matrices are not the carrier's shape is refused with
    its own message; a 2-d array of another shape, and a stack with a
    non-finite entry, get the single matrix's messages."""
    w = _membership_wedge("example1")
    with pytest.raises(ValueError, match=message):
        if oracle == "cone":
            cone_contains(w.cone, x)
        else:
            wedge_contains(w, x)


def test_outer_contains_and_tangent_space_take_one_matrix():
    """The outer wedge and the tangent space still take one matrix: a stack
    gets the carrier-shape message."""
    w = _membership_wedge("example1")
    stack = np.stack([np.diag([3.0, 2.0, 1.0])] * 2)
    for call in (lambda: outer_contains(w, stack), lambda: semialgebra.tangent_space(w, stack)):
        with pytest.raises(ValueError, match=r"x must have the carrier's shape \(3, 3\), "
                                             r"got \(2, 3, 3\)"):
            call()
