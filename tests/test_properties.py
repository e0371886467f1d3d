"""Property tests of the cached generators, the one-product coherence map
and the incremental contraction audit against loop references kept here."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liewedge.lindblad import (ControlSystem, Superop, ad_hat, coherence_rep,
                               gks_dissipator, lindbladian, pauli_basis, unvec,
                               vec)
from liewedge.matcore import expm, fro, inner
from liewedge.reachable import Schedule, contraction_audit

REPS = ("r3", "qubit", "two_qubit")
HILBERT_DIM = {"qubit": 2, "two_qubit": 4}
SETTINGS = settings(max_examples=40, deadline=None)


def _hermitian(rng, n):
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (m + m.conj().T) / 2.0


def _skew(rng):
    a = rng.normal(size=(3, 3))
    return (a - a.T) / 2.0


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


def _reference_lindbladian(sys: ControlSystem, u) -> np.ndarray:
    """Fresh assembly from ad_hat / gks_term, in the cached path's order."""
    if sys.rep == "r3":
        diss = np.zeros((3, 3))
        for v, g in sys.lindblad_ops:
            diss += g * v
        drift = sys.drift_H.copy() + diss
        controls = [c.copy() for c in sys.controls]
    else:
        n = sys.drift_H.shape[0]
        if sys.lindblad_ops:
            diss = gks_dissipator(sys.lindblad_ops).matrix
        else:
            diss = np.zeros((n * n, n * n), dtype=complex)
        drift = 1j * ad_hat(sys.drift_H).matrix + diss
        controls = [1j * ad_hat(c).matrix for c in sys.controls]
    m = drift.copy()
    for uj, cj in zip(np.asarray(u, dtype=float), controls):
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


def _reference_audit_s(sys: ControlSystem, sched: Schedule, grid: int) -> list:
    """s(t) by re-propagating from t = 0 at every grid point."""
    gens = [np.asarray(lindbladian(sys, u).matrix) for _, u in sched.segments]
    times = np.linspace(0.0, sched.total_duration, grid)
    bounds = np.cumsum([0.0] + [d for d, _ in sched.segments])
    dim = np.asarray(lindbladian(sys).matrix).shape[0]
    vals = []
    for t in times:
        x = np.eye(dim, dtype=complex if sys.rep != "r3" else float)
        for k, gen in enumerate(gens):
            lo, hi = bounds[k], bounds[k + 1]
            if t <= lo:
                break
            x = expm(-(min(t, hi) - lo) * gen) @ x
        cr = x if sys.rep == "r3" else coherence_rep(Superop(matrix=x, rep=sys.rep))
        vals.append(float(np.linalg.norm(cr, "fro") ** 2))
    return vals


@SETTINGS
@given(systems, st.integers(0, 2**32 - 1))
def test_lindbladian_is_bitwise_a_fresh_assembly(sys, seed):
    rng = np.random.default_rng(seed)
    for u in (np.zeros(sys.n_controls), rng.uniform(-5.0, 5.0, size=sys.n_controls)):
        got = np.asarray(lindbladian(sys, u).matrix)
        want = _reference_lindbladian(sys, u)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


@SETTINGS
@given(st.sampled_from(("qubit", "two_qubit")), st.integers(0, 2**32 - 1),
       st.integers(0, 2), st.integers(0, 2), st.floats(0.0, 2.0))
def test_coherence_rep_matches_the_loop(rep, seed, n_controls, n_ops, t):
    sys = _random_system(rep, seed, n_controls, n_ops)
    u = np.random.default_rng(seed).uniform(-5.0, 5.0, size=n_controls)
    gen = np.asarray(lindbladian(sys, u).matrix)
    n = HILBERT_DIM[rep]
    for m in (gen, expm(-t * gen)):
        got = coherence_rep(Superop(matrix=m, rep=rep))
        want = _reference_coherence_rep(m, n)
        assert np.max(np.abs(got - want)) <= 1e-14 * max(1.0, fro(m))


@SETTINGS
@given(st.sampled_from(("qubit", "two_qubit")), st.integers(0, 2**32 - 1),
       st.floats(0.1, 1.0))
def test_coherence_rep_rejects_non_unital_generators(rep, seed, gamma):
    n = HILBERT_DIM[rep]
    lower = np.zeros((n, n), dtype=complex)
    lower[n - 1, 0] = 1.0
    rng = np.random.default_rng(seed)
    sys = ControlSystem(rep=rep, drift_H=_hermitian(rng, n), controls=(),
                        lindblad_ops=((lower, gamma),))
    m = np.asarray(lindbladian(sys).matrix)
    for fn in (lambda: coherence_rep(Superop(matrix=m, rep=rep)),
               lambda: _reference_coherence_rep(m, n)):
        with pytest.raises(ValueError, match="not unital"):
            fn()


@SETTINGS
@given(st.sampled_from(("qubit", "two_qubit")), st.integers(0, 2**32 - 1))
def test_coherence_rep_raises_as_the_loop_does(rep, seed):
    """Unital maps with a few trace-carrying rows and non-real overlaps
    raise the loop's error for the first offending basis element."""
    rng = np.random.default_rng(seed)
    n = HILBERT_DIM[rep]
    v = np.stack([vec(b) for b in pauli_basis(n)], axis=1)
    d = v.shape[1]
    g = rng.normal(size=(d, d)).astype(complex)
    g[rng.integers(d, size=2), rng.integers(d, size=2)] += 1j * rng.integers(0, 2, size=2)
    trace_row = np.where(rng.uniform(size=d) < 0.1, 1.0, 0.0)
    m = v @ g @ v.conj().T + np.outer(vec(np.eye(n)) / np.sqrt(n), trace_row) @ v.conj().T
    try:
        want = _reference_coherence_rep(m, n)
    except ValueError as exc:
        with pytest.raises(ValueError, match=str(exc)):
            coherence_rep(Superop(matrix=m, rep=rep))
    else:
        got = coherence_rep(Superop(matrix=m, rep=rep))
        assert np.max(np.abs(got - want)) <= 1e-14 * max(1.0, fro(m))


@SETTINGS
@given(st.sampled_from(REPS), st.integers(0, 2**32 - 1), st.integers(0, 2),
       st.integers(0, 2), st.lists(st.integers(0, 3), min_size=0, max_size=5),
       st.integers(2, 30))
def test_contraction_audit_is_bitwise_naive_repropagation(rep, seed, n_controls,
                                                          n_ops, quarters, grid):
    """With durations in multiples of 1/4 (zero allowed) the first grid lands
    exactly on every segment boundary; the second schedule has arbitrary
    durations on an arbitrary grid."""
    sys = _random_system(rep, seed, n_controls, n_ops)
    rng = np.random.default_rng(seed)
    amps = [rng.uniform(-5.0, 5.0, size=n_controls) for _ in quarters]
    on_grid = Schedule(tuple((q / 4.0, a) for q, a in zip(quarters, amps)))
    off_grid = Schedule(tuple((q * rng.uniform(0.1, 0.4), a)
                              for q, a in zip(quarters, amps)))
    for sched, g in ((on_grid, max(2, sum(quarters) + 1)), (off_grid, grid)):
        audit = contraction_audit(sys, sched, grid=g)
        assert audit["s"] == _reference_audit_s(sys, sched, g)
