"""Property tests of the cached generators, the one-product coherence maps,
the incremental contraction audit, the stacked realification, the batched
conjugation kernel, the derived family kind, the right-nested Lie closure,
the one-array cones and subspaces, the merged aligned orbit support, the
one-search support function, the merged frequency table, the one-pass
report writer and the exact steering Jacobian against loop, expm,
edge-rule, full-pairwise, per-generator, two-branch, three-routine,
per-entry, two-pass or central-difference references kept here."""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.optimize import minimize, minimize_scalar

from liewedge.channels import ChannelSpec, build_system, sigma, sigma2
from liewedge.cli import _dumps
from liewedge.liealg import lie_closure
from liewedge.lindblad import (ControlSystem, ad_hat, coherence_rep,
                               control_directions, drift_direction, gks_dissipator,
                               lindbladian, pauli_basis, superop_from_coherence, unvec, vec)
from liewedge.matcore import (eig_sym, expm, fro, inner, orthonormal_span, realify,
                              realify_stack, unrealify, unrealify_stack)
from liewedge.reachable import Schedule, _jacobian, contraction_audit, propagate, steer
from liewedge.wedge import (Cone, ConjugationFamily, Wedge, _cone_fit, _period, initial_wedge,
                            saturate)

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
            diss = gks_dissipator(sys.lindblad_ops)
        else:
            diss = np.zeros((n * n, n * n), dtype=complex)
        drift = 1j * ad_hat(sys.drift_H) + diss
        controls = [1j * ad_hat(c) for c in sys.controls]
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


def _reference_superop_from_coherence(s: np.ndarray, n: int) -> np.ndarray:
    """Double loop over the Pauli basis: sum_ij S[i, j] vec(B_j) vec(B_i)^H."""
    vecs = [vec(b) for b in pauli_basis(n)]
    m = np.zeros((n * n, n * n), dtype=complex)
    for i in range(len(vecs)):
        for j in range(len(vecs)):
            if s[i, j] != 0.0:
                m += s[i, j] * np.outer(vecs[j], vecs[i].conj())
    return m


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
        cr = x if sys.rep == "r3" else coherence_rep(x)
        vals.append(float(np.linalg.norm(cr, "fro") ** 2))
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
       st.integers(0, 2), st.integers(0, 2), st.floats(0.0, 2.0))
def test_coherence_rep_matches_the_loop(rep, seed, n_controls, n_ops, t):
    sys = _random_system(rep, seed, n_controls, n_ops)
    u = np.random.default_rng(seed).uniform(-5.0, 5.0, size=n_controls)
    gen = lindbladian(sys, u)
    n = HILBERT_DIM[rep]
    for m in (gen, expm(-t * gen)):
        got = coherence_rep(m)
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
    m = lindbladian(sys)
    for fn in (lambda: coherence_rep(m),
               lambda: _reference_coherence_rep(m, n)):
        with pytest.raises(ValueError, match="not unital"):
            fn()


@SETTINGS
@given(st.sampled_from(("qubit", "two_qubit")), st.integers(0, 2**32 - 1),
       st.floats(-3.0, 3.0), st.booleans())
def test_superop_from_coherence_matches_the_loop(rep, seed, log_scale, sparse):
    """The one product V S^T V^H against the double loop, on dense and
    sparse S, and the round trip through `coherence_rep`."""
    rng = np.random.default_rng(seed)
    n = HILBERT_DIM[rep]
    k = n * n - 1
    s = 10.0 ** log_scale * rng.normal(size=(k, k))
    if sparse:
        s[rng.uniform(size=(k, k)) < 0.7] = 0.0
    got = superop_from_coherence(s)
    assert got.shape == (n * n, n * n)
    scale = max(1.0, fro(s))
    assert np.max(np.abs(got - _reference_superop_from_coherence(s, n))) <= 1e-15 * scale
    assert np.max(np.abs(coherence_rep(got) - s)) <= 1e-14 * scale
    with pytest.raises(ValueError, match=f"expected a {k}x{k} matrix"):
        superop_from_coherence(s[:-1])


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
            coherence_rep(m)
    else:
        got = coherence_rep(m)
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


@SETTINGS
@given(st.sampled_from(REPS), st.integers(0, 2**32 - 1), st.integers(0, 4))
def test_realify_stack_is_per_matrix_realify(rep, seed, m):
    rng = np.random.default_rng(seed)
    n = 3 if rep == "r3" else HILBERT_DIM[rep] ** 2
    complex_field = rep != "r3"
    mats = [rng.normal(size=(n, n)) + (1j * rng.normal(size=(n, n)) if complex_field else 0)
            for _ in range(m)]
    cols = realify_stack(mats, (n, n), complex_field)
    assert cols.shape == ((2 if complex_field else 1) * n * n, m)
    for i, a in enumerate(mats):
        assert cols[:, i].tobytes() == realify(a, complex_field).tobytes()
    back = unrealify_stack(cols, (n, n), complex_field)
    assert back.shape == (m, n, n)
    for i, a in enumerate(mats):
        assert back[i].tobytes() == unrealify(cols[:, i], (n, n), complex_field).tobytes()
        assert np.array_equal(back[i], a)


KINDS = ("grid1", "grid2", "orbit")


def _family(rep: str, kind: str, seed: int, skew: bool = True) -> ConjugationFamily:
    """Unit-norm seeds: skew 3x3 (r3) or i*ad_hat(H) (quantum), commuting
    for grid2; a real (r3) or complex base; a perturbed, non-normal first
    seed unless `skew`, which the constructor rejects."""
    rng = np.random.default_rng(seed)
    n_params = {"grid1": 1, "grid2": 2, "orbit": 3}[kind]
    if rep == "r3":
        first = _skew(rng)
        seeds = ([first, 2.0 * first] if kind == "grid2"
                 else [_skew(rng) for _ in range(n_params)])
        if not skew:
            seeds[0] = seeds[0] + rng.normal(size=(3, 3))
        base = rng.normal(size=(3, 3))
    else:
        n = HILBERT_DIM[rep]
        hs = [_hermitian(rng, n) for _ in range(n_params)]
        if kind == "grid2":
            q = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))[0]
            hs = [q @ np.diag(rng.normal(size=n)) @ q.conj().T for _ in range(2)]
        seeds = [1j * ad_hat(h) for h in hs]
        if not skew:
            seeds[0] = seeds[0] + rng.normal(size=seeds[0].shape)
        base = rng.normal(size=(n * n, n * n)) + 1j * rng.normal(size=(n * n, n * n))
    fam = ConjugationFamily(tuple(s / fro(s) for s in seeds), base)
    assert fam.kind == kind
    return fam


def _reference(fam: ConjugationFamily, g: np.ndarray, params) -> np.ndarray:
    a = sum(p * s for p, s in zip(params, fam.seeds))
    return expm(a) @ g @ expm(-a)


def _close(got: np.ndarray, want: np.ndarray, g: np.ndarray) -> bool:
    """Within 1e-12 max(1, ||g||); unitary conjugation keeps ||want|| = ||g||."""
    return np.max(np.abs(got - want)) <= 1e-12 * max(1.0, fro(g))


@SETTINGS
@given(st.sampled_from(REPS), st.sampled_from(KINDS), st.integers(0, 2**32 - 1),
       st.integers(1, 40))
def test_conjugation_kernel_matches_expm(rep, kind, seed, count):
    """The stacked-eigh kernel agrees with expm(a) g expm(-a)."""
    fam = _family(rep, kind, seed)
    rng = np.random.default_rng(seed)
    g = rng.normal(size=fam.base.shape) + (0 if rep == "r3" else 1j * rng.normal(size=fam.base.shape))
    params = rng.normal(scale=np.pi, size=fam.n_params)
    assert _close(fam.conjugate(g, params), _reference(fam, g, params), g)
    assert _close(fam.element(params), _reference(fam, fam.base, params), fam.base)
    swept = fam.sweep(count, rng)
    if kind == "grid1":
        assert len(swept) == count
    elif kind == "grid2":
        assert len(swept) == max(2, int(np.ceil(np.sqrt(count)))) ** 2
    for p, elem in swept:
        assert p.shape == (fam.n_params,)
        assert _close(elem, _reference(fam, fam.base, p), fam.base)
    stack = np.stack([g, fam.base, -g])
    thetas = rng.normal(size=(3, fam.n_params))
    for got, gi, p in zip(fam.elements(thetas, stack), stack, thetas):
        assert _close(got, _reference(fam, gi, p), gi)


@SETTINGS
@given(st.sampled_from(REPS), st.sampled_from(KINDS), st.integers(0, 2**32 - 1))
def test_non_skew_seeds_are_rejected(rep, kind, seed):
    """A seed that is not skew/anti-Hermitian exponentiates to no rotation,
    so it has no period and no eigh kernel: the family refuses it."""
    with pytest.raises(ValueError, match="skew/anti-Hermitian seeds"):
        _family(rep, kind, seed, skew=False)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(REPS), st.sampled_from(("grid1", "grid2")), st.integers(0, 2**32 - 1),
       st.integers(0, 6), st.booleans(), st.floats(0.0, 2.0), st.floats(-4.0, 4.0))
def test_cone_fit_residual_never_exceeds_the_norm(rep, kind, seed, count, analytic,
                                                  noise, log_scale):
    """Zero lies in every cone, so a fit's residual is at most ||x||: the
    invariant the BCH-closure probe's edge screen rests on.  Stored
    generators from the family's sweep, with or without the family for
    column generation (grid kinds: the random orbit search costs seconds per
    fit); x a signed mix of them plus noise, at any scale."""
    fam = _family(rep, kind, seed)
    rng = np.random.default_rng(seed)
    gens = [g for _, g in fam.sweep(count, rng)]
    cone = Cone(generators=tuple(gens), shape=fam.base.shape,
                complex_field=np.iscomplexobj(fam.base),
                analytic=fam if analytic else None)
    x = noise * rng.normal(size=fam.base.shape)
    if cone.complex_field:
        x = x + 1j * noise * rng.normal(size=fam.base.shape)
    for g in gens:
        x = x + rng.normal() * g
    x = 10.0 ** log_scale * x
    assert _cone_fit(cone, x, rng=rng)[0] <= fro(x) * (1 + 1e-12)


def _reference_kind(edge) -> str:
    """The rule `saturate` applied to its edge before families derived it."""
    if edge.dim == 1:
        return "grid1"
    if edge.dim == 2:
        e1, e2 = edge.mats
        return "grid2" if fro(e1 @ e2 - e2 @ e1) <= 1e-10 else "orbit"
    return "orbit"


@SETTINGS
@given(st.sampled_from(REPS), st.integers(0, 2**32 - 1), st.integers(1, 3), st.booleans())
def test_derived_kind_matches_the_edge_rule(rep, seed, count, commuting):
    """Edges of 1-3 random (or commuting) rotation generators: the family
    on the edge's basis derives the edge rule's kind and each seed's
    period, and neither can be set."""
    rng = np.random.default_rng(seed)
    if rep == "r3":
        first = _skew(rng)
        gens = [(rng.normal() * first if commuting else _skew(rng)) for _ in range(count)]
    else:
        n = HILBERT_DIM[rep]
        q = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))[0]
        hs = [q @ np.diag(rng.normal(size=n)) @ q.conj().T if commuting
              else _hermitian(rng, n) for _ in range(count)]
        gens = [1j * ad_hat(h) for h in hs]
    edge = orthonormal_span(gens)
    fam = ConjugationFamily(edge.mats, rng.normal(size=edge.shape))
    assert fam.kind == _reference_kind(edge)
    assert fam.periods == tuple(_period(m) for m in edge.mats)
    for name in ("kind", "periods"):
        with pytest.raises(AttributeError):
            setattr(fam, name, getattr(fam, name))


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
        _, q = np.linalg.eigh(hs[0] + np.sqrt(2.0) * hs[1])
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


def _reference_support_grid1(fam: ConjugationFamily, direction, f=None):
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


def _reference_support_grid2(fam: ConjugationFamily, direction, f=None):
    """64x64 torus, then Nelder-Mead from its best point, scored by `f`
    (default: the unmerged `_reference_values`)."""
    f = _unmerged(fam, direction) if f is None else f
    grid = _grid(fam, 64)
    vals = f(grid)
    k = int(np.argmax(vals))
    res = minimize(lambda p: -float(f([p])[0]), x0=grid[k],
                   method="Nelder-Mead", options={"xatol": 1e-10, "fatol": 1e-14, "maxiter": 400})
    params, v_best = np.asarray(res.x), float(-res.fun)
    if v_best < vals[k]:
        params, v_best = grid[k], float(vals[k])
    return params, v_best


def _reference_support_random(fam: ConjugationFamily, direction, rng):
    """Best of a 128-element sweep, then Nelder-Mead with looser options."""
    best, best_params = -np.inf, np.zeros(fam.n_params)
    for p, g in fam.sweep(128, rng):
        v = inner(g, direction)
        if v > best:
            best, best_params = v, p
    res = minimize(lambda p: -inner(fam.element(p), direction), x0=best_params,
                   method="Nelder-Mead", options={"xatol": 1e-9, "fatol": 1e-13, "maxiter": 300})
    params = res.x if -res.fun > best else best_params
    return params, max(float(-res.fun), best)


@SETTINGS
@given(st.sampled_from(REPS), st.sampled_from(KINDS), st.integers(0, 2**32 - 1))
def test_merged_support_matches_the_three_routines(rep, kind, seed):
    """Grid1, grid2 and (non-aligned) orbit families against the per-kind
    routines the one search replaced.  The grid kinds share the candidate
    set and refiner, so they return the same element; the orbit search now
    refines with the grid2 options, so there only the values agree and the
    returned element scores the returned value."""
    fam = _family(rep, kind, seed)
    rng = np.random.default_rng(seed)
    direction = rng.normal(size=fam.base.shape) + (
        0 if rep == "r3" else 1j * rng.normal(size=fam.base.shape))
    tol = 1e-12 * max(1.0, fro(direction))
    assert fam.exact is None
    g, val = fam.support(direction, np.random.default_rng(seed))
    if kind == "orbit":
        params, want = _reference_support_random(fam, direction, np.random.default_rng(seed))
        assert abs(inner(g, direction) - val) <= tol
    else:
        # the element pins the candidate set and the refinement on the
        # family's own objective; the value is checked against the
        # unmerged per-entry sum
        ref = _reference_support_grid1 if kind == "grid1" else _reference_support_grid2
        params, _ = ref(fam, direction, f=fam._objective(direction))
        assert g.tobytes() == fam.element(params).tobytes()
        _, want = ref(fam, direction)
    assert abs(val - want) <= tol


def _commuting_family(rep: str, kind: str, seed: int) -> ConjugationFamily:
    """`_family` for the grid kinds; for 'orbit', three commuting unit-norm
    seeds (multiples of one skew matrix on r3, i*ad_hat of jointly
    diagonal H otherwise), so the seeds co-diagonalise."""
    if kind != "orbit":
        return _family(rep, kind, seed)
    rng = np.random.default_rng(seed)
    if rep == "r3":
        first = _skew(rng)
        seeds = [c * first for c in (1.0, -2.0, 0.5)]
        base = rng.normal(size=(3, 3))
    else:
        n = HILBERT_DIM[rep]
        q = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))[0]
        seeds = [1j * ad_hat(q @ np.diag(rng.normal(size=n)) @ q.conj().T) for _ in range(3)]
        base = rng.normal(size=(n * n, n * n)) + 1j * rng.normal(size=(n * n, n * n))
    fam = ConjugationFamily(tuple(s / fro(s) for s in seeds), base)
    assert fam.kind == "orbit" and fam._phases is not None
    return fam


def _direction(fam: ConjugationFamily, rng) -> np.ndarray:
    shape = fam.base.shape
    return rng.normal(size=shape) + (0 if shape == (3, 3) else 1j * rng.normal(size=shape))


@SETTINGS
@given(st.sampled_from(REPS), st.sampled_from(KINDS), st.integers(0, 2**32 - 1))
def test_merged_objective_matches_the_per_entry_sum(rep, kind, seed):
    """One exponential per distinct eigenphase difference gives the sum of
    one exponential per matrix entry, on grid1, grid2 and commuting orbit
    families; every entry's difference lies within the merge tolerance of
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
@given(st.sampled_from(REPS), st.sampled_from(("grid1", "grid2")), st.integers(0, 2**32 - 1))
def test_cached_grid_waves_score_like_values(rep, kind, seed):
    """The grid kinds build their support candidates once per family, and
    scoring them through the cached plane waves is bitwise `values`."""
    fam = _family(rep, kind, seed)
    thetas, waves = fam._support_grid
    assert fam._support_grid[1] is waves
    assert np.array_equal(thetas, _grid(fam, 2048 if kind == "grid1" else 64))
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
    assert fam.kind == ("grid2" if name == "two_qubit_C" else "grid1")
    assert fam._phases[2].shape == (rows, fam.n_params)


def test_grid2_sweep_runs_over_the_torus_row_major():
    fam = _family("qubit", "grid2", 5)
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
    against the whole current basis.  Returns the realified basis stack and
    the number of rounds that added directions."""
    basis = orthonormal_span(gens, tol=tol)
    shape, complex_field = basis.shape, basis.complex_field
    ambient = int(np.prod(shape)) * (2 if complex_field else 1)
    stack = basis.stack
    mats = unrealify_stack(stack, shape, complex_field)
    frontier = mats
    productive = 0
    while stack.shape[1] < ambient:
        new_cols = []
        for lo in range(0, frontier.shape[0], 24):
            f = frontier[lo:lo + 24]
            br = np.einsum("aij,bjk->abik", f, mats) - np.einsum("bij,ajk->abik", mats, f)
            cols = realify_stack(br.reshape(-1, *shape), shape, complex_field)
            res = cols - stack @ (stack.T @ cols)
            sel = np.linalg.norm(res, axis=0) > tol * np.maximum(1.0, np.linalg.norm(cols, axis=0))
            if np.any(sel):
                new_cols.append(res[:, sel])
        if not new_cols:
            break
        u, s, _ = np.linalg.svd(np.concatenate(new_cols, axis=1), full_matrices=False)
        add = u[:, s > tol * s[0]]
        add = add - stack @ (stack.T @ add)
        add = add[:, np.linalg.norm(add, axis=0) > 0.5]
        if add.shape[1] == 0:
            break
        add /= np.linalg.norm(add, axis=0)
        stack = np.concatenate([stack, add], axis=1)
        frontier = unrealify_stack(add, shape, complex_field)
        mats = np.concatenate([mats, frontier], axis=0)
        productive += 1
    return stack, productive


CARRIERS = ("r3", "r3_skew", "qubit", "antihermitian4", "pauli4")
PAULI_PAIRS = [a + b for a in "1xyz" for b in "1xyz"]


def _closure_gens(carrier: str, seed: int, n: int) -> list:
    """n random generators: real 3x3 (general or skew), complex 2x2, 4x4
    anti-Hermitian, or i/2 times a sum of one or two Pauli pairs."""
    rng = np.random.default_rng(seed)
    if carrier == "r3":
        return [rng.normal(size=(3, 3)) for _ in range(n)]
    if carrier == "r3_skew":
        return [_skew(rng) for _ in range(n)]
    if carrier == "qubit":
        return [rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(n)]
    if carrier == "antihermitian4":
        return [1j * _hermitian(rng, 4) for _ in range(n)]
    return [0.5j * sum(sigma2(p) for p in rng.choice(PAULI_PAIRS, size=rng.integers(1, 3)))
            for _ in range(n)]


def _bracket_residual(sub, a: np.ndarray, b: np.ndarray) -> float:
    """Residual of [a, b] off `sub`, relative to max(1, ||[a, b]||)."""
    br = a @ b - b @ a
    return sub.residual(br) / max(1.0, fro(br))


@SETTINGS
@given(st.sampled_from(CARRIERS), st.integers(0, 2**32 - 1), st.integers(1, 3))
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


def test_two_qubit_c_closure_is_closed_under_brackets():
    sys = build_system(ChannelSpec(name="two_qubit_C"))
    s = lie_closure([np.asarray(c) for c in control_directions(sys)]
                    + [np.asarray(drift_direction(sys))])
    assert s.dim == 225
    rng = np.random.default_rng(225)
    for i, j in rng.integers(s.dim, size=(200, 2)):
        assert _bracket_residual(s, s.mats[i], s.mats[j]) <= 1e-8


# ---------------------------------------------------------------------------
# one stored array per subspace and per cone
# ---------------------------------------------------------------------------

def _carrier(rep: str) -> tuple:
    """(shape, complex_field) of a rep's generators."""
    if rep == "r3":
        return (3, 3), False
    n = HILBERT_DIM[rep] ** 2
    return (n, n), True


def _matrices(rng, rep: str, m: int) -> list:
    shape, complex_field = _carrier(rep)
    return [10.0 ** rng.uniform(-3, 3)
            * (rng.normal(size=shape) + (1j * rng.normal(size=shape) if complex_field else 0))
            for _ in range(m)]


@SETTINGS
@given(st.sampled_from(REPS), st.integers(0, 2**32 - 1), st.integers(0, 5),
       st.integers(0, 3))
def test_cone_stores_unit_columns_and_derives_its_generators(rep, seed, m, zeros):
    rng = np.random.default_rng(seed)
    shape, complex_field = _carrier(rep)
    mats = _matrices(rng, rep, m) + [np.zeros(shape)] * zeros
    mats = [mats[i] for i in rng.permutation(len(mats))]
    c = Cone(generators=tuple(mats), shape=shape, complex_field=complex_field)
    nonzero = [a for a in mats if fro(a) > 0]
    assert c.stack.shape == (realify(mats[0] if mats else np.zeros(shape),
                                     complex_field).size, len(nonzero))
    assert c.n_generators == len(c.generators) == len(nonzero)
    assert np.max(np.abs(np.linalg.norm(c.stack, axis=0) - 1.0), initial=0.0) <= 1e-14
    for k, (g, a) in enumerate(zip(c.generators, nonzero)):
        assert g.tobytes() == unrealify(c.stack[:, k], shape, complex_field).tobytes()
        assert np.max(np.abs(g - a / fro(a))) <= 1e-14
    assert Cone(stack=c.stack, shape=shape, complex_field=complex_field).stack is c.stack


@SETTINGS
@given(st.sampled_from(REPS), st.integers(0, 2**32 - 1), st.integers(0, 4))
def test_orthonormal_span_derives_its_matrices_from_its_stack(rep, seed, m):
    rng = np.random.default_rng(seed)
    shape, complex_field = _carrier(rep)
    gens = _matrices(rng, rep, m)
    if m:
        gens.append(gens[0] - 2.0 * gens[-1])  # a dependent generator
    sub = orthonormal_span(gens, shape=shape, complex_field=complex_field)
    assert sub.dim == sub.stack.shape[1] == len(sub.mats) == min(m, sub.stack.shape[0])
    assert np.allclose(sub.stack.T @ sub.stack, np.eye(sub.dim), atol=1e-12)
    for got, want in zip(sub.mats, unrealify_stack(sub.stack, shape, complex_field)):
        assert got.tobytes() == want.tobytes()
    a = _matrices(rng, rep, 1)[0]
    for empty in (orthonormal_span([], shape=shape, complex_field=complex_field),
                  orthonormal_span([np.zeros(shape)], complex_field=complex_field)):
        assert empty.dim == 0 and empty.mats == ()
        assert empty.project(a).shape == shape and not np.any(empty.project(a))
        assert empty.residual(a) == np.linalg.norm(realify(a, complex_field))


def _reference_wedge_dim(w: Wedge) -> int:
    """Edge dimension plus the rank of the generators' edge-orthogonal parts,
    projected one generator at a time; (unit) generators whose part has norm
    <= 1e-12 are rounding noise inside the edge and dropped, as in `saturate`."""
    perp = [g - w.edge.project(g) for g in w.cone.generators]
    perp = [p / fro(p) for p in perp if fro(p) > 1e-12]
    extra = orthonormal_span(perp, shape=w.cone.shape, complex_field=w.cone.complex_field)
    return w.edge.dim + extra.dim


@SETTINGS
@given(st.sampled_from(REPS), st.integers(0, 2**32 - 1), st.integers(0, 3),
       st.integers(0, 3), st.integers(0, 3))
def test_wedge_dim_matches_the_per_generator_projection(rep, seed, k, in_edge, outside):
    """Cone generators inside the edge, off it, and sums of the two."""
    rng = np.random.default_rng(seed)
    shape, complex_field = _carrier(rep)
    edge = orthonormal_span(_matrices(rng, rep, k), shape=shape, complex_field=complex_field)
    mixed = [sum(c * m for c, m in zip(rng.normal(size=k), edge.mats))
             for _ in range(in_edge)] if k else []
    off = _matrices(rng, rep, outside)
    gens = mixed + off + [a + b for a, b in zip(mixed, off)]
    w = Wedge(edge=edge, cone=Cone(generators=tuple(gens), shape=shape,
                                   complex_field=complex_field))
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


def _reference_support_aligned(fam: ConjugationFamily, direction, rep: str):
    """The r3 and qubit branches of the closed-form orbit support, kept apart."""
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
            cr_b = coherence_rep(fam.base)
            cr_d = coherence_rep(direction)
        except ValueError:
            return None
        cr_bs = (cr_b + cr_b.T) / 2
        if fro(cr_bs - cr_b) > 1e-10 * max(1.0, fro(cr_b)):
            return None
        d_sym = (cr_d + cr_d.T) / 2
        w_b, _ = eig_sym(cr_bs)
        w_d, v_d = eig_sym(d_sym)
        g_cr = v_d @ np.diag(w_b) @ v_d.T
        g = superop_from_coherence(g_cr)
        return g, float(np.dot(w_b, w_d))
    return None


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(("r3", "qubit")), st.integers(0, 2**32 - 1), st.sampled_from((2, 3)),
       st.sampled_from(("symmetric", "general", "non-unital")),
       st.sampled_from(("coherent", "non-unital")))
def test_aligned_support_matches_the_two_branch_routine(rep, seed, n_seeds, base_kind,
                                                        direction_kind):
    """Symmetric and general bases, and (qubit) bases or directions that
    `coherence_rep` rejects, on orbit families with 2- and 3-dim edges."""
    rng = np.random.default_rng(seed)

    def block(kind):
        a = rng.normal(size=(3, 3))
        a = (a + a.T) / 2 if kind == "symmetric" else a
        if rep == "r3":
            return a
        if kind == "non-unital":
            return rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        return superop_from_coherence(a)

    if rep == "r3":
        seeds = [_skew(rng) for _ in range(n_seeds)]
    else:
        seeds = [1j * ad_hat(sigma(axis) / 2.0) for axis in "xyz"[:n_seeds]]
    seeds = tuple(s / fro(s) for s in seeds)
    fam = ConjugationFamily(seeds, block(base_kind))
    assert orthonormal_span(list(seeds)).dim == n_seeds
    direction = block(direction_kind)
    got = None if fam.exact is None else fam.exact.support(direction)
    want = _reference_support_aligned(fam, direction, rep)
    assert (got is None) == (want is None)
    if want is not None:
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


REPORT_DTYPES = ("float64", "float32", "complex128", "int64", "bool")

numpy_arrays = st.sampled_from(REPORT_DTYPES).flatmap(
    lambda dt: hnp.arrays(dt, hnp.array_shapes(min_dims=0, max_dims=3,
                                                min_side=0, max_side=3)))
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


@pytest.mark.parametrize("bad", [{1, 2}, {"nested": [frozenset()]}])
def test_writer_rejects_unsupported_objects(bad):
    with pytest.raises(TypeError):
        _dumps(bad)
    with pytest.raises(TypeError):
        _reference_dumps(bad)
