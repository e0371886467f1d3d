"""Property tests of the cached generators, the one-product coherence map,
the incremental contraction audit, the stacked realification, the batched
conjugation kernel, the right-nested Lie closure, the one-array cones and
subspaces, the merged aligned orbit support and the one-pass report writer
against loop, expm, full-pairwise, per-generator, two-branch or two-pass
references kept here."""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from liewedge.channels import ChannelSpec, build_system, sigma, sigma2
from liewedge.cli import _dumps
from liewedge.liealg import lie_closure
from liewedge.lindblad import (ControlSystem, Superop, ad_hat, coherence_rep,
                               control_directions, drift_direction, gks_dissipator,
                               lindbladian, pauli_basis, superop_from_coherence, unvec, vec)
from liewedge.matcore import (eig_sym, expm, fro, inner, orthonormal_span, realify,
                              realify_stack, unrealify, unrealify_stack)
from liewedge.reachable import Schedule, contraction_audit
from liewedge.wedge import Cone, ConjugationFamily, Wedge, initial_wedge, saturate

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
    for grid2; a real (r3) or complex base; non-normal seeds unless `skew`."""
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
        seeds = [1j * ad_hat(h).matrix for h in hs]
        if not skew:
            seeds[0] = seeds[0] + rng.normal(size=seeds[0].shape)
        base = rng.normal(size=(n * n, n * n)) + 1j * rng.normal(size=(n * n, n * n))
    seeds = tuple(s / fro(s) for s in seeds)
    # non-normal seeds have no period; unit ones keep grid exponentials finite
    periods = None if skew else (1.0,) * n_params
    return ConjugationFamily(kind=kind, seeds=seeds, base=base,
                             edge=orthonormal_span(list(seeds)), rep=rep, periods=periods)


def _reference(fam: ConjugationFamily, g: np.ndarray, params) -> np.ndarray:
    a = sum(p * s for p, s in zip(params, fam.seeds))
    return expm(a) @ g @ expm(-a)


def _close(got: np.ndarray, want: np.ndarray, g: np.ndarray) -> bool:
    """Within 1e-12 max(1, ||g||); unitary conjugation keeps ||want|| = ||g||,
    the expm fallback on non-normal seeds may grow it."""
    return np.max(np.abs(got - want)) <= 1e-12 * max(1.0, fro(g), fro(want))


@SETTINGS
@given(st.sampled_from(REPS), st.sampled_from(KINDS), st.integers(0, 2**32 - 1),
       st.booleans(), st.integers(1, 40))
def test_conjugation_kernel_matches_expm(rep, kind, seed, skew, count):
    """Skew/anti-Hermitian seeds take the stacked-eigh kernel, the others
    the expm fallback; both agree with expm(a) g expm(-a)."""
    fam = _family(rep, kind, seed, skew)
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
    projected one generator at a time."""
    perp = [g - w.edge.project(g) for g in w.cone.generators]
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
                                   complex_field=complex_field), rep=rep)
    assert w.dim == _reference_wedge_dim(w)
    if off:
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


def _reference_support_aligned(fam: ConjugationFamily, direction):
    """The r3 and qubit branches of the closed-form orbit support, kept apart."""
    if fam.rep == "r3" and fam.edge.dim == 3:
        base_sym = (fam.base + fam.base.T) / 2
        if fro(base_sym - fam.base) > 1e-10 * max(1.0, fro(fam.base)):
            return None
        d_sym = (direction + direction.T) / 2
        w_b, _ = eig_sym(base_sym)
        w_d, v_d = eig_sym(d_sym)
        g = v_d @ np.diag(w_b) @ v_d.T
        return g, float(np.dot(w_b, w_d))
    if fam.rep == "qubit" and fam.edge.dim == 3:
        try:
            cr_b = coherence_rep(fam.base, rep="qubit")
            cr_d = coherence_rep(direction, rep="qubit")
        except ValueError:
            return None
        cr_bs = (cr_b + cr_b.T) / 2
        if fro(cr_bs - cr_b) > 1e-10 * max(1.0, fro(cr_b)):
            return None
        d_sym = (cr_d + cr_d.T) / 2
        w_b, _ = eig_sym(cr_bs)
        w_d, v_d = eig_sym(d_sym)
        g_cr = v_d @ np.diag(w_b) @ v_d.T
        g = superop_from_coherence(g_cr, rep="qubit").matrix
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
        return superop_from_coherence(a, rep="qubit").matrix

    if rep == "r3":
        seeds = [_skew(rng) for _ in range(n_seeds)]
    else:
        seeds = [1j * ad_hat(sigma(axis) / 2.0).matrix for axis in "xyz"[:n_seeds]]
    seeds = tuple(s / fro(s) for s in seeds)
    fam = ConjugationFamily(kind="orbit", seeds=seeds, base=block(base_kind),
                            edge=orthonormal_span(list(seeds)), rep=rep)
    assert fam.edge.dim == n_seeds
    direction = block(direction_kind)
    got, want = fam._support_aligned(direction), _reference_support_aligned(fam, direction)
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
