"""BCH products, tangent cones, and the Lie-semialgebra obstruction."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import logm

from liewedge import semialgebra

from liewedge.channels import (H_X, H_Y, H_Z, P_X, P_Y, P_Z, ChannelSpec, build_system,
                               example2, example3)
from liewedge.liealg import orthocomplement, subspace_equal, subspace_leq
from liewedge.matcore import (Subspace, comm, eig_sym, expm, fro, inner,
                              orthonormal_span)
from liewedge.semialgebra import (_FACE_GUARD, bch, bch_witness, expected_tangent,
                                  orbit_wedge, semialgebra_case,
                                  semialgebra_probe, tangent_space)
from liewedge.wedge import (Cone, ConjugationFamily, Wedge, dual_cone_margin,
                            initial_wedge, saturate)

RNG = np.random.default_rng(2718)

GAMMA2 = np.diag([1.0, 0.0, 1.0])
GAMMA3 = np.diag([1.0, 1.0, 2.0])


def _true_log_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.real(logm(expm(a) @ expm(b)))


def test_bch_low_orders():
    a, b = RNG.normal(size=(2, 3, 3))
    assert np.allclose(bch(a, b, order=1), a + b)
    assert np.allclose(bch(a, b, order=2), a + b + comm(a, b) / 2.0)
    with pytest.raises(ValueError):
        bch(a, b, order=5)
    with pytest.raises(ValueError):
        bch(a, np.eye(4))


def test_bch_order4_truncation_error_scales_as_t5():
    a, b = 0.5 * RNG.normal(size=(2, 3, 3))
    ts = np.array([0.2, 0.1, 0.05, 0.025])
    errs = [fro(bch(t * a, t * b, order=4) - _true_log_product(t * a, t * b))
            for t in ts]
    slopes = np.diff(np.log(errs)) / np.diff(np.log(ts))
    assert abs(np.mean(slopes) - 5.0) < 0.35


def test_bch_canonical_product_example2_pair():
    a = GAMMA2 + H_Z
    b = GAMMA2 + H_X
    expected = (2.0 * GAMMA2 + H_X + H_Z + 0.5 * (H_Y + P_X + P_Z))
    assert fro(bch(a, b, order=2) - expected) < 1e-14


def test_bch_canonical_product_example3_pair():
    a = GAMMA3 + H_Z
    b = np.asarray(H_Y)
    expected = GAMMA3 + H_Y + H_Z - 0.5 * (H_X + P_Y)
    assert fro(bch(a, b, order=2) - expected) < 1e-14


def test_witness_on_example2_wedge():
    w = saturate(initial_wedge(example2()), orbit_samples=360)
    a = GAMMA2 + H_Z
    b = GAMMA2 + H_X
    wit = bch_witness(w, a, b, t_grid=(1e-3,))
    assert wit is not None
    off = wit.offending_component
    ref = (P_X + P_Z) / fro(P_X + P_Z)
    cos = inner(off, ref) / fro(off)
    assert cos >= 1.0 - 1e-4


def test_witness_on_example3_wedge():
    w = saturate(initial_wedge(example3()), orbit_samples=360)
    a = GAMMA3 + H_Z
    wit = bch_witness(w, a, np.asarray(H_Y), t_grid=(1e-3,))
    assert wit is not None
    off = wit.offending_component
    ref = (H_X + P_Y) / fro(H_X + P_Y)
    cos = inner(off, ref) / fro(off)
    # the curved cone absorbs part of the tail, flipping the leftover sign
    assert abs(cos) >= 0.85
    assert cos < 0.0


def test_probe_finds_witness_on_example2():
    w = saturate(initial_wedge(example2()), orbit_samples=360)
    wit = semialgebra_probe(w, pair_samples=60, t_grid=(1e-2,), seed=0)
    assert wit is not None
    assert wit.residual > 0.0


def test_probe_clears_isotropic_orbit_wedge():
    w = orbit_wedge((1.0, 1.0, 1.0), hull_samples=96, seed=0)
    assert semialgebra_probe(w, pair_samples=150, t_grid=(1e-2,), seed=1) is None


def test_tangent_space_requires_membership():
    w = orbit_wedge((3.0, 2.0, 1.0), hull_samples=96, seed=0)
    with pytest.raises(ValueError):
        tangent_space(w, np.asarray(H_X) * 50.0 - np.diag([9.0, 0.0, 0.0]))


CASE_TABLE = {
    # case -> (tangent dim, is_semialgebra)
    "i": (4, True),
    "ii": (6, False),
    "iii": (6, False),
    "iv": (7, False),
}


def test_semialgebra_cases_reference_dims_and_verdicts():
    for cid, (dim, is_sa) in CASE_TABLE.items():
        r = semialgebra_case(cid)
        assert r["tangent_dim"] == dim
        assert r["expected_dim"] == dim
        assert r["tangent_matches_closed_form"]
        assert r["is_semialgebra"] == is_sa
        assert r["verdict"] == ("semialgebra" if is_sa else "not-semialgebra")


def test_semialgebra_case_ii_witness_is_exact():
    r = semialgebra_case("ii")
    expected = -np.asarray(H_Z) + np.diag([-2.0, 2.0, 0.0])
    assert np.allclose(r["witness"], expected, atol=1e-12)
    assert r["witness_residual"] > 0.5


def test_semialgebra_case_iii_witness_bracket():
    r = semialgebra_case("iii")
    expected = np.asarray(H_Y) + 2.0 * np.diag([1.0, 0.0, -1.0])
    assert np.allclose(r["witness"], expected, atol=1e-12)


def test_tangent_contains_edge_and_generator_line():
    """The tangent cone at an interior-of-face point always carries the
    edge and the ray through the point itself."""
    for cid in CASE_TABLE:
        r = semialgebra_case(cid)
        w = orbit_wedge(r["rates"])
        t = tangent_space(w, np.asarray(r["A"]))
        need = orthonormal_span([H_X, H_Y, H_Z, np.asarray(r["A"])],
                                shape=(3, 3), complex_field=False)
        assert subspace_leq(need, t)


def test_expected_tangent_matches_case_dims():
    for cid, (dim, _) in CASE_TABLE.items():
        rates = semialgebra_case(cid)["rates"]
        assert expected_tangent(cid, rates).dim == dim


def test_general_rate_patterns_give_six_dim_tangents():
    for rates in ((2.0, 1.0, 1.0), (2.0, 2.0, 1.0)):
        w = orbit_wedge(rates, hull_samples=192, seed=0)
        a = np.diag(sorted(rates, reverse=True)) + np.asarray(H_Z)
        assert tangent_space(w, a).dim == 6


def _eig_groups(vals: np.ndarray, tol: float = 1e-8) -> list:
    """Multiplicity pattern of a descending eigenvalue triple."""
    sizes = [1]
    for k in range(1, len(vals)):
        if vals[k - 1] - vals[k] <= tol:
            sizes[-1] += 1
        else:
            sizes.append(1)
    return sizes


def _face_block_sample(g: np.ndarray, groups: list,
                       rng: np.random.Generator):
    """Dual-face element (aligned basis) for the rotation-orbit cone.

    The dual cone is c*l1 + b*l2 + a*l3 >= 0 on descending eigenvalues
    l of the symmetric part, for rates g = (a >= b >= c >= 0); the face at
    the base requires equality attained in the aligned basis, which pins
    the eigenvalue pairing per multiplicity pattern of g.
    """
    a, b, c = (float(v) for v in g)
    if groups == [3]:
        s = rng.standard_normal((3, 3))
        s = (s + s.T) / 2.0
        return s - (np.trace(s) / 3.0) * np.eye(3)
    if groups == [1, 2]:
        # largest rate isolated: smallest functional eigenvalue sits on its
        # axis, the 2x2 block is free above it
        bmat = rng.standard_normal((2, 2))
        bmat = (bmat + bmat.T) / 2.0
        lam_min = float(np.linalg.eigvalsh(bmat)[0])
        mu = max(0.0, (-(b / a) * np.trace(bmat) - lam_min) / (1.0 + 2.0 * b / a))
        bmat = bmat + (mu + rng.exponential(0.3)) * np.eye(2)
        out = np.zeros((3, 3))
        out[0, 0] = -b * np.trace(bmat) / a
        out[1:, 1:] = bmat
        return out
    if groups == [2, 1]:
        bmat = rng.standard_normal((2, 2))
        bmat = (bmat + bmat.T) / 2.0
        if c <= 1e-12:
            bmat = bmat - (np.trace(bmat) / 2.0) * np.eye(2)
            s3 = float(np.linalg.eigvalsh(bmat)[1]) + rng.exponential(0.5)
        else:
            lam_max = float(np.linalg.eigvalsh(bmat)[1])
            s3 = -a * np.trace(bmat) / c
            mu = max(0.0, (lam_max - s3) / (1.0 + 2.0 * a / c))
            bmat = bmat - (mu + rng.exponential(0.3)) * np.eye(2)
            s3 = -a * np.trace(bmat) / c
        out = np.zeros((3, 3))
        out[:2, :2] = bmat
        out[2, 2] = s3
        return out
    # distinct rates: diagonal functionals with ascending entries on the
    # null plane of the rates vector (alternating projections)
    gv = np.array([a, b, c])
    gv = gv / np.linalg.norm(gv)
    d = rng.standard_normal(3)
    for _ in range(200):
        d = np.sort(d)
        d = d - np.dot(d, gv) * gv
        if np.all(np.diff(d) >= -1e-12) and abs(np.dot(d, gv)) < 1e-12:
            break
    if np.linalg.norm(d) < 1e-8 or np.any(np.diff(d) < -1e-12):
        return None
    return np.diag(d)


def _rotation(rng) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q * np.sign(np.diag(r))
    return q if np.linalg.det(q) > 0 else -q


@settings(max_examples=40, deadline=None)
@given(st.tuples(*[st.integers(0, 4)] * 3).filter(any), st.integers(0, 2**32 - 1),
       st.floats(0.05, 20.0), st.floats(0.0, 5.0))
def test_closed_form_tangent_matches_the_spectral_dual_face(rates, seed, scale, offset):
    """The spectral dual-face sampler that rotation-orbit wedges used before
    the closed form, as its reference: at A = scale R diag(rates) R^T plus an
    edge offset, every sampled functional lies in the dual cone and vanishes
    on A, and the orthocomplement of the sampled face is the closed form."""
    rng = np.random.default_rng(seed)
    w = orbit_wedge(rates, hull_samples=48, seed=0)
    gamma = np.sort(np.asarray(rates, dtype=float))[::-1]
    q = _rotation(rng)
    skew = rng.normal(size=(3, 3))
    a_mat = scale * q @ np.diag(gamma) @ q.T + offset * (skew - skew.T)
    x = a_mat - w.edge.project(a_mat)
    assert w.cone.analytic.exact.tangent(x) is not None

    g = gamma / np.linalg.norm(gamma)
    groups = _eig_groups(g)
    _, v_a = eig_sym((a_mat + a_mat.T) / 2.0)
    phis = []
    for _ in range(96):
        d = _face_block_sample(g, groups, rng)
        if d is None:
            continue
        phi = v_a @ d @ v_a.T
        phi = phi / fro(phi)
        assert dual_cone_margin(g, phi) >= -1e-9
        assert abs(inner(phi, a_mat)) <= _FACE_GUARD * max(1.0, fro(a_mat))
        phis.append(phi)
    sampled = orthocomplement(orthonormal_span(phis, shape=(3, 3), complex_field=False))
    closed = tangent_space(w, a_mat)
    assert subspace_equal(sampled, closed) and subspace_equal(closed, sampled)


def test_indefinite_base_takes_the_sampled_face(monkeypatch):
    """An indefinite base has a closed-form support but no closed-form
    tangent space: `tangent_space` projects onto the dual face by NNLS."""
    base = np.diag([1.0, 0.0, -1.0])
    seeds = tuple(np.asarray(h) / fro(h) for h in (H_X, H_Y, H_Z))
    fam = ConjugationFamily(seeds, base)
    gens = [base] + [g for _, g in fam.sweep(48, np.random.default_rng(0))]
    w = Wedge(edge=orthonormal_span(list(seeds)),
              cone=Cone(generators=tuple(gens), shape=(3, 3), complex_field=False,
                        analytic=fam))
    assert fam.exact is not None and fam.exact.tangent(base) is None
    calls = []
    project = semialgebra._dual_face_project

    def counted(*args):
        calls.append(1)
        return project(*args)

    monkeypatch.setattr(semialgebra, "_dual_face_project", counted)
    tangent_space(w, base + np.asarray(H_Z), face_samples=8)
    assert len(calls) == 8


@pytest.mark.parametrize("case_id", ["ii", "iii", "iv"])
def test_invariance_residual_ignores_the_tangent_basis(monkeypatch, case_id):
    """The same tangent space under a rotated orthonormal basis gives the
    same invariance residual."""
    want = semialgebra_case(case_id)["invariance_residual"]
    closed = semialgebra.tangent_space
    rng = np.random.default_rng(5)

    def rotated(*args, **kwargs):
        t = closed(*args, **kwargs)
        q = np.linalg.qr(rng.normal(size=(t.dim, t.dim)))[0]
        return Subspace(t.stack @ q, t.shape, t.complex_field, t.tol)

    monkeypatch.setattr(semialgebra, "tangent_space", rotated)
    got = semialgebra_case(case_id)["invariance_residual"]
    assert abs(got - want) <= 1e-12


def test_orbit_wedge_validates_rates():
    with pytest.raises(ValueError):
        orbit_wedge((1.0, -2.0, 0.5))


# ---------------------------------------------------------------------------
# the batched probe against the per-pair loop
# ---------------------------------------------------------------------------

def _reference_samples(w, count: int, rng) -> list:
    """The sample loop the batched `_wedge_samples` replaced: one matrix at
    a time, in the same draws."""
    gens = w.cone.generators
    dtype = complex if w.cone.complex_field else float
    out = []
    for k in range(count):
        x = np.zeros(w.cone.shape, dtype=dtype)
        if gens:
            if k % 3 == 0:
                x = x + gens[rng.integers(len(gens))]
            else:
                idx = rng.integers(len(gens), size=int(rng.integers(1, 4)))
                for i, lam in zip(idx, rng.uniform(0.2, 1.0, size=len(idx))):
                    x = x + lam * gens[i]
        if w.edge.dim and (k % 3 == 2 or not gens):
            coefs = rng.normal(size=w.edge.dim)
            x = x + sum(cf * np.asarray(m) for cf, m in zip(coefs, w.edge.mats))
        n = fro(x)
        if n > 1e-12:
            out.append(x / n)
    return out


def _reference_probe(w, pair_samples, t_grid, tol, seed):
    """The per-pair loop the batched probe replaced: every pair goes to
    `bch_witness` in turn.  Returns (first witness or None, calls made)."""
    rng = np.random.default_rng(seed)
    elems = _reference_samples(w, 2 * pair_samples, rng)
    for k in range(len(elems) // 2):
        wit = bch_witness(w, elems[2 * k], elems[2 * k + 1], t_grid, tol=tol, rng=rng)
        if wit is not None:
            return wit, k + 1
    return None, len(elems) // 2


@pytest.fixture(scope="module")
def probe_wedges():
    def sat(system):
        return saturate(initial_wedge(system), orbit_samples=360)

    return {
        "isotropic": orbit_wedge((1.0, 1.0, 1.0), hull_samples=96, seed=0),
        "rates100": orbit_wedge((1.0, 0.0, 0.0), hull_samples=96, seed=0),
        "rates321": orbit_wedge((3.0, 2.0, 1.0), hull_samples=96, seed=0),
        "example2": sat(example2()),
        "example3": sat(example3()),
        "phase_flip": sat(build_system(ChannelSpec(name="phase_flip", control_axes=("x",),
                                                   drift_axis="z"))),
    }


def _same_witness(got, want) -> bool:
    if got is None or want is None:
        return got is None and want is None
    fields = ("A", "B", "product", "offending_component", "t", "residual")
    return all(np.asarray(getattr(got, f)).tobytes() == np.asarray(getattr(want, f)).tobytes()
               for f in fields)


@pytest.mark.parametrize("t_grid", [(1e-2,), (1e-2, 1e-3)])
@pytest.mark.parametrize("seed", [0, 3, 11])
@pytest.mark.parametrize("name", ["isotropic", "rates100", "rates321", "example2",
                                  "example3", "phase_flip"])
def test_batched_probe_matches_the_per_pair_loop(probe_wedges, name, seed, t_grid):
    """Same samples, bitwise, and the same first witness, every field
    bitwise, or None on both sides."""
    w = probe_wedges[name]
    got = semialgebra._wedge_samples(w, 240, np.random.default_rng(seed))
    want = _reference_samples(w, 240, np.random.default_rng(seed))
    assert got.shape == (len(want), *w.cone.shape)
    assert all(g.tobytes() == x.tobytes() for g, x in zip(got, want))
    wit = semialgebra_probe(w, pair_samples=120, t_grid=t_grid, seed=seed)
    ref, _ = _reference_probe(w, 120, t_grid, 1e-8, seed)
    assert (wit is None) == (name == "isotropic")
    assert _same_witness(wit, ref)


def test_probe_fits_pair_by_pair_not_t_by_t(probe_wedges):
    """On the (3,2,1) wedge the first pair's tail misfit grows like t**3
    and the second pair's like t**2, so at tol 1e-3 the first pair is a
    witness only at t = 0.3 and the second already at t = 1e-2: pair-major
    order returns the first pair, t-major order would return the second."""
    w = probe_wedges["rates321"]
    t_grid = (1e-2, 0.3)
    elems = _reference_samples(w, 4, np.random.default_rng(0))
    assert bch_witness(w, elems[0], elems[1], (1e-2,), tol=1e-3) is None
    assert bch_witness(w, elems[2], elems[3], (1e-2,), tol=1e-3) is not None
    wit = semialgebra_probe(w, pair_samples=20, t_grid=t_grid, tol=1e-3, seed=0)
    ref, calls = _reference_probe(w, 20, t_grid, 1e-3, 0)
    assert (calls, ref.t) == (1, 0.3)
    assert _same_witness(wit, ref)


def _counted_bch_witness(monkeypatch) -> list:
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return bch_witness(*args, **kwargs)

    monkeypatch.setattr(semialgebra, "bch_witness", counted)
    return calls


def test_isotropic_probe_fits_no_pair(monkeypatch, probe_wedges):
    """Every tail on the isotropic wedge lies in the edge so(3), so the
    screen leaves no pair for a fit (the per-pair loop fits all 1000)."""
    calls = _counted_bch_witness(monkeypatch)
    assert semialgebra_probe(probe_wedges["isotropic"], pair_samples=1000, seed=4) is None
    assert calls == []


@pytest.mark.parametrize("seed", [0, 9])
def test_probe_fits_every_pair_the_loop_fits(monkeypatch, probe_wedges, seed):
    w = probe_wedges["rates321"]
    want, want_calls = _reference_probe(w, 200, (1e-2,), 1e-8, seed)
    calls = _counted_bch_witness(monkeypatch)
    assert _same_witness(semialgebra_probe(w, pair_samples=200, seed=seed), want)
    assert len(calls) == want_calls


@pytest.mark.parametrize("kwargs, message", [
    ({"pair_samples": 0}, "pairs must be at least 1, got 0"),
    ({"pair_samples": -5}, "pairs must be at least 1, got -5"),
    ({"t_grid": ()}, r"t_grid must hold at least one t, got \(\)"),
    ({"t_grid": (0.0,)}, "t must be positive and finite, got 0.0"),
    ({"t_grid": (1e-2, -1e-3)}, "t must be positive and finite, got -0.001"),
    ({"t_grid": (float("nan"),)}, "t must be positive and finite, got nan"),
    ({"t_grid": (float("inf"),)}, "t must be positive and finite, got inf"),
    ({"tol": float("inf")}, "tol must be positive and finite, got inf"),
    ({"tol": 0.0}, "tol must be positive and finite, got 0.0"),
    ({"tol": float("nan")}, "tol must be positive and finite, got nan"),
])
def test_vacuous_probe_settings_are_rejected(probe_wedges, kwargs, message):
    """Each of these made the probe report "no counterexample" on a wedge
    that is not a semialgebra, or leaked an error from scipy."""
    w = probe_wedges["rates321"]
    with pytest.raises(ValueError, match=message):
        semialgebra_probe(w, **kwargs)
    if "pair_samples" not in kwargs:
        with pytest.raises(ValueError, match=message):
            bch_witness(w, GAMMA2 + H_Z, GAMMA2 + H_X, **kwargs)


@pytest.mark.parametrize("order", [1, 2, 3, 4])
@pytest.mark.parametrize("shape, complex_field", [((5, 3, 3), False), ((2, 3, 4, 4), True)])
def test_stacked_bch_matches_each_pair(order, shape, complex_field):
    rng = np.random.default_rng(order)
    a, b = rng.normal(size=(2, *shape))
    if complex_field:
        a, b = a + 1j * rng.normal(size=shape), b + 1j * rng.normal(size=shape)
    got = bch(a, b, order=order)
    assert got.shape == shape
    for idx in np.ndindex(*shape[:-2]):
        want = bch(a[idx], b[idx], order=order)
        assert fro(got[idx] - want) <= 1e-15 * fro(want)


@pytest.mark.parametrize("a_shape, b_shape", [((3, 3), (4, 4)), ((2, 3, 3), (3, 3, 3)),
                                              ((2, 3, 3), (3, 3)), ((2, 3, 4), (2, 3, 4)),
                                              ((3,), (3,))])
def test_bch_rejects_mismatched_or_non_square_shapes(a_shape, b_shape):
    with pytest.raises(ValueError, match="bch needs two square matrices"):
        bch(np.ones(a_shape), np.ones(b_shape))
