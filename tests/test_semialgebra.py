"""BCH products, tangent cones, and the Lie-semialgebra obstruction."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import logm

from liewedge import semialgebra
from liewedge import wedge as wedge_module

from liewedge.channels import (H_X, H_Y, H_Z, P_X, P_Y, P_Z, ChannelSpec, build_system,
                               example1, example2, example3)
from liewedge.liealg import orthocomplement, subspace_equal, subspace_leq
from liewedge.matcore import (Subspace, comm, eig_sym, expm, fro, inner,
                              orthonormal_span)
from liewedge.semialgebra import (bch, bch_witness, expected_tangent,
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


def test_probe_clears_isotropic_orbit_wedge(monkeypatch):
    """Certified, and no sampled pair is a witness either."""
    w = orbit_wedge((1.0, 1.0, 1.0), hull_samples=96, seed=0)
    assert semialgebra_probe(w, pair_samples=150, t_grid=(1e-2,), seed=1) is None
    assert semialgebra_probe(_sampled(monkeypatch, w), pair_samples=150, t_grid=(1e-2,),
                             seed=1) is None


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
                                shape=(3, 3))
        assert subspace_leq(need, t)


def test_expected_tangent_refuses_an_unknown_case():
    """"v" returned case iv's 7-dimensional space."""
    message = r"case_id must be one of \('i', 'ii', 'iii', 'iv'\), got 'v'"
    for call in (expected_tangent, semialgebra_case):
        with pytest.raises(ValueError, match=message):
            call("v", (3.0, 2.0, 1.0))


@pytest.mark.parametrize("case_id, rates, message", [
    ("iv", (1.0, 1.0, 1.0), r"case iv needs rates a > b > c >= 0, got \(1\.0, 1\.0, 1\.0\)"),
    ("ii", (1.0, 1.0, 1.0), r"case ii needs rates \(gamma, 0, 0\), got \(1\.0, 1\.0, 1\.0\)"),
    ("i", (3.0, 2.0, 1.0), r"case i needs rates \(lam, lam, lam\), got \(3\.0, 2\.0, 1\.0\)"),
])
def test_expected_tangent_refuses_rates_off_the_case(case_id, rates, message):
    """Rates that do not fit the case's pattern once gave a space anyway:
    7, 6 and 4 dimensions for these three."""
    with pytest.raises(ValueError, match=message):
        expected_tangent(case_id, rates)


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
    assert len(w.cone.analytic.exact.tangent(x, w.cone.tol)) == 4  # x and its [s_i, x]

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
        assert abs(inner(phi, a_mat)) <= 1e-8 * max(1.0, fro(a_mat))
        phis.append(phi)
    sampled = orthocomplement(orthonormal_span(phis, shape=(3, 3)))
    closed = tangent_space(w, a_mat)
    assert subspace_equal(sampled, closed) and subspace_equal(closed, sampled)


def test_indefinite_base_of_zero_trace_is_undecided():
    """An indefinite base whose rates sum to 0 has a closed-form support but
    no Schur-Horn bounds, so no closed form decides the cone and
    `tangent_space` leaves the tangent space undecided."""
    base = np.diag([1.0, 0.0, -1.0])
    seeds = tuple(np.asarray(h) / fro(h) for h in (H_X, H_Y, H_Z))
    fam = ConjugationFamily(seeds, base)
    w = Wedge(edge=orthonormal_span(list(seeds)),
              cone=Cone(shape=(3, 3), analytic=fam,
                        thetas=fam.params(48, np.random.default_rng(0))))
    assert fam.exact is not None and w.cone.exact is None
    assert tangent_space(w, base + np.asarray(H_Z)) is None


def test_generator_off_the_orbit_is_refused():
    """A generator outside the family's orbit cone (diag(1, 0, 0) next to the
    orbit of diag(3, 2, 1)) cannot join the family's cone, so the cone keeps
    its closed form, and `tangent_space` decides at an orbit point."""
    seeds = tuple(np.asarray(h) / fro(h) for h in (H_X, H_Y, H_Z))
    base = np.diag([3.0, 2.0, 1.0])
    fam = ConjugationFamily(seeds, base)
    with pytest.raises(ValueError, match="generators, or a family"):
        Cone(generators=(base, np.diag([1.0, 0.0, 0.0])), shape=(3, 3), analytic=fam)
    cone = Cone(shape=(3, 3), analytic=fam)
    w = Wedge(edge=orthonormal_span(list(seeds)), cone=cone)
    assert cone.exact is fam.exact and len(fam.exact.tangent(base, cone.tol)) == 4
    assert tangent_space(w, base + np.asarray(H_Z)).dim == 7


@pytest.mark.parametrize("name", ["example2", "example3", "phase_flip"])
def test_grid1_orbit_points_have_a_three_dimensional_tangent(probe_wedges, name):
    """At A = 2 gamma(theta) plus an edge part, T_A is the edge plus
    span{x, [s, x]} both ways: dimension 3 (the sampled dual face gave 2)."""
    w = probe_wedges[name]
    fam = w.cone.analytic
    for theta in np.random.default_rng(7).uniform(0.0, fam.periods[0], 5):
        x = 2.0 * fam.element([theta])
        t = tangent_space(w, x + 0.7 * w.edge.mats[0])
        want = orthonormal_span([*w.edge.mats, x, *comm(np.asarray(fam.seeds), x)])
        assert t.dim == want.dim == 3
        assert subspace_equal(t, want) and subspace_equal(want, t)


def test_example3_two_atom_face_has_a_five_dimensional_tangent(probe_wedges):
    """Two atoms of the degree-2 moment curve span a face of the cone: T_A is
    the edge plus span{gamma(theta_j), [s, gamma(theta_j)]}, dimension 5."""
    w = probe_wedges["example3"]
    fam = w.cone.analytic
    atoms = fam.elements(np.array([[0.4], [2.1]]))
    t = tangent_space(w, atoms[0] + 2.0 * atoms[1])
    want = orthonormal_span([*w.edge.mats, *atoms, *comm(np.asarray(fam.seeds), atoms)])
    assert t.dim == want.dim == 5
    assert subspace_equal(t, want) and subspace_equal(want, t)


@pytest.mark.parametrize("name", ["example2", "example3", "phase_flip", "rates321"])
def test_tangent_is_everything_inside_and_the_edge_at_the_apex(probe_wedges, name):
    """Inside the cone T_A is the edge plus the cone's whole span (the moment
    span, or the symmetric matrices); at an A in the edge it is the edge."""
    w = probe_wedges[name]
    fam = w.cone.analytic
    if name == "rates321":
        inside, cone_dim = np.diag([3.0, 2.5, 2.0]), 6
    else:
        thetas = np.linspace(0.0, fam.periods[0], 7, endpoint=False)[:, None]
        inside, cone_dim = fam.elements(thetas).sum(0), fam.exact.basis.shape[1]
    assert tangent_space(w, inside + w.edge.mats[0]).dim == w.edge.dim + cone_dim
    apex = tangent_space(w, 3.0 * w.edge.mats[0])
    assert subspace_equal(apex, w.edge) and subspace_equal(w.edge, apex)


def test_two_qubit_c_tangent_is_undecided(branch_wedges):
    """two_qubit_C's torus family has no closed form: None, where the
    sampled dual face gave dimension 320 in a wedge that spans 15."""
    w = branch_wedges["two_qubit_C"]
    assert w.cone.exact is None
    assert tangent_space(w, w.cone.generators[0]) is None


def test_isotropic_case_at_lam_zero_has_the_edge_as_tangent():
    """lam 0 leaves the case wedge without a cone: T_A is so(3)."""
    r = semialgebra_case("i", {"lam": 0})
    assert (r["tangent_dim"], r["expected_dim"], r["verdict"]) == (3, 3, "semialgebra")
    assert r["tangent_matches_closed_form"]


def test_tangent_space_draws_nothing_and_fits_nothing(monkeypatch, probe_wedges):
    """Every tangent space on a cone with a closed form comes from it: no
    random draw, no NNLS solve, and the same bytes for every seed
    (two_qubit_C, which has none, is undecided)."""
    points = {name: w.cone.generators[5] for name, w in probe_wedges.items()
              if w.cone.exact is not None}
    assert set(probe_wedges) - set(points) == {"two_qubit_C"}
    want = {name: tangent_space(probe_wedges[name], a).stack.tobytes()
            for name, a in points.items()}

    def forbidden(*args, **kwargs):
        raise AssertionError("tangent_space drew a random number or made a fit")

    monkeypatch.setattr(np.random, "default_rng", forbidden)
    monkeypatch.setattr(wedge_module, "nnls", forbidden)
    for name, a in points.items():
        assert tangent_space(probe_wedges[name], a, seed=9).stack.tobytes() == want[name]


def test_cases_need_no_sampled_hull(monkeypatch):
    """The four case reports, built on the base generator and its family
    alone, equal those built on a 192-sample orbit hull."""
    got = {cid: semialgebra_case(cid) for cid in ("i", "ii", "iii", "iv")}
    plain = semialgebra.orbit_wedge
    monkeypatch.setattr(semialgebra, "orbit_wedge",
                        lambda rates, **_: plain(rates, hull_samples=192, seed=0))
    for cid, report in got.items():
        want = semialgebra_case(cid)
        assert list(report) == list(want)
        assert report["tangent"].stack.tobytes() == want["tangent"].stack.tobytes()
        for key in report:
            if key != "tangent":
                assert np.array_equal(report[key], want[key]), (cid, key)


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
        return Subspace(t.stack @ q, t.shape, t.tol)

    monkeypatch.setattr(semialgebra, "tangent_space", rotated)
    got = semialgebra_case(case_id)["invariance_residual"]
    assert abs(got - want) <= 1e-12


def test_orbit_wedge_validates_rates():
    with pytest.raises(ValueError):
        orbit_wedge((1.0, -2.0, 0.5))


# ---------------------------------------------------------------------------
# the probe against the per-pair loop
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def probe_wedges():
    def sat(system):
        return saturate(initial_wedge(system), orbit_samples=360)

    return {
        "isotropic": orbit_wedge((1.0, 1.0, 1.0), hull_samples=96, seed=0),
        "rates100": orbit_wedge((1.0, 0.0, 0.0), hull_samples=96, seed=0),
        "rates321": orbit_wedge((3.0, 2.0, 1.0), hull_samples=96, seed=0),
        "example1": sat(example1()),
        "example2": sat(example2()),
        "example3": sat(example3()),
        "phase_flip": sat(build_system(ChannelSpec(name="phase_flip", control_axes=("x",),
                                                   drift_axis="z"))),
        "two_qubit_C": sat(build_system(ChannelSpec(name="two_qubit_C"))),
    }


def _sampled(monkeypatch, w):
    """`w` with its certificate forced off for the test, so the probe takes
    the sampled path even where the bracket table certifies the wedge."""
    monkeypatch.setitem(w.__dict__, "abelian_modulo_edge", False)
    return w


def _same_witness(got, want) -> bool:
    if got is None or want is None:
        return got is None and want is None
    fields = ("A", "B", "product", "offending_component", "t", "residual")
    return all(np.asarray(getattr(got, f)).tobytes() == np.asarray(getattr(want, f)).tobytes()
               for f in fields)


@pytest.mark.parametrize("t_grid", [(1e-2,), (1e-2, 1e-3)])
@pytest.mark.parametrize("seed", [0, 3, 11])
@pytest.mark.parametrize("name", ["isotropic", "rates100", "rates321", "example1", "example2",
                                  "example3", "phase_flip", "two_qubit_C"])
def test_probe_matches_the_per_pair_loop(monkeypatch, probe_wedges, reference_samples,
                                         reference_probe, name, seed, t_grid):
    """Same samples, bitwise, and the same first witness, every field
    bitwise, or None on both sides: from the probe as it runs, and from its
    sampled path also where the certificate would answer first."""
    w = probe_wedges[name]
    got = list(semialgebra._wedge_samples(w, 240, np.random.default_rng(seed)))
    want = reference_samples(w, 240, np.random.default_rng(seed))
    assert len(got) == len(want)
    assert all(g.shape == w.cone.shape and g.tobytes() == x.tobytes()
               for g, x in zip(got, want))
    wit = semialgebra_probe(w, pair_samples=120, t_grid=t_grid, seed=seed)
    ref, _ = reference_probe(w, 120, t_grid, 1e-8, seed)
    assert (wit is None) == (name == "isotropic")
    assert _same_witness(wit, ref)
    draws = _counted(monkeypatch, semialgebra, "_wedge_samples")
    sampled = semialgebra_probe(_sampled(monkeypatch, w), pair_samples=120, t_grid=t_grid,
                                seed=seed)
    assert len(draws) == 1 and _same_witness(sampled, ref)


@pytest.fixture(scope="module")
def branch_wedges(probe_wedges):
    return {
        "edge_only": orbit_wedge((0.0, 0.0, 0.0), hull_samples=96, seed=0),
        "cone_only": Wedge(edge=orthonormal_span([], shape=(3, 3)),
                           cone=probe_wedges["rates321"].cone),
        "two_qubit_C": probe_wedges["two_qubit_C"],
    }


@pytest.mark.parametrize("seed", [0, 3, 11])
@pytest.mark.parametrize("name", ["edge_only", "cone_only", "two_qubit_C"])
def test_samples_match_the_loop_on_every_branch_and_carrier(branch_wedges, reference_samples,
                                                            name, seed):
    """The edge-only wedge draws a normal for every sample, the cone-only
    one draws none, and two_qubit_C's samples are real 16x16 transfer
    matrices: all 240 draws, consumed to the end, are bitwise the loop's,
    and leave the generator in the loop's state."""
    w = branch_wedges[name]
    assert (len(w.cone.generators) > 0, w.edge.dim > 0) == {
        "edge_only": (False, True), "cone_only": (True, False)}.get(name, (True, True))
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = list(semialgebra._wedge_samples(w, 240, rng))
    want = reference_samples(w, 240, ref_rng)
    assert len(got) == len(want)
    assert all(g.shape == w.cone.shape and g.tobytes() == x.tobytes()
               for g, x in zip(got, want))
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_probe_fits_pair_by_pair_not_t_by_t(probe_wedges, reference_samples, reference_probe):
    """On the (3,2,1) wedge the first pair's tail misfit grows like t**3
    and the second pair's like t**2, so at tol 1e-3 the first pair is a
    witness only at t = 0.3 and the second already at t = 1e-2: pair-major
    order returns the first pair, t-major order would return the second."""
    w = probe_wedges["rates321"]
    t_grid = (1e-2, 0.3)
    elems = reference_samples(w, 4, np.random.default_rng(0))
    assert bch_witness(w, elems[0], elems[1], (1e-2,), tol=1e-3) is None
    assert bch_witness(w, elems[2], elems[3], (1e-2,), tol=1e-3) is not None
    wit = semialgebra_probe(w, pair_samples=20, t_grid=t_grid, tol=1e-3, seed=0)
    ref, calls = reference_probe(w, 20, t_grid, 1e-3, 0)
    assert (calls, ref.t) == (1, 0.3)
    assert _same_witness(wit, ref)


def _counted(monkeypatch, owner, attr) -> list:
    """Patch owner.attr to record one entry per call; returns the record."""
    calls, original = [], getattr(owner, attr)

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, attr, counted)
    return calls


def test_isotropic_probe_fits_no_pair(monkeypatch, probe_wedges):
    """Every tail on the isotropic wedge lies in the edge so(3), so on the
    sampled path `bch_witness` skips the cone fit of all 1000 pairs: the
    tail's part off the edge is below the witness threshold, which no fit
    can exceed."""
    w = _sampled(monkeypatch, probe_wedges["isotropic"])
    draws = _counted(monkeypatch, semialgebra, "_wedge_samples")
    calls = _counted(monkeypatch, semialgebra, "bch_witness")
    fits = _counted(monkeypatch, semialgebra, "_cone_fit")
    assert semialgebra_probe(w, pair_samples=1000, seed=4) is None
    assert (len(draws), len(calls), fits) == (1, 1000, [])


@pytest.mark.parametrize("seed", [0, 9])
def test_probe_fits_every_pair_the_loop_fits(monkeypatch, probe_wedges, reference_probe, seed):
    w = probe_wedges["rates321"]
    want, want_calls = reference_probe(w, 200, (1e-2,), 1e-8, seed)
    calls = _counted(monkeypatch, semialgebra, "bch_witness")
    assert _same_witness(semialgebra_probe(w, pair_samples=200, seed=seed), want)
    assert len(calls) == want_calls


@pytest.mark.parametrize("kwargs, message", [
    ({"pair_samples": 0}, "pairs must be an integer >= 1, got 0"),
    ({"pair_samples": -5}, "pairs must be an integer >= 1, got -5"),
    ({"pair_samples": 2.0}, r"pairs must be an integer >= 1, got 2\.0"),
    ({"pair_samples": True}, "pairs must be an integer >= 1, got True"),
    ({"t_grid": ()}, r"t_grid must hold at least one t, got \(\)"),
    ({"t_grid": (0.0,)}, "t must be positive and finite, got 0.0"),
    ({"t_grid": (1e-2, -1e-3)}, "t must be positive and finite, got -0.001"),
    ({"t_grid": (float("nan"),)}, "t must be positive and finite, got nan"),
    ({"t_grid": (float("inf"),)}, "t must be positive and finite, got inf"),
    ({"tol": float("inf")}, "tol must be positive and finite, got inf"),
    ({"tol": 0.0}, "tol must be positive and finite, got 0.0"),
    ({"tol": float("nan")}, "tol must be positive and finite, got nan"),
])
@pytest.mark.parametrize("name", ["rates321", "isotropic"])
def test_vacuous_probe_settings_are_rejected(probe_wedges, name, kwargs, message):
    """Each of these made the probe report "no counterexample" on a wedge
    that is not a semialgebra, leaked an error from scipy or numpy, or
    ran a bool as one pair; the certified isotropic wedge checks them
    before its certificate answers."""
    w = probe_wedges[name]
    with pytest.raises(ValueError, match=message):
        semialgebra_probe(w, **kwargs)
    if "pair_samples" not in kwargs:
        with pytest.raises(ValueError, match=message):
            bch_witness(w, GAMMA2 + H_Z, GAMMA2 + H_X, **kwargs)


def test_probe_takes_a_numpy_integer_pair_count(probe_wedges):
    w = probe_wedges["rates321"]
    assert _same_witness(semialgebra_probe(w, pair_samples=np.int64(20)),
                         semialgebra_probe(w, pair_samples=20))


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


@pytest.mark.parametrize("name", ["rates321", "isotropic"])
@pytest.mark.parametrize("seed", [1.5, True, -1, "0"])
def test_seeds_are_checked_before_any_work(probe_wedges, name, seed):
    """The probe leaked numpy's TypeError for 1.5 and ran True as seed 1,
    and `tangent_space` ran seed -1; every seeded entry point now refuses a
    seed that is not a non-negative integer, naming it, also on a wedge
    whose certificate makes the probe draw nothing."""
    w = probe_wedges[name]
    message = f"seed must be an integer >= 0, got {seed!r}".replace(".", r"\.")
    calls = (lambda: semialgebra_probe(w, pair_samples=5, seed=seed),
             lambda: tangent_space(w, w.cone.generators[0], seed=seed),
             lambda: orbit_wedge((3.0, 2.0, 1.0), seed=seed))
    for call in calls:
        with pytest.raises(ValueError, match=message):
            call()


@pytest.mark.parametrize("kwargs, message", [
    ({"rates": (np.inf, 1.0, 1.0)}, r"rates must be three nonnegative finite reals, got \(inf"),
    ({"rates": (1.0, np.nan, 1.0)}, "rates must be three nonnegative finite reals"),
    ({"rates": (1.0, -1.0, 1.0)}, "rates must be three nonnegative finite reals"),
    ({"rates": (1.0, 1.0)}, "rates must be three nonnegative finite reals"),
    ({"hull_samples": -3}, "hull_samples must be an integer >= 0, got -3"),
    ({"hull_samples": 2.5}, r"hull_samples must be an integer >= 0, got 2\.5"),
    ({"hull_samples": True}, "hull_samples must be an integer >= 0, got True"),
    ({"tol": -1.0}, r"tol must be positive and finite, got -1\.0"),
    ({"tol": 0}, r"tol must be positive and finite, got 0\.0"),
    ({"tol": np.nan}, "tol must be positive and finite, got nan"),
    ({"tol": np.inf}, "tol must be positive and finite, got inf"),
])
def test_orbit_wedge_rejects_bad_settings(kwargs, message):
    """A non-finite rate built a cone with a non-finite stack (and numpy
    RuntimeWarnings), -3 hull samples ran as 0 and 2.5 leaked a TypeError,
    and a tol that is not positive and finite was stored and failed only at
    the first query."""
    kwargs = {"rates": (3.0, 2.0, 1.0), **kwargs}
    with pytest.raises(ValueError, match=message):
        orbit_wedge(**kwargs)


@pytest.mark.parametrize("seed", [1.5, True, -1])
def test_semialgebra_case_refuses_a_seed_that_is_not_a_count(seed):
    """A fractional seed was truncated (1.5 ran as seed 1)."""
    message = f"seed must be an integer >= 0, got {seed!r}".replace(".", r"\.")
    with pytest.raises(ValueError, match=message):
        semialgebra_case("iv", {"seed": seed})


def test_orbit_wedge_takes_zero_and_numpy_integer_hull_samples():
    assert orbit_wedge((3.0, 2.0, 1.0), hull_samples=0).cone.n_generators == 1
    got = orbit_wedge((3.0, 2.0, 1.0), hull_samples=np.int64(12), seed=np.int64(4))
    want = orbit_wedge((3.0, 2.0, 1.0), hull_samples=12, seed=4)
    assert got.cone.stack.tobytes() == want.cone.stack.tobytes()


# ---------------------------------------------------------------------------
# the bracket-table certificate
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def certificate_wedges(probe_wedges, branch_wedges):
    def qubit(channel, axes, rates=None):
        spec = ChannelSpec(name=channel, rates=rates, control_axes=axes, drift_axis="z")
        return saturate(initial_wedge(build_system(spec)), orbit_samples=360)

    return {**probe_wedges, **branch_wedges,
            "rates110": orbit_wedge((1.0, 1.0, 0.0), hull_samples=96, seed=0),
            **{f"{name}_x{scale:g}": orbit_wedge(tuple(scale * r for r in rates),
                                                 hull_samples=96, seed=0)
               for name, rates in (("isotropic", (1.0, 1.0, 1.0)),
                                   ("rates321", (3.0, 2.0, 1.0)))
               for scale in SCALES},
            "depolarizing_xy": qubit("depolarizing", ("x", "y")),
            **{f"depolarizing_xy_x{scale:g}": qubit("depolarizing", ("x", "y"),
                                                   rates=(scale,) * 3)
               for scale in SCALES},
            "depolarizing_x": qubit("depolarizing", ("x",))}


SCALES = (1e-10, 1e9)
CERTIFIED = ("isotropic", "edge_only", "depolarizing_xy",
             *(f"isotropic_x{scale:g}" for scale in SCALES),
             *(f"depolarizing_xy_x{scale:g}" for scale in SCALES))


@pytest.mark.parametrize("name", CERTIFIED + (
    "rates100", "rates110", "rates321", "example1", "example2", "example3", "phase_flip",
    "depolarizing_x", "two_qubit_C", *(f"rates321_x{scale:g}" for scale in SCALES)))
def test_certificate_holds_where_the_span_is_abelian_modulo_the_edge(certificate_wedges,
                                                                     name):
    """Isotropic relaxation under so(3), at any scale of its rate, an edge
    without a cone, and the depolarizing qubit under controls x and y, also
    at rates 1e-10 and 1e9, have every bracket of their span in the edge;
    the anisotropic orbits, also scaled far from unit rates, the examples,
    phase flip, depolarizing under x alone and two_qubit_C do not."""
    assert certificate_wedges[name].abelian_modulo_edge == (name in CERTIFIED)


@pytest.mark.parametrize("scale", SCALES)
def test_scaled_anisotropic_orbit_is_disproved(certificate_wedges, scale):
    """The (3,2,1) wedge scaled by 1e-10 or 1e9 is the same wedge up to
    scale: the certificate leaves it to the sampled probe, which finds a
    witness as it does at unit rates."""
    w = certificate_wedges[f"rates321_x{scale:g}"]
    assert semialgebra_probe(w, pair_samples=200, seed=0) is not None


@pytest.mark.parametrize("scale", SCALES)
def test_scaled_depolarizing_qubit_has_no_witness(monkeypatch, certificate_wedges, scale):
    """The depolarizing qubit under controls x and y with its rates scaled
    by 1e-10 or 1e9 is a Lie semialgebra at every scale: certified, and the
    sampled path, forced on, finds no witness either.  At 1e-10 the sampled
    probe once reported a false witness (residual 3.4e-8, seed 0)."""
    w = certificate_wedges[f"depolarizing_xy_x{scale:g}"]
    assert semialgebra_probe(w, pair_samples=200, seed=0) is None
    assert semialgebra_probe(_sampled(monkeypatch, w), pair_samples=200, seed=0) is None


@pytest.mark.parametrize("name", CERTIFIED)
def test_certified_probe_draws_nothing(monkeypatch, certificate_wedges, name):
    """No generator, no sample and no fit (the per-pair loop fits all 1000
    isotropic pairs)."""
    counts = [_counted(monkeypatch, owner, attr) for owner, attr in (
        (np.random, "default_rng"), (semialgebra, "_wedge_samples"),
        (semialgebra, "bch_witness"))]
    assert semialgebra_probe(certificate_wedges[name], pair_samples=1000, seed=4) is None
    assert counts == [[], [], []]


@pytest.mark.parametrize("tol", [1e-14, 9.99e-13])
@pytest.mark.parametrize("name", ["rates321", "isotropic"])
def test_probe_refuses_a_tol_under_the_tail_rounding(probe_wedges, name, tol):
    """Below 1e-12 the witness threshold tol t^2 falls under the rounding of
    the order-4 tail: at tol 1e-14 the sampled probe's first isotropic pair
    had a tail misfit of 1.42e-14, rounding noise on a tail that lies in the
    edge, and read as a witness.  The probe and the single-pair test refuse
    such a tol before any work, on a certified wedge too; 1e-12 is taken."""
    w = probe_wedges[name]
    message = f"tol must be at least 1e-12, .* got {tol}"
    with pytest.raises(ValueError, match=message):
        semialgebra_probe(w, pair_samples=10, tol=tol, seed=4)
    with pytest.raises(ValueError, match=message):
        bch_witness(w, GAMMA2 + H_Z, GAMMA2 + H_X, tol=tol)
    bch_witness(w, GAMMA2 + H_Z, GAMMA2 + H_X, tol=1e-12)
    assert (semialgebra_probe(w, pair_samples=10, tol=1e-12, seed=4) is None) == \
        (name == "isotropic")
