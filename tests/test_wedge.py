"""Cones, conjugation families, wedge saturation, dual-cone criteria,
Schur-Horn membership on full-rotation orbit cones, Caratheodory-Toeplitz
membership on one-parameter orbit cones, and the exact outer wedge."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from liewedge import cli
from liewedge import wedge as wedge_module
from liewedge.channels import (H_X, H_Y, H_Z, NAMES, P_Y, ChannelSpec, build_system,
                               example1, example2, example3, example3_delta, sigma,
                               two_qubit_operator)
from liewedge.liealg import subspace_leq
from liewedge.lindblad import ControlSystem, ad_hat, gks_margin, pauli_basis, ptm_rep
from liewedge.matcore import Subspace, comm, expm, fro, inner, orthonormal_span
from liewedge.semialgebra import bch, orbit_wedge
from liewedge.wedge import (Cone, ConjugationFamily, MomentCurve, RotationOrbit, Wedge,
                            cone_contains, cone_residual, dual_cone_contains,
                            dual_cone_margin, initial_wedge, lineality,
                            majorized, outer_contains, saturate,
                            wedge_contains)

RNG = np.random.default_rng(73)

GAMMA2 = np.diag([1.0, 0.0, 1.0])
GAMMA3 = np.diag([1.0, 1.0, 2.0])


def _coherence_ptm(s: np.ndarray) -> np.ndarray:
    """The qubit transfer matrix of the unital map whose coherence
    representation is the 3x3 s: the traceless block s.T in a zero border."""
    return np.pad(np.asarray(s, dtype=float).T, ((1, 0), (1, 0)))


def _orthant_cone() -> Cone:
    gens = tuple(np.diag(e) for e in np.eye(3))
    return Cone(generators=gens, shape=(3, 3))


def test_cone_membership_on_orthant():
    c = _orthant_cone()
    assert cone_contains(c, np.diag([0.5, 2.0, 0.0]))
    assert not cone_contains(c, np.diag([1.0, -1.0, 0.0]))
    assert cone_residual(c, np.diag([-1.0, 0.0, 0.0])) > 0.9


def test_cone_normalizes_generators():
    c = Cone(generators=(np.diag([4.0, 0.0, 0.0]),), shape=(3, 3))
    assert np.isclose(fro(c.generators[0]), 1.0)


def test_lineality_detects_two_sided_directions():
    gens = (np.diag([1.0, 0.0, 0.0]), np.diag([-1.0, 0.0, 0.0]),
            np.diag([0.0, 1.0, 0.0]))
    c = Cone(generators=gens, shape=(3, 3))
    lin = lineality(c)
    assert lin.dim == 1
    assert lin.contains(np.diag([2.0, 0.0, 0.0]))


def test_pointed_is_derived_from_the_lineality():
    """`Cone.pointed` is read from `lineality` at the cone's tol on first
    use: None without generators, True on the orthant, False with +-e1; a
    saturated wedge's cone reads it as the saturation loop's last round
    would."""
    assert Cone(shape=(3, 3)).pointed is None
    assert _orthant_cone().pointed is True
    gens = (np.diag([1.0, 0.0, 0.0]), np.diag([-1.0, 0.0, 0.0]))
    assert Cone(generators=gens, shape=(3, 3)).pointed is False
    w = saturate(initial_wedge(example2()), orbit_samples=48)
    assert w.cone.pointed is (lineality(w.cone, w.saturation["tol"]).dim == 0)
    assert w.cone.pointed is True


@pytest.mark.parametrize("gens", [
    tuple(np.diag(e) for e in np.eye(3)),
    (np.diag([1.0, 0.0, 0.0]), np.diag([-1.0, 0.0, 0.0]), np.diag([0.0, 1.0, 0.0])),
], ids=["pointed", "two-sided"])
@pytest.mark.parametrize("tol", [-1.0, 0.0])
def test_lineality_rejects_a_bad_tol_on_every_cone(gens, tol):
    """A tol of -1 once returned {0} on both cones and a tol of 0 on the
    pointed one, while 0 on the +-e1 cone failed only inside the fit; now
    every cone refuses a bad tol up front."""
    c = Cone(generators=gens, shape=(3, 3))
    with pytest.raises(ValueError, match="tol must be positive and finite"):
        lineality(c, tol)


def test_wedge_contains_ignores_edge_component():
    edge = orthonormal_span([H_Y], shape=(3, 3))
    c = Cone(generators=(GAMMA2,), shape=(3, 3))
    w = Wedge(edge=edge, cone=c)
    assert wedge_contains(w, 5.0 * H_Y + 0.3 * GAMMA2)
    assert not wedge_contains(w, -GAMMA2)
    # without a drift, the outer wedge's algebra closes the edge with the cone's span
    assert outer_contains(w, 5.0 * H_Y + 0.3 * GAMMA2)
    assert not outer_contains(w, -GAMMA2)


def test_initial_wedge_of_example2():
    w = initial_wedge(example2())
    assert w.edge.dim == 1
    assert w.edge.contains(H_Y)
    assert w.cone.n_generators == 1
    drift = w.cone.generators[0]
    assert inner(drift, H_Z) > 0 and inner(drift, GAMMA2) > 0


def test_grid1_support_matches_brute_force():
    fam = ConjugationFamily((H_Y,), H_Z + GAMMA2)
    assert (fam.kind, fam.n_params) == ("torus", 1)
    for direction in (H_X, H_Z + 0.2 * H_X, GAMMA2 + H_X):
        _, val = fam.support(direction)
        grid = max(inner(fam.element([t]), direction)
                   for t in np.linspace(0.0, 2.0 * np.pi, 4096, endpoint=False))
        assert val >= grid - 1e-9


def test_grid2_support_matches_brute_force():
    """two_qubit_C's torus family against a 96x96 torus of its elements."""
    w = saturate(initial_wedge(build_system(ChannelSpec(name="two_qubit_C"))),
                 orbit_samples=24)
    fam = w.cone.analytic
    assert (fam.kind, fam.n_params) == ("torus", 2)
    n = 96
    axes = np.meshgrid(*(np.arange(n) * (p / n) for p in fam.periods), indexing="ij")
    thetas = np.stack([t.ravel() for t in axes], axis=1)
    rng = np.random.default_rng(29)
    shape = fam.base.shape
    for direction in (w.drift, rng.normal(size=shape)):
        g, val = fam.support(direction)
        torus = max(np.sum(fam.elements(chunk) * direction, axis=(1, 2)).max()
                    for chunk in np.array_split(thetas, 36))
        assert val >= torus - 1e-9
        assert abs(inner(g, direction) - val) <= 1e-12 * max(1.0, fro(direction))


@pytest.mark.parametrize("rep", ["r3", "qubit"])
def test_seeds_that_miss_a_rotation_get_no_closed_form(rep):
    """Three seeds that are multiples of one generator, around a symmetric
    base, sweep a one-parameter orbit, not every rotation: the family has no
    closed form, and its support never exceeds a dense scan of that orbit
    over a full period (the aligned closed form overshot it by 3.8 on r3 and
    3.4 on a qubit)."""
    rng = np.random.default_rng(11)
    block = np.diag([3.0, 2.0, 1.0])
    if rep == "r3":
        s = np.asarray(H_X + 0.6 * H_Y - 0.3 * H_Z)
        seeds, base = (s, -s, s), block
    else:
        s = ptm_rep(1j * ad_hat(np.diag([0.5, -0.5])))
        seeds, base = (s, 2.0 * s, -0.5 * s), _coherence_ptm(block)
    fam = ConjugationFamily(seeds, base)
    assert fam.exact is None
    thetas = np.zeros((2 ** 15, 3))
    thetas[:, 0] = np.linspace(0.0, fam.periods[0], len(thetas), endpoint=False)
    orbit = fam.elements(thetas)
    for _ in range(6):
        d = rng.normal(size=(3, 3))
        d = d + d.T if rep == "r3" else _coherence_ptm(d + d.T)
        _, val = fam.support(d)
        scan = np.sum(orbit * d, axis=(1, 2)).max()
        assert val <= scan + 1e-6 * max(1.0, abs(scan))


def test_non_skew_seeds_are_rejected():
    """A seed that is not skew has no rotation period and no unitary
    exponential: the family refuses it, alone or beside a skew one, and
    refuses an empty seed set."""
    seed = H_Y + 0.5 * GAMMA2
    for seeds in ((seed,), (H_X, seed), ()):
        with pytest.raises(ValueError, match="real skew seeds"):
            ConjugationFamily(seeds, H_Z)


@pytest.mark.parametrize("scale", [1e-10, 1.0, 1e9])
def test_family_refuses_a_base_inside_the_seeds_span(scale):
    """A family's base must be orthogonal to the seeds' span, which
    conjugation fixes: a part along the seeds above 1e-9 max(1, |base|) is
    refused, at rates 1e-10 and 1e9 as at 1, and one below it is taken (a
    saturated base carries rounding of that order).  Seeds that are not
    orthonormal are read through their span."""
    seeds = (np.asarray(H_X) / fro(H_X), np.asarray(H_Y) / fro(H_Y))
    base = scale * np.diag([3.0, 2.0, 1.0])
    bound = 1e-9 * max(1.0, fro(base))
    along = (H_X + 2.0 * H_Y) / fro(H_X + 2.0 * H_Y)
    for fam_seeds in (seeds, (seeds[0], seeds[0] + seeds[1], 2.0 * seeds[1])):
        ConjugationFamily(fam_seeds, base + 0.5 * bound * along)
        with pytest.raises(ValueError, match="the base must be orthogonal to the seeds' span"):
            ConjugationFamily(fam_seeds, base + 2.0 * bound * along)


@pytest.mark.parametrize("rep", ["r3", "qubit"])
def test_family_refuses_complex_seeds_and_bases(rep):
    """Every carrier is real: an anti-Hermitian superoperator seed, or a base
    with an imaginary part, is refused, while a complex dtype with zero
    imaginary part is read as real."""
    if rep == "r3":
        seed, base = np.asarray(H_Z), np.diag([1.0, 2.0, 3.0])
    else:
        seed, base = ptm_rep(1j * ad_hat(sigma("z") / 2.0)), np.diag([0.0, 1.0, 1.0, 0.0])
    with pytest.raises(ValueError, match="a seed must be real"):
        ConjugationFamily((seed + 1j * seed,), base)
    with pytest.raises(ValueError, match="the base must be real"):
        ConjugationFamily((seed,), base + 1j * np.eye(len(base)))
    fam = ConjugationFamily((seed.astype(complex),), base.astype(complex))
    assert fam.base.dtype == fam.seeds[0].dtype == float


def test_wedge_dim_ignores_noise_inside_the_edge():
    """A drift parallel to the only control leaves a rounding-noise
    remainder off the edge; it is no extra dimension."""
    sys = ControlSystem(rep="qubit", drift_H=sigma("x"), controls=(sigma("x") / 2,))
    w = initial_wedge(sys)
    assert w.edge.dim == 1 and w.cone.n_generators == 1
    assert w.dim == 1


def test_saturate_example2_reference_geometry():
    w = saturate(initial_wedge(example2()), orbit_samples=360)
    assert w.saturation["converged"]
    assert w.edge.dim == 1
    assert w.dim == 4
    basis = {"hx": H_X / fro(H_X), "hz": H_Z / fro(H_Z),
             "g": GAMMA2 / fro(GAMMA2)}
    for g in w.cone.generators:
        assert abs(inner(g, H_Y)) <= 1e-12
        coords = {k: inner(g, b) for k, b in basis.items()}
        rec = sum(c * basis[k] for k, c in coords.items())
        assert fro(g - rec) <= 1e-10
        # each generator is a rotated drift: coordinates (sin, cos, 1)
        # against the unnormalized basis, so the rotation part has the
        # same length as the relaxation part
        assert coords["g"] > 0
        assert abs(np.hypot(coords["hx"], coords["hz"]) - coords["g"]) <= 1e-10


def test_saturate_example2_circle_average_is_inner_point():
    w = saturate(initial_wedge(example2()), orbit_samples=360)
    assert wedge_contains(w, GAMMA2)
    assert not wedge_contains(w, np.asarray(H_X))


def test_saturate_example1_edge_is_so3():
    w = saturate(initial_wedge(example1()), orbit_samples=240)
    assert w.saturation["converged"]
    so3 = orthonormal_span([H_X, H_Y, H_Z], shape=(3, 3))
    assert w.edge.dim == 3
    for h in (H_X, H_Y, H_Z):
        assert w.edge.contains(h)
    assert w.dim == 9


def test_saturate_example1_cone_against_spectral_oracle():
    w = saturate(initial_wedge(example1()), orbit_samples=240)
    rates = np.array([3.0, 2.0, 1.0])
    disagreements = 0
    for _ in range(120):
        s = RNG.normal(size=(3, 3))
        s = (s + s.T) / 2.0
        tr = float(np.trace(s))
        oracle = tr > 1e-9 and majorized(s, tr / rates.sum() * rates)
        got = cone_contains(w.cone, s, tol=1e-6)
        disagreements += int(oracle != got)
    assert disagreements <= 1


def test_saturate_example3_span_and_closed_form():
    w = saturate(initial_wedge(example3()), orbit_samples=360)
    assert w.saturation["converged"]
    assert w.edge.dim == 1
    assert w.dim == 6
    assert w.cone.span().dim == 5
    delta = example3_delta()
    for theta in RNG.uniform(0.0, 2.0 * np.pi, size=25):
        u = expm(theta * np.asarray(H_Y))
        direct = u @ (H_Z + GAMMA3) @ u.T
        closed = (np.sin(theta) * H_X + np.cos(theta) * H_Z
                  + 0.5 * np.sin(2.0 * theta) * P_Y
                  + 0.5 * (1.0 - np.cos(2.0 * theta)) * delta
                  + (11.0 + np.cos(2.0 * theta)) / 12.0 * GAMMA3)
        assert fro(direct - closed) <= 1e-12
        assert wedge_contains(w, direct, tol=1e-6)


def test_dual_cone_margin_closed_forms():
    s = np.diag([5.0, 1.0, -1.0])
    # isotropic rates measure the trace, a single rate the bottom eigenvalue
    assert np.isclose(dual_cone_margin((1.0, 1.0, 1.0), s), 5.0)
    assert np.isclose(dual_cone_margin((1.0, 0.0, 0.0), s), -1.0)
    assert np.isclose(dual_cone_margin((3.0, 2.0, 1.0), s), 5.0 + 2.0 - 3.0)
    assert dual_cone_contains((1.0, 1.0, 1.0), s)
    assert not dual_cone_contains((1.0, 0.0, 0.0), s)
    with pytest.raises(ValueError):
        dual_cone_margin((1.0, 2.0, 3.0), s)


def test_dual_cone_margin_is_rotation_invariant():
    s = RNG.normal(size=(3, 3))
    s = (s + s.T) / 2.0
    m0 = dual_cone_margin((3.0, 2.0, 1.0), s)
    for theta in (0.3, 1.2):
        u = expm(theta * np.asarray(H_X))
        assert np.isclose(dual_cone_margin((3.0, 2.0, 1.0), u @ s @ u.T), m0)


def test_majorized_basics():
    assert majorized(np.diag([3.0, 2.0, 1.0]), (3.0, 2.0, 1.0))
    assert majorized(np.diag([2.0, 2.0, 2.0]), (3.0, 2.0, 1.0))
    assert not majorized(np.diag([4.0, 1.0, 1.0]), (3.0, 2.0, 1.0))
    assert not majorized(np.diag([3.0, 2.0, 0.0]), (3.0, 2.0, 1.0))
    with pytest.raises(ValueError):
        majorized(np.diag([1.0, 1.0]), (3.0, 2.0, 1.0))


def _worst_residual(sub: Subspace, brackets: np.ndarray) -> float:
    """Largest residual of a bracket stack off `sub`, each relative to its
    own norm; brackets of norm <= 1e-12 are skipped."""
    cols = brackets.reshape(len(brackets), -1).T
    res = np.linalg.norm(cols - sub.stack @ (sub.stack.T @ cols), axis=0)
    norms = np.linalg.norm(cols, axis=0)
    return float(np.max(res[norms > 1e-12] / norms[norms > 1e-12], initial=0.0))


def test_outer_wedge_hypotheses_on_qubit_system():
    """The four global outer-approximation hypotheses, each decided by one
    exact call on a pure-dissipator orbit cone whose edge carries the whole
    unitary algebra (full local control, no drift Hamiltonian): the
    dissipator lies in the cone; [span, span] lies in ad(su(2)) and
    [span, ad(su(2))] in the span, each over the whole basis in one
    broadcast `comm`; and the cone is invariant under unitary conjugation,
    since saturation conjugates by the edge and the edge holds ad(su(2))."""
    from liewedge.lindblad import dissipator_direction
    sys = ControlSystem(rep="qubit", drift_H=np.zeros((2, 2), dtype=complex),
                        controls=(sigma("x") / 2.0, sigma("y") / 2.0),
                        lindblad_ops=((sigma("z") / 2.0, 0.5),))
    w = saturate(initial_wedge(sys), orbit_samples=240)
    assert w.saturation["converged"]
    assert w.edge.dim == 3
    adsu = orthonormal_span([ptm_rep(1j * ad_hat(b)) for b in pauli_basis(2)])
    span = np.stack(w.cone.span().mats)
    assert cone_contains(w.cone, ptm_rep(dissipator_direction(sys)))
    assert _worst_residual(adsu, comm(span[:, None], span[None]).reshape(-1, 4, 4)) <= 1e-8
    assert _worst_residual(w.cone.span(), comm(span[:, None], np.stack(adsu.mats)[None])
                           .reshape(-1, 4, 4)) <= 1e-8
    assert subspace_leq(adsu, w.edge)


@pytest.mark.parametrize("x, message", [
    (np.zeros((5, 5)), r"not a superoperator matrix: shape \(5, 5\)"),
    (np.zeros((4, 3)), r"not a superoperator matrix: shape \(4, 3\)"),
    (np.zeros(16), r"not a superoperator matrix: shape \(16,\)"),
    (np.zeros((2, 4, 4)), r"not a superoperator matrix: shape \(2, 4, 4\)"),
    (np.full((4, 4), np.nan), "x must be finite"),
    (np.diag([1.0, np.inf, 0.0]), "x must be finite"),
])
def test_gks_margin_refuses_a_shape_of_no_carrier(x, message):
    """gks_margin reads its carrier from the shape: 3x3 (r3) or N^2 x N^2;
    anything else, or a non-finite entry, has no margin."""
    with pytest.raises(ValueError, match=message):
        gks_margin(x)


def test_outer_contains_refuses_an_x_of_another_carrier():
    w = initial_wedge(build_system(ChannelSpec(name="two_qubit_C")))
    with pytest.raises(ValueError, match=r"carrier's shape \(16, 16\), got \(4, 4\)"):
        outer_contains(w, np.eye(4))
    with pytest.raises(ValueError, match="x must be finite"):
        outer_contains(w, np.full((16, 16), np.nan))
    with pytest.raises(ValueError, match="tol must be positive and finite"):
        outer_contains(w, np.eye(16), tol=0.0)


@pytest.fixture(scope="module")
def named_wedges() -> dict:
    """The nine named wedges, saturated at 360 samples: examples 1-3, the
    three qubit files with control x and drift z, and two_qubit_A/B/C."""
    specs = {name: ChannelSpec(name=name) for name in
             ("example1", "example2", "example3", "two_qubit_A", "two_qubit_B", "two_qubit_C")}
    for name in ("phase_flip", "bit_flip", "depolarizing"):
        specs[name] = ChannelSpec(name=name, control_axes=("x",), drift_axis="z")
    return {name: saturate(initial_wedge(build_system(spec)), orbit_samples=360)
            for name, spec in specs.items()}


def test_named_wedges_lie_inside_their_outer_wedge(named_wedges):
    """Every stored generator and both signs of every edge basis element
    pass the outer test, and no negated generator does: each pointed cone
    has margin <= -0.28 at -g, so -g lies outside every wedge of its
    system.  The system algebra has the dimension of its Lie closure."""
    dims = {name: w.algebra.dim for name, w in named_wedges.items()}
    assert dims == {"example1": 9, "example2": 9, "example3": 9, "phase_flip": 9,
                    "bit_flip": 9, "depolarizing": 4, "two_qubit_A": 15, "two_qubit_B": 15,
                    "two_qubit_C": 225}
    for name, w in named_wedges.items():
        for e in w.edge.mats:
            assert outer_contains(w, e) and outer_contains(w, -e), name
        for g in w.cone.generators:
            assert outer_contains(w, g), name
            assert gks_margin(-g) <= -0.28, name
            assert not outer_contains(w, -g), name


# ---------------------------------------------------------------------------
# the Schur-Horn membership oracle behind Cone.exact
# ---------------------------------------------------------------------------

BENCH_WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


def _rotation(rng) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, [0, 1]] = q[:, [1, 0]]
    return q


def _schur_horn(s: np.ndarray, rates) -> bool:
    rates = np.asarray(rates, dtype=float)
    tr = float(np.trace(s))
    return tr > 1e-9 and majorized(s, tr / rates.sum() * rates)


def _counting_fits(monkeypatch) -> list:
    """Count `_cone_fit` calls made through the module attribute."""
    calls = []
    fit = wedge_module._cone_fit

    def counted(*args, **kwargs):
        calls.append(1)
        return fit(*args, **kwargs)

    monkeypatch.setattr(wedge_module, "_cone_fit", counted)
    return calls


def test_real_wedge_rejects_an_imaginary_part():
    """A real carrier holds no imaginary part: it counts in the distance on
    the closed-form path (the orbit wedge) and on the fitted path (a cone
    without a family), while a complex dtype with zero imaginary part stays
    a member."""
    w = orbit_wedge((3.0, 2.0, 1.0))
    x = np.diag([3.0, 2.0, 1.0])
    assert not wedge_contains(w, x + 1j * np.eye(3))
    assert not cone_contains(w.cone, x + 1e-3j * np.eye(3))
    assert wedge_contains(w, x.astype(complex))
    c = _orthant_cone()
    assert not cone_contains(c, x + 1j * np.eye(3))
    assert cone_contains(c, x.astype(complex))
    assert w.cone.exact is not None and c.exact is None


@pytest.mark.parametrize("oracle", ["cone", "wedge"])
@pytest.mark.parametrize("x, tol, message", [
    (np.eye(4), None, r"x must have the carrier's shape \(3, 3\), got \(4, 4\)"),
    (np.ones(9), None, r"x must have the carrier's shape \(3, 3\), got \(9,\)"),
    (np.diag([3.0, np.nan, 1.0]), None, "x must be finite"),
    (np.diag([3.0, np.inf, 1.0]), None, "x must be finite"),
    (-np.diag([3.0, 2.0, 1.0]), np.inf, "tol must be positive and finite, got inf"),
    (np.diag([3.0, 2.0, 1.0]), np.nan, "tol must be positive and finite, got nan"),
    (np.diag([3.0, 2.0, 1.0]), -1.0, "tol must be positive and finite, got -1.0"),
    (np.diag([3.0, 2.0, 1.0]), 0.0, "tol must be positive and finite, got 0.0"),
])
def test_membership_rejects_bad_inputs(oracle, x, tol, message):
    w = orbit_wedge((3.0, 2.0, 1.0))
    with pytest.raises(ValueError, match=message):
        if oracle == "cone":
            cone_contains(w.cone, x, tol)
        else:
            wedge_contains(w, x, tol)


def test_schur_horn_oracle_matches_majorization_on_criterion_3_draws():
    """The 1000 draws of acceptance criterion 3 (same wedge, seed and order):
    members, extreme rays and generic symmetric matrices, with no
    disagreement against Schur-Horn where that criterion allows one."""
    wedge_ex1 = saturate(initial_wedge(example1()), orbit_samples=240)
    rng = np.random.default_rng(20260825)
    rates = np.array([3.0, 2.0, 1.0])
    disagreements = 0
    for k in range(1000):
        if k % 3 == 0:
            s = sum(rng.uniform(0.2, 1.0) * (q := _rotation(rng)) @ np.diag(rates) @ q.T
                    for _ in range(rng.integers(1, 4)))
        elif k % 3 == 1:
            q = _rotation(rng)
            s = rng.uniform(0.3, 2.0) * q @ np.diag(rates) @ q.T
        else:
            s = rng.normal(size=(3, 3))
            s = (s + s.T) / 2.0
        disagreements += int(cone_contains(wedge_ex1.cone, s) != _schur_horn(s, rates))
    assert disagreements == 0


def test_qubit_orbit_verdicts_match_majorization():
    """phase_flip with x and y controls: the edge is every rotation of the
    coherence vector and the cone an orbit cone of rates (2, 2, 0).  Verdicts
    on the transfer matrices of unital maps (plus an edge part for the
    wedge) agree with Schur-Horn on their coherence representation, the
    traceless block transposed."""
    sys = build_system(ChannelSpec(name="phase_flip", control_axes=("x", "y")))
    w = saturate(initial_wedge(sys), orbit_samples=360)
    exact = w.cone.exact
    assert exact is not None and exact.qubit
    rates = exact.rates
    rng = np.random.default_rng(3)
    for k in range(90):
        if k % 3 == 0:
            s = sum(rng.uniform(0.2, 1.0) * (q := _rotation(rng)) @ np.diag(rates) @ q.T
                    for _ in range(rng.integers(1, 4)))
        elif k % 3 == 1:
            q = _rotation(rng)
            s = rng.uniform(0.3, 2.0) * q @ np.diag(rates) @ q.T
        else:
            s = rng.normal(size=(3, 3))
            s = (s + s.T) / 2.0
        x = _coherence_ptm(s)
        truth = _schur_horn(x[1:, 1:].T, rates)
        edge_part = sum(c * m for c, m in zip(rng.normal(size=w.edge.dim), w.edge.mats))
        assert cone_contains(w.cone, x) == truth
        assert wedge_contains(w, x + edge_part) == truth


def test_example1_probe_set_makes_no_fit(monkeypatch):
    """The benchmark's 24-probe `contains example1` set, drawn as the query
    workload draws it at seed 61: every verdict comes from the Schur-Horn
    bounds, with no `_cone_fit` call."""
    spec = importlib.util.spec_from_file_location("liewedge_bench_workloads", BENCH_WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # for its dataclasses
    spec.loader.exec_module(workloads)
    w = saturate(initial_wedge(example1()), orbit_samples=360)
    probes = workloads._ex1_probes(np.random.default_rng([61, 2]), 24)
    calls = _counting_fits(monkeypatch)
    assert [wedge_contains(w, x) for x, _ in probes] == [t for _, t in probes]
    assert calls == []


def test_generator_off_the_orbit_is_refused(monkeypatch):
    """A family cone is its orbit's cone, so it refuses generators: one off
    the orbit would make the cone larger than the closed form it answers
    from.  diag(1, 0, 0) is no Schur-Horn member of cone{R diag(3, 2, 1)
    R^T}, and the family's cone says so exactly, with no fit.  Sweep rows
    without a family are refused too."""
    seeds = tuple(np.asarray(h) / fro(h) for h in (H_X, H_Y, H_Z))
    base = np.diag([3.0, 2.0, 1.0])
    fam = ConjugationFamily(seeds, base)
    on_orbit = Cone(shape=(3, 3), analytic=fam)
    assert on_orbit.exact is fam.exact and on_orbit.n_generators == 1
    off = np.diag([1.0, 0.0, 0.0])
    for gens in ((off,), (base, off)):
        with pytest.raises(ValueError, match="generators, or a family"):
            Cone(generators=gens, shape=(3, 3), analytic=fam)
    with pytest.raises(ValueError, match="generators, or a family"):
        Cone(generators=(off,), shape=(3, 3), thetas=np.zeros((1, 3)))
    calls = _counting_fits(monkeypatch)
    assert not cone_contains(on_orbit, off)
    assert not _schur_horn(off, (3.0, 2.0, 1.0))
    assert calls == []


def test_off_image_qubit_directions_get_the_exact_support():
    """phase_flip with x and y controls: a direction with entries off the
    transfer matrix's traceless block, whose superoperator is not unital,
    gets the aligned element of its block, which scores its own value and
    beats every one of 4000 sampled orbit points."""
    system = build_system(ChannelSpec(name="phase_flip", control_axes=("x", "y")))
    w = saturate(initial_wedge(system), orbit_samples=360)
    fam = w.cone.analytic
    assert w.cone.exact is fam.exact and fam.exact.qubit
    rng = np.random.default_rng(11)
    samples = fam.elements(rng.normal(scale=np.pi, size=(4000, 3)))
    for _ in range(5):
        d = rng.normal(size=(4, 4))
        assert fro(d[1:, 0]) > 1e-11 * fro(d)
        aligned = fam.exact.support(d)
        assert aligned is not None
        g, val = aligned
        assert abs(inner(g, d) - val) <= 1e-12 * fro(d) * fro(g)
        assert val >= max(inner(s, d) for s in samples)


# ---------------------------------------------------------------------------
# the Caratheodory-Toeplitz membership oracle behind Cone.exact
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def grid1_wedges() -> dict:
    """The one-control wedges, saturated at 360 samples as the query
    workload saturates its own: examples 2 and 3, and the three qubit
    files with control x and drift z."""
    systems = {"example2": example2(), "example3": example3()}
    for name in ("phase_flip", "bit_flip", "depolarizing"):
        systems[name] = build_system(ChannelSpec(name=name, control_axes=("x",),
                                                 drift_axis="z"))
    return {name: saturate(initial_wedge(system), orbit_samples=360)
            for name, system in systems.items()}


def test_grid1_cones_take_the_closed_form(grid1_wedges):
    degrees = {name: w.cone.exact.degree for name, w in grid1_wedges.items()}
    assert degrees == {"example2": 1, "example3": 2, "phase_flip": 2, "bit_flip": 1,
                       "depolarizing": 1}
    for w in grid1_wedges.values():
        assert w.cone.exact is w.cone.analytic.exact


def _undercut_probes(w, rng, count: int, moved: int) -> list:
    """Edge-orthogonal probes: 10 negated conic mixes of stored generators,
    10 random points, then mixes, of which the last `moved` are moved by
    1e-4..10**-2.5 relative in a random direction."""
    c = w.cone
    gens = np.asarray(c.generators)
    out = []
    for k in range(count):
        idx = rng.integers(len(gens), size=int(rng.integers(1, 4)))
        x = np.tensordot(rng.uniform(0.2, 1.0, len(idx)), gens[idx], axes=1)
        noise = rng.normal(size=c.shape)
        if k < 10:
            x = -x
        elif k < 20:
            x = noise
        elif k >= count - moved:
            x = x + 10.0 ** rng.uniform(-4.0, -2.5) * fro(x) * noise / fro(noise)
        out.append(x - w.edge.project(x))
    return out


def _assert_no_undercut(c, probes, name):
    for x in probes:
        (lower,), _ = c.exact.contains(x[None])
        assert cone_residual(c, x) >= lower - 1e-12 * max(1.0, fro(x)), name


def test_grid1_closed_form_needs_a_gapless_commensurate_base():
    """Rotations about y: a zero base, and diag(1, 0, -1) + (E_xy + E_yx),
    whose parts have k = +-1 and +-2 but no mean (k = 0); and a seed with
    incommensurate eigenphase differences, rotations of two planes at rates
    1 and sqrt(2).  None gets a closed form, and the sampled support still
    answers."""
    xy = np.zeros((3, 3))
    xy[0, 1] = xy[1, 0] = 1.0
    turn = np.array([[0.0, -1.0], [1.0, 0.0]])
    incommensurate = np.kron(np.diag([1.0, np.sqrt(2.0)]), turn)
    for fam in (ConjugationFamily((np.asarray(H_Y),), np.zeros((3, 3))),
                ConjugationFamily((np.asarray(H_Y),), np.diag([1.0, 0.0, -1.0]) + xy),
                ConjugationFamily((incommensurate / fro(incommensurate),), np.ones((4, 4)))):
        assert fam.kind == "torus" and fam.exact is None
        d = np.eye(fam.base.shape[0])
        g, val = fam.support(d)
        assert abs(inner(g, d) - val) <= 1e-12


def test_sampled_residual_never_undercuts_the_toeplitz_bound(grid1_wedges):
    """The sampled path's distance is never below the Toeplitz lower bound,
    so it calls no non-member a member: negated and plain conic mixes of
    stored generators, random points, and moved mixes, on every grid1
    wedge."""
    rng = np.random.default_rng(29)
    for name, w in grid1_wedges.items():
        _assert_no_undercut(w.cone, _undercut_probes(w, rng, 60, 30), name)


def test_cone_residual_is_the_distance_to_its_fit(grid1_wedges):
    """On phase_flip the residual NNLS reports falls below the Toeplitz lower
    bound for a few percent of slightly moved mixes, by up to 7%;
    `cone_residual` measures |x - fit| instead, which never does."""
    w = grid1_wedges["phase_flip"]
    _assert_no_undercut(w.cone, _undercut_probes(w, np.random.default_rng(29), 200, 180),
                        "phase_flip")


def test_criterion_8_witness_tail_is_certified_outside(grid1_wedges):
    """Acceptance criterion 8's example-2 pair: the edge-orthogonal part of
    its BCH tail at t = 1e-3 has a Toeplitz lower bound above the witness
    threshold, so the witness holds whatever the fit."""
    w = grid1_wedges["example2"]
    a, b, t = GAMMA2 + H_Z, GAMMA2 + H_X, 1e-3
    tail = bch(t * a, t * b) - t * (a + b)
    threshold = 1e-8 * t * t * max(1.0, fro(a) * fro(b))
    (lower,), _ = w.cone.exact.contains((tail - w.edge.project(tail))[None])
    assert lower > threshold


def test_grid1_probe_sets_make_no_fit(monkeypatch, grid1_wedges):
    """The benchmark's `contains example2|3|phase_flip` probe sets at seed 61,
    drawn as the query workload draws them: every verdict comes from the
    Toeplitz bounds, with no `_cone_fit` call."""
    spec = importlib.util.spec_from_file_location("liewedge_bench_workloads", BENCH_WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # for its dataclasses
    spec.loader.exec_module(workloads)
    state = {"wedges": {**grid1_wedges,
                        "example1": saturate(initial_wedge(example1()), orbit_samples=360),
                        "isotropic": orbit_wedge((1.0, 1.0, 1.0), hull_samples=96)}}
    jobs = [j for j in workloads.jobs_query(state, 61, False)
            if j.kind in ("contains example2", "contains example3", "contains phase_flip")]
    assert len(jobs) == 40
    calls = _counting_fits(monkeypatch)
    for job in jobs:
        job.run()  # raises when a verdict differs from the probe's truth
    assert calls == []


def test_grid1_generator_off_the_orbit_is_refused(monkeypatch):
    """Example 2's family, whose orbit cone is a circular cone of degree 1:
    the saturated cone refuses a generator off it (the drift's
    edge-orthogonal part plus a part off the moment span), and decides it
    outside with no fit.  Why it must: the swept generators plus that one,
    as a plain cone, hold it (by a fit) and span a wedge of dimension 5,
    while the family's orbit span misses it by sqrt(3)/2 and gives 4; a
    family cone that stored it would answer from both."""
    w = saturate(initial_wedge(example2()), orbit_samples=90)
    fam = w.cone.analytic
    assert w.cone.exact is fam.exact
    off = fam.base + 0.5 * fro(fam.base) * np.diag([1.0, -1.0, 0.0]) / np.sqrt(2.0)
    (lower,), _ = fam.exact.contains(off[None])
    assert lower > 0.1
    with pytest.raises(ValueError, match="generators, or a family"):
        Cone(generators=(*w.cone.generators, off), shape=(3, 3),
             analytic=fam)
    plain = Cone(generators=(*w.cone.generators, off), shape=(3, 3))
    calls = _counting_fits(monkeypatch)
    assert not cone_contains(w.cone, off)
    assert calls == []
    assert cone_contains(plain, off)
    assert abs(w.cone.span().residual(off) - np.sqrt(3.0) / 2.0) <= 1e-12
    assert (w.dim, Wedge(edge=w.edge, cone=plain).dim) == (4, 5)


@pytest.mark.parametrize("kwargs, message", [
    ({"seed": 1.5}, r"seed must be an integer >= 0, got 1\.5"),
    ({"seed": True}, "seed must be an integer >= 0, got True"),
    ({"seed": -1}, "seed must be an integer >= 0, got -1"),
    ({"orbit_samples": -5}, "orbit_samples must be an integer >= 1, got -5"),
    ({"orbit_samples": 0}, "orbit_samples must be an integer >= 1, got 0"),
    ({"orbit_samples": 2.5}, r"orbit_samples must be an integer >= 1, got 2\.5"),
    ({"max_rounds": 0}, "max_rounds must be an integer >= 1, got 0"),
    ({"max_rounds": 2.5}, r"max_rounds must be an integer >= 1, got 2\.5"),
    ({"max_rounds": True}, "max_rounds must be an integer >= 1, got True"),
    ({"tol": 0.0}, "tol must be positive and finite, got 0.0"),
    ({"tol": -1e-8}, "tol must be positive and finite, got -1e-08"),
    ({"tol": np.inf}, "tol must be positive and finite, got inf"),
    ({"tol": np.nan}, "tol must be positive and finite, got nan"),
])
def test_saturate_rejects_bad_settings_before_any_work(monkeypatch, kwargs, message):
    """Each of these ran silently (a negative or fractional sample count, a
    bool seed), leaked numpy's TypeError (a fractional seed) or failed only
    inside the spot check (tol 0); now none reaches the first round."""
    rounds = []
    monkeypatch.setattr(wedge_module, "lineality", lambda *a, **k: rounds.append(1))
    with pytest.raises(ValueError, match=message):
        saturate(initial_wedge(example2()), **kwargs)
    assert rounds == []


def test_saturate_takes_numpy_integer_settings():
    start = initial_wedge(example2())
    got = saturate(start, orbit_samples=np.int64(24), max_rounds=np.int32(4), seed=np.uint8(3))
    want = saturate(start, orbit_samples=24, max_rounds=4, seed=3)
    assert got.cone.stack.tobytes() == want.cone.stack.tobytes()
    assert got.saturation == want.saturation


def _counting_params(monkeypatch) -> list:
    """Patch `ConjugationFamily.params` to record each call; returns the log."""
    calls = []
    params = ConjugationFamily.params
    monkeypatch.setattr(ConjugationFamily, "params",
                        lambda self, *a: calls.append(self) or params(self, *a))
    return calls


@pytest.mark.parametrize("name", ["example1", "example2", "example3", "two_qubit_A",
                                  "two_qubit_B", "two_qubit_C"])
def test_saturate_draws_sweep_rows_once(monkeypatch, name):
    """No round before the last reads its family's sweep, so `saturate`
    draws the rows once, for the family of the cone it returns, and never
    when it ends without a family (two_qubit_B's edge fills the algebra)."""
    calls = _counting_params(monkeypatch)
    w = saturate(initial_wedge(build_system(ChannelSpec(name=name))), orbit_samples=24)
    family = w.cone.analytic
    assert calls == ([] if family is None else [family])
    if family is not None:
        assert w.saturation["rounds"] >= 2 and len(w.cone.thetas) >= 24


def test_unconverged_saturation_keeps_its_sweep_rows(monkeypatch):
    """Example 2 cut after one round: the one family is drawn once, and its
    rows are the 24-point grid over the torus box, as when every round drew
    its own."""
    calls = _counting_params(monkeypatch)
    w = saturate(initial_wedge(example2()), orbit_samples=24, max_rounds=1, seed=5)
    family = w.cone.analytic
    assert (w.saturation["converged"], w.saturation["termination"]) == (False, None)
    assert w.saturation["edge_dims"] == [1] and calls == [family]
    grid = np.arange(24)[:, None] * (family.periods[0] / 24)
    assert w.cone.thetas.tobytes() == grid.tobytes()


def test_unconverged_saturation_reuses_the_orbit_span(monkeypatch):
    """two_qubit_B cut after one round: `lineality` closes the orbit's span
    (its base is traceless), and the returned cone, built over the same
    family with its sweep rows, reads that span for `Wedge.dim`."""
    closures = []
    closure = wedge_module.lie_closure
    monkeypatch.setattr(wedge_module, "lie_closure",
                        lambda *a, **k: closures.append(k.get("by") is not None)
                        or closure(*a, **k))
    w = saturate(initial_wedge(build_system(ChannelSpec("two_qubit_B"))), orbit_samples=24,
                 max_rounds=1)
    assert closures == [False, True] and not w.saturation["converged"]
    assert w.dim == 15 and closures == [False, True]


@pytest.mark.parametrize("name, dims", [("example1", (3, 9)), ("example2", (1, 4)),
                                        ("example3", (1, 6)), ("two_qubit_C", (2, 15))])
def test_saturated_wedge_does_not_depend_on_the_sample_count(name, dims):
    """The edge, the base, the family's seeds and the wedge dimension come
    from the algebra alone, so 1, 2, 4 or 24 orbit samples give the same
    ones (two_qubit_C's dimension once read 10, not 15, off a stack of 4 or
    fewer samples)."""
    start = initial_wedge(build_system(ChannelSpec(name=name)))
    ws = [saturate(start, orbit_samples=k) for k in (1, 2, 4, 24)]
    for w in ws:
        family = w.cone.analytic
        assert (w.edge.dim, w.dim) == dims and w.saturation["converged"]
        assert np.array_equal(family.base, ws[-1].cone.analytic.base)
        assert np.array_equal(np.stack(family.seeds), np.stack(ws[-1].cone.analytic.seeds))


_LAZY_SYSTEMS = {"example1": ChannelSpec("example1"), "example2": ChannelSpec("example2"),
                 "example3": ChannelSpec("example3"),
                 "phase_flip": ChannelSpec("phase_flip", control_axes=("x",), drift_axis="z"),
                 "two_qubit_C": ChannelSpec("two_qubit_C")}


@pytest.mark.parametrize("name", sorted(_LAZY_SYSTEMS))
def test_wedge_report_does_not_sweep_the_orbit(monkeypatch, name):
    """Saturating a wedge and building its report evaluate no orbit point
    (neither `elements` nor `sweep`) and no closed form's bounds: the report
    reads the generator count, `pointed`, the closed form and `Wedge.dim`,
    none of which needs the sweep.  The first read of the cone's generators
    evaluates the orbit once, and a second read reuses it."""
    calls = []
    for cls, attr in ((ConjugationFamily, "elements"), (ConjugationFamily, "sweep"),
                      (RotationOrbit, "contains"), (MomentCurve, "contains")):
        def counted(*args, _f=getattr(cls, attr), _name=f"{cls.__name__}.{attr}", **kwargs):
            calls.append(_name)
            return _f(*args, **kwargs)
        monkeypatch.setattr(cls, attr, counted)
    w = saturate(initial_wedge(build_system(_LAZY_SYSTEMS[name])), orbit_samples=24)
    report = cli._wedge_report(w)
    assert calls == []
    assert report["cone"]["n_generators"] == w.cone.n_generators == 1 + len(w.cone.thetas)
    assert len(w.cone.generators) == len(w.cone.generators) == w.cone.n_generators
    assert calls == ["ConjugationFamily.elements"]


def _reference_swept_stack(w: Wedge, samples: int, seed: int) -> np.ndarray:
    """The saturated cone's columns as they were built eagerly: the base and
    one sweep of its family, made orthogonal to the edge and normalized."""
    family = w.cone.analytic
    base = w.drift - w.edge.project(w.drift)
    swept = [] if family is None else family.sweep(samples, np.random.default_rng(seed))
    points = np.stack([base, *(g for _, g in swept)]).reshape(1 + len(swept), -1).T.copy()
    return wedge_module._edge_orthogonal_units(w.edge, points)


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("samples, seed", [(360, 0), (24, 5), (1, 0)])
def test_derived_stack_is_the_eager_sweep_bit_for_bit(name, samples, seed):
    """A family cone holds its family and sweep rows only; the stack it
    derives on first read is bitwise the one the base plus one eager sweep
    gave, and without a family the cone holds the base's ray."""
    w = saturate(initial_wedge(build_system(ChannelSpec(name))), orbit_samples=samples,
                 seed=seed)
    want = _reference_swept_stack(w, samples, seed)
    assert w.cone.stack.shape == want.shape
    assert w.cone.stack.tobytes() == want.tobytes()
    if w.cone.analytic is not None:
        assert w.cone.n_generators == want.shape[1]


def test_elements_agree_with_the_merged_objective_on_qubit_tori():
    """On the tori of the qubit grid (4 channels, 7 control-axis sets, drift
    none, x, y or z; 48 of them), the stacked-eigh `elements` and the merged
    trigonometric polynomial `_objective` give the same <element(theta), D>
    to 1e-13 |D|, at 5 thetas drawn across each box and a random D each."""
    rng = np.random.default_rng(19)
    families = []
    for channel in ("bit_flip", "phase_flip", "bit_phase_flip", "depolarizing"):
        for axes in ("x", "y", "z", "xy", "xz", "yz", "xyz"):
            for drift in (None, "x", "y", "z"):
                spec = ChannelSpec(channel, control_axes=tuple(axes), drift_axis=drift)
                family = saturate(initial_wedge(build_system(spec)), orbit_samples=1).cone.analytic
                if family is not None and family.kind == "torus":
                    families.append(family)
    assert len(families) == 48
    for family in families:
        thetas = rng.uniform(size=(5, family.n_params)) * np.asarray(family.periods)
        d = rng.normal(size=family.base.shape)
        by_elements = np.sum(family.elements(thetas) * d, axis=(1, 2))
        assert np.max(np.abs(by_elements - family._objective(d)(thetas))) <= 1e-13 * fro(d)


def _z_pair_system(ratio: float) -> ControlSystem:
    """Two qubits without drift, one control (z1 + ratio 1z) / 2, and
    lindblad x1 at rate 1.0 and 1x at rate 0.5."""
    control = (two_qubit_operator("z1") + ratio * two_qubit_operator("1z")) / 2.0
    return ControlSystem(rep="two_qubit", drift_H=np.zeros((4, 4)), controls=(control,),
                         lindblad_ops=((two_qubit_operator("x1"), 1.0),
                                       (two_qubit_operator("1x"), 0.5)))


def test_commensurate_torus_wedge_holds_its_whole_orbit():
    """(z1 + 3 1z) / 2 has commensurate frequencies but its largest
    eigenphase, the box of the per-seed rule, gave half the true period
    (14.05 of 28.10): the wedge "converged" while rejecting about half of
    its own orbit points over [0, 50 P).  The box from the frequency table
    is a period, and every orbit point is a member."""
    w = saturate(initial_wedge(_z_pair_system(3.0)), orbit_samples=180)
    fam = w.cone.analytic
    thetas = np.random.default_rng(1).uniform(0.0, 50.0 * fam.periods[0], 200)
    assert sum(wedge_contains(w, fam.element([t])) for t in thetas) == 200
    assert w.saturation["converged"] and fam.periodic
    assert fro(fam.element(fam.periods) - fam.base) <= 1e-12 * max(1.0, fro(fam.base))


def test_aperiodic_torus_is_left_undecided():
    """(z1 + sqrt(2) 1z) / 2 has rationally independent frequencies, so no
    box is a period and no sweep of one decides the orbit's closure: the
    saturation ends unconverged at its fixed point."""
    w = saturate(initial_wedge(_z_pair_system(np.sqrt(2.0))), orbit_samples=180)
    assert (w.saturation["converged"], w.saturation["termination"]) == (False, "aperiodic-torus")
    assert w.saturation["edge_dims"] == [1, 1] and w.saturation["novel_counts"][-1] == 0
    assert w.cone.analytic.kind == "torus" and not w.cone.analytic.periodic
