"""Acceptance gates: one pass/fail line per numbered criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the CRITERION
lines as they complete.  Each gate asserts the documented tolerance, so a
FAIL line always comes with a failing test.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

import numpy as np
import pytest

from liewedge.channels import (ChannelSpec, H_X, H_Y, H_Z, P_X, P_Y, P_Z,
                               build_system, example1, example2, example3,
                               example3_delta, k_component, kraus_family,
                               kraus_rank, kraus_superop, p_component, sigma,
                               sigma2, sigma_hat, sigma_hat2,
                               two_qubit_generator_parts,
                               two_qubit_wedge_generators)
from liewedge.cli import main as cli_main
from liewedge.liealg import lie_closure, subspace_equal
from liewedge.lindblad import (ControlSystem, ad_hat, cptp_audit, gks_dissipator,
                               lindbladian, propagator, ptm_rep)
from liewedge.matcore import comm, expm, fro, inner, orthonormal_span
from liewedge.reachable import Schedule, contraction_audit, propagate, steer
from liewedge.semialgebra import (bch_witness, orbit_wedge, semialgebra_case,
                                  semialgebra_probe)
from liewedge.wedge import (cone_contains, dual_cone_margin, initial_wedge,
                            majorized, saturate, wedge_contains)

RNG_SEED = 20260825

E11 = np.diag([1.0, 0.0, 0.0])
E22 = np.diag([0.0, 1.0, 0.0])
E33 = np.diag([0.0, 0.0, 1.0])
D23 = E22 - E33
D31 = E33 - E11
D12 = E11 - E22

GAMMA1 = np.diag([3.0, 2.0, 1.0])
GAMMA2 = np.diag([1.0, 0.0, 1.0])
GAMMA3 = np.diag([1.0, 1.0, 2.0])


@contextmanager
def gate(number: int):
    try:
        yield
    except BaseException:
        print(f"CRITERION {number}: FAIL", flush=True)
        raise
    print(f"CRITERION {number}: PASS", flush=True)


@pytest.fixture(scope="module")
def wedge1():
    return saturate(initial_wedge(example1()), orbit_samples=240)


@pytest.fixture(scope="module")
def wedge2():
    return saturate(initial_wedge(example2()), orbit_samples=360)


@pytest.fixture(scope="module")
def wedge3():
    return saturate(initial_wedge(example3()), orbit_samples=360)


def _so3_rotation(rng: np.random.Generator) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, [0, 1]] = q[:, [1, 0]]
    return q


def test_criterion_01_commutation_table():
    """All 18 displayed brackets of the rotation/relaxation carrier."""
    table = [
        (H_X, E11, np.zeros((3, 3))), (H_X, E22, P_X), (H_X, E33, -P_X),
        (H_X, P_X, -2.0 * D23), (H_X, P_Y, -P_Z), (H_X, P_Z, P_Y),
        (H_Y, E11, -P_Y), (H_Y, E22, np.zeros((3, 3))), (H_Y, E33, P_Y),
        (H_Y, P_X, P_Z), (H_Y, P_Y, -2.0 * D31), (H_Y, P_Z, -P_X),
        (H_Z, E11, P_Z), (H_Z, E22, -P_Z), (H_Z, E33, np.zeros((3, 3))),
        (H_Z, P_X, -P_Y), (H_Z, P_Y, P_X), (H_Z, P_Z, -2.0 * D12),
    ]
    with gate(1):
        start = time.monotonic()
        assert len(table) == 18
        for h, x, expected in table:
            assert np.max(np.abs(comm(h, x) - expected)) <= 1e-14
        assert time.monotonic() - start < 1.0


def test_criterion_02_controllability_dimensions():
    with gate(2):
        start = time.monotonic()
        assert lie_closure([H_X, H_Y]).dim == 3
        assert lie_closure([H_Y, H_Z]).dim == 3
        assert lie_closure([H_Y]).dim == 1
        # su(4) through its faithful adjoint action, as real transfer matrices
        def ham(h):
            return ptm_rep(1j * ad_hat(h / 2.0))

        full = [ham(sigma2(p)) for p in ("x1", "y1", "1x", "1y", "zz")]
        assert lie_closure(full).dim == 15
        local = [ham(sigma2(p)) for p in ("x1", "y1", "1x", "1y")]
        assert lie_closure(local).dim == 6
        damped = [ham(sigma2(p)) for p in ("y1", "1y")]
        damped.append(ham(sum(sigma2(p) for p in ("z1", "1z", "zz"))))
        assert lie_closure(damped).dim == 15
        assert time.monotonic() - start < 10.0


def test_criterion_03_example1_saturation_vs_spectral_oracle(wedge1):
    with gate(3):
        start = time.monotonic()
        assert wedge1.saturation["converged"]
        so3 = orthonormal_span([H_X, H_Y, H_Z], shape=(3, 3))
        assert subspace_equal(wedge1.edge, so3)

        rng = np.random.default_rng(RNG_SEED)
        rates = np.array([3.0, 2.0, 1.0])

        def oracle(s: np.ndarray) -> bool:
            tr = float(np.trace(s))
            return tr > 1e-9 and majorized(s, tr / rates.sum() * rates)

        disagreements = 0
        for k in range(1000):
            if k % 3 == 0:   # conic combination of orbit points (member)
                s = sum(rng.uniform(0.2, 1.0)
                        * (q := _so3_rotation(rng)) @ GAMMA1 @ q.T
                        for _ in range(rng.integers(1, 4)))
            elif k % 3 == 1:  # extreme ray of the orbit hull
                q = _so3_rotation(rng)
                s = rng.uniform(0.3, 2.0) * q @ GAMMA1 @ q.T
            else:             # generic symmetric matrix (almost never member)
                s = rng.normal(size=(3, 3))
                s = (s + s.T) / 2.0
            disagreements += int(cone_contains(wedge1.cone, s) != oracle(s))
        assert disagreements <= 1  # 1e-3 disagreement budget on 10^3 draws
        assert time.monotonic() - start < 30.0


def test_criterion_04_example2_generators_and_figdata(wedge2, capsys):
    with gate(4):
        assert wedge2.saturation["converged"]
        assert wedge2.edge.dim == 1 and wedge2.dim == 4
        basis = (H_X / fro(H_X), H_Z / fro(H_Z), GAMMA2 / fro(GAMMA2))
        for g in wedge2.cone.generators:
            assert abs(inner(g, H_Y)) <= 1e-12
            chx, chz, cg = (inner(g, b) for b in basis)
            rec = chx * basis[0] + chz * basis[1] + cg * basis[2]
            assert fro(g - rec) <= 1e-10
            assert cg > 0
            # coordinates proportional to (sin, cos, 1) in the raw basis
            assert abs(np.hypot(chx, chz) - cg) <= 1e-10

        for fig, names in (("2a", ("c_Hx", "c_Hz")), ("2b", ("c_Hy", "c_Hz"))):
            assert cli_main(["figdata", fig, "--theta-steps", "360"]) == 0
            lines = capsys.readouterr().out.strip().splitlines()
            assert len(lines) == 361
            for row in lines[1:]:
                vals = [float(v) for v in row.split(",")]
                theta = vals[0]
                expect = {"c_Hx": np.sin(theta), "c_Hz": np.cos(theta),
                          "c_Hy": 0.0}
                assert abs(vals[1] - expect[names[0]]) <= 1e-12
                assert abs(vals[2] - expect[names[1]]) <= 1e-12
                assert abs(vals[3] - 1.0) <= 1e-12


def test_criterion_05_example3_cone_span_and_expansion(wedge3):
    with gate(5):
        assert wedge3.saturation["converged"]
        assert wedge3.cone.span().dim == 5
        delta = example3_delta()
        rng = np.random.default_rng(RNG_SEED + 5)
        worst12 = worst6 = 0.0
        for theta in rng.uniform(0.0, 2.0 * np.pi, size=100):
            u = expm(theta * np.asarray(H_Y))
            direct = u @ (H_Z + GAMMA3) @ u.T
            common = (np.sin(theta) * H_X + np.cos(theta) * H_Z
                      + 0.5 * np.sin(2.0 * theta) * P_Y
                      + 0.5 * (1.0 - np.cos(2.0 * theta)) * delta)
            curve12 = common + (11.0 + np.cos(2.0 * theta)) / 12.0 * GAMMA3
            curve6 = common + (11.0 + np.cos(2.0 * theta)) / 6.0 * GAMMA3
            worst12 = max(worst12, fro(direct - curve12))
            worst6 = max(worst6, fro(direct - curve6))
        assert worst12 <= 1e-12   # the /12 coefficient is the correct one
        assert worst6 > 1e-2      # the /6 variant is visibly wrong


def test_criterion_06_dissipator_and_conjugation_closed_forms():
    with gate(6):
        for axis in "xyz":
            d = np.asarray(gks_dissipator(((sigma(axis), 0.37),)))
            sh = np.asarray(sigma_hat(axis))
            assert np.max(np.abs(d - 2.0 * 0.37 * (sh @ sh))) <= 1e-12

        rng = np.random.default_rng(RNG_SEED + 6)
        axis_sets = ([("z", 0.4)], [("x", 0.3), ("z", 0.5)],
                     [("x", 0.3), ("y", 0.2), ("z", 0.5)])
        for _ in range(100):
            theta = rng.uniform(-2.0 * np.pi, 2.0 * np.pi)
            c = rng.choice(list("xyz"))
            u = expm(-1j * theta * np.asarray(sigma_hat(c)))
            ui = np.conj(u.T)
            for d in "xyz":
                direct = u @ (1j * np.asarray(sigma_hat(d))) @ ui
                assert np.max(np.abs(direct - k_component(c, d, theta))) <= 1e-10
            for ks in axis_sets:
                direct = u @ p_component(c, ks, 0.0) @ ui
                assert np.max(np.abs(direct - p_component(c, ks, theta))) <= 1e-10

        spec = ChannelSpec(name="two_qubit_C")
        g0 = lindbladian(build_system(spec))
        for _ in range(100):
            th, thp = rng.uniform(-np.pi, np.pi, size=2)
            u = (expm(-1j * th * np.asarray(sigma_hat2("y1")))
                 @ expm(-1j * thp * np.asarray(sigma_hat2("1y"))))
            ui = np.conj(u.T)
            parts = two_qubit_generator_parts(spec, th, thp)
            m1 = u @ np.asarray(sigma_hat2("z1")) @ ui
            m2 = u @ np.asarray(sigma_hat2("1z")) @ ui
            assert np.max(np.abs(2.0 * (m1 @ m1) - parts["P_c"])) <= 1e-10
            assert np.max(np.abs(2.0 * (m2 @ m2) - parts["P_cp"])) <= 1e-10
            total = two_qubit_wedge_generators(spec, th, thp)
            assert np.max(np.abs(u @ g0 @ ui - total)) <= 1e-10


def test_criterion_07_kraus_families():
    with gate(7):
        grid = np.linspace(0.0, 5.0, 50)
        flips = ("bit_flip", "phase_flip", "bit_phase_flip")
        for name in flips + ("depolarizing",):
            spec = ChannelSpec(name=name)
            for t in grid:
                ks = kraus_family(spec, float(t))
                total = sum(np.conj(e.T) @ e for e in ks.operators)
                assert np.max(np.abs(total - np.eye(2))) <= 1e-10
                if name in flips:
                    direct = propagator(lindbladian(build_system(spec)), float(t))
                    got = kraus_superop(ks)
                    assert np.max(np.abs(got - direct)) <= 1e-10
        for name in flips:
            channel = kraus_superop(kraus_family(ChannelSpec(name=name), 0.8))
            assert kraus_rank(channel) == 2
        depol = kraus_superop(kraus_family(ChannelSpec(name="depolarizing"), 0.8))
        assert kraus_rank(depol) == 4
        for name in flips + ("depolarizing",):
            channel = kraus_superop(kraus_family(ChannelSpec(name=name), 0.0))
            assert kraus_rank(channel) == 1


def test_criterion_08_semialgebra_suite(wedge2, wedge3):
    with gate(8):
        iso = orbit_wedge((1.0, 1.0, 1.0), hull_samples=96, seed=0)
        assert semialgebra_probe(iso, pair_samples=10000, t_grid=(1e-2,),
                                 seed=0) is None

        wit2 = bch_witness(wedge2, GAMMA2 + H_Z, GAMMA2 + H_X, t_grid=(1e-3,))
        assert wit2 is not None
        ref = (P_X + P_Z) / fro(P_X + P_Z)
        cos2 = inner(wit2.offending_component, ref) / fro(wit2.offending_component)
        assert cos2 >= 1.0 - 1e-4

        wit3 = bch_witness(wedge3, GAMMA3 + H_Z, np.asarray(H_Y),
                           t_grid=(1e-3,))
        assert wit3 is not None
        ref3 = (H_X + P_Y) / fro(H_X + P_Y)
        cos3 = inner(wit3.offending_component, ref3) / fro(wit3.offending_component)
        assert abs(cos3) >= 0.85  # partially absorbed by the curved cone

        for cid in ("i", "ii", "iii", "iv"):
            case = semialgebra_case(cid)
            assert case["tangent_matches_closed_form"]

        case2 = semialgebra_case("ii")
        expected = -np.asarray(H_Z) + np.diag([-2.0, 2.0, 0.0])
        assert np.max(np.abs(case2["witness"] - expected)) <= 1e-14


def test_criterion_09_dual_cone_eigenvalue_criterion():
    with gate(9):
        rng = np.random.default_rng(RNG_SEED + 9)
        rotations = np.stack([_so3_rotation(rng) for _ in range(10000)])
        for gamma_diag in ((1.0, 0.0, 0.0), (1.0, 1.0, 0.0), (3.0, 2.0, 1.0)):
            gamma = np.diag(gamma_diag)
            gnorm = fro(gamma)
            orbit = np.einsum("nij,jk,nlk->nil", rotations, gamma, rotations)
            flat = orbit.reshape(len(rotations), 9) / gnorm
            for _ in range(200):
                s = rng.normal(size=(3, 3))
                s = (s + s.T) / 2.0
                s /= fro(s)
                analytic = dual_cone_margin(sorted(gamma_diag, reverse=True),
                                            s) / gnorm
                mc = float(np.min(flat @ s.ravel()))
                # the sampled minimum can only sit above the true one
                assert mc >= analytic - 1e-8
                # and within the sampling resolution band of it
                assert mc <= analytic + 0.05


def test_criterion_10_cptp_and_contraction_audits():
    with gate(10):
        rng = np.random.default_rng(RNG_SEED + 10)
        for _ in range(100):
            h = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            h = (h + h.conj().T) / 2.0
            ops = []
            for _ in range(rng.integers(1, 3)):
                v = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
                v = (v + v.conj().T) / 2.0
                ops.append((v, float(rng.uniform(0.05, 1.0))))
            sys = ControlSystem(rep="qubit", drift_H=h, controls=(),
                                lindblad_ops=tuple(ops))
            gen = lindbladian(sys)
            for t in (0.1, 1.0, 10.0):
                audit = cptp_audit(propagator(gen, t))
                assert audit["is_tp"] and audit["is_cp"]

        for _ in range(20):
            h = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            h = (h + h.conj().T) / 2.0
            v = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            v = (v + v.conj().T) / 2.0
            sys = ControlSystem(rep="qubit", drift_H=h,
                                controls=(sigma("x") / 2.0,),
                                lindblad_ops=((v, float(rng.uniform(0.1, 1.0))),))
            segs = tuple((float(rng.uniform(0.05, 0.5)),
                          (float(rng.uniform(-2.0, 2.0)),))
                         for _ in range(3))
            audit = contraction_audit(sys, Schedule(segs), grid=60)
            assert audit["max_increment"] <= 1e-9

        closed = ControlSystem(rep="qubit", drift_H=sigma("z") / 2.0,
                               controls=(sigma("x") / 2.0,), lindblad_ops=())
        audit = contraction_audit(closed, Schedule(((1.0, (0.7,)),)), grid=60)
        svals = np.asarray(audit["s"])
        assert np.max(np.abs(svals - svals[0])) <= 1e-10


def test_criterion_11_steering_and_trotter():
    with gate(11):
        sys = ControlSystem(rep="qubit", drift_H=sigma("z") / 2.0,
                            controls=(sigma("x") / 2.0,),
                            lindblad_ops=((sigma("z") / 2.0, 0.4),))
        truth = Schedule(((0.37, (0.8,)),))
        target = propagate(sys, truth)
        _, dist = steer(sys, target, 1, budget=8, seed=3)
        assert dist < 1e-6

        target2 = expm(-2.0 * lindbladian(sys))
        counts = (4, 8, 16, 32)
        defects = []
        for n in counts:
            dt = 1.0 / n
            segs = [(dt / 2.0, (1.0,))]
            for k in range(n):
                segs.append((dt, (-1.0,)))
                if k < n - 1:
                    segs.append((dt, (1.0,)))
            segs.append((dt / 2.0, (1.0,)))
            total = propagate(sys, Schedule(tuple(segs)))
            defects.append(np.max(np.abs(total - target2)))
        slope = np.polyfit(np.log(1.0 / np.asarray(counts)),
                           np.log(defects), 1)[0]
        assert abs(slope - 2.0) <= 0.2
