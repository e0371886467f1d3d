"""Named channels: specs, Kraus families, conjugated-drift closed forms."""

from __future__ import annotations

import numpy as np
import pytest

from liewedge.channels import (ChannelSpec, KrausSet, build_system, eps,
                               example1, example2, example3, example3_delta,
                               k_component, kraus_family, kraus_rank,
                               kraus_superop, p_component, sigma, sigma_hat,
                               sigma_hat2, sigma2, third_axis,
                               two_qubit_generator_parts,
                               two_qubit_wedge_generators)
from liewedge.lindblad import lindbladian, propagator
from liewedge.matcore import expm

RNG = np.random.default_rng(1408)

FLIPS = ("bit_flip", "phase_flip", "bit_phase_flip")


def test_axis_helpers():
    assert eps("x", "y", "z") == 1
    assert eps("y", "x", "z") == -1
    assert eps("x", "x", "z") == 0
    assert third_axis("x", "y") == "z"
    assert third_axis("z", "x") == "y"
    with pytest.raises(ValueError):
        third_axis("x", "x")


def test_sigma_products():
    for a in "xyz":
        assert np.allclose(sigma(a) @ sigma(a), np.eye(2))
    assert np.allclose(sigma("x") @ sigma("y"), 1j * sigma("z"))
    assert np.allclose(sigma2("xy"), np.kron(sigma("x"), sigma("y")))
    with pytest.raises(ValueError):
        sigma("q")
    with pytest.raises(ValueError):
        sigma2("xyz")


def test_spec_defaults_fill_in():
    spec = ChannelSpec(name="bit_flip")
    assert spec.rates == (1.0,)
    assert spec.rep == "qubit"
    assert ChannelSpec(name="example1").rates == (3.0, 2.0, 1.0)
    assert ChannelSpec(name="example1").rep == "r3"
    assert ChannelSpec(name="two_qubit_C").rep == "two_qubit"
    with pytest.raises(ValueError):
        ChannelSpec(name="no_such_channel")
    with pytest.raises(ValueError):
        ChannelSpec(name="depolarizing", rates=(1.0,))


def test_example_systems_structure():
    s1 = example1()
    assert s1.rep == "r3" and s1.n_controls == 2
    s2 = example2()
    assert s2.n_controls == 1
    assert np.allclose(s2.lindblad_ops[0][0], np.diag([1.0, 0.0, 1.0]))
    s3 = example3()
    assert np.allclose(s3.lindblad_ops[0][0], np.diag([1.0, 1.0, 2.0]))
    assert np.allclose(example3_delta(), np.diag([7.0, 1.0, -4.0]) / 6.0)


def test_kraus_set_validates_completeness():
    e0 = np.sqrt(0.5) * np.eye(2, dtype=complex)
    with pytest.raises(ValueError):
        KrausSet(operators=(e0,), time=0.1)
    ks = KrausSet(operators=(e0, e0 @ sigma("z")), time=0.1)
    assert len(ks.operators) == 2


def test_empty_kraus_set_is_rejected():
    with pytest.raises(ValueError, match="at least one operator"):
        KrausSet(operators=(), time=0.1)


@pytest.mark.parametrize("rates", [(np.nan,), (np.inf,)])
def test_channel_spec_rejects_non_finite_rates(rates):
    with pytest.raises(ValueError, match="rates must be finite"):
        ChannelSpec(name="phase_flip", rates=rates)
    with pytest.raises(ValueError, match="rates must be finite"):
        ChannelSpec(name="depolarizing", rates=(1.0, *rates, 1.0))


@pytest.mark.parametrize("name", ["phase_flip", "depolarizing"])
@pytest.mark.parametrize("t", [np.nan, np.inf, -1.0])
def test_kraus_family_rejects_bad_times(name, t):
    with pytest.raises(ValueError, match="time must be nonnegative and finite"):
        kraus_family(ChannelSpec(name=name), t)


def test_flip_kraus_matches_generator_exponential():
    for name in FLIPS:
        spec = ChannelSpec(name=name, rates=(0.6,))
        sys = build_system(spec)
        for t in (0.0, 0.3, 2.0):
            ks = kraus_family(spec, t)
            direct = propagator(lindbladian(sys), t)
            assert np.max(np.abs(kraus_superop(ks) - direct)) < 1e-10


def test_depolarizing_kraus_matches_generator_exponential():
    spec = ChannelSpec(name="depolarizing", rates=(0.5, 0.4, 0.3))
    sys = build_system(spec)
    for t in (0.0, 0.7):
        ks = kraus_family(spec, t)
        direct = propagator(lindbladian(sys), t)
        assert np.max(np.abs(kraus_superop(ks) - direct)) < 1e-10


def test_kraus_rank_values():
    for name, expected in (("bit_flip", 2), ("phase_flip", 2),
                           ("bit_phase_flip", 2), ("depolarizing", 4)):
        spec = ChannelSpec(name=name)
        assert kraus_rank(kraus_superop(kraus_family(spec, 0.4))) == expected
        assert kraus_rank(kraus_superop(kraus_family(spec, 0.0))) == 1


def test_kraus_rank_rejects_non_cp():
    # superoperator K of the transpose map: its Choi is the swap, not PSD
    swap = np.zeros((4, 4), dtype=complex)
    for i in range(2):
        for j in range(2):
            swap[2 * i + j, 2 * j + i] = 1.0
    with pytest.raises(ValueError):
        kraus_rank(swap)


def test_k_component_closed_form():
    for _ in range(25):
        th = RNG.uniform(-2.0 * np.pi, 2.0 * np.pi)
        c, d = RNG.choice(list("xyz"), size=2)
        u = expm(-1j * th * np.asarray(sigma_hat(c)))
        direct = u @ (1j * np.asarray(sigma_hat(d))) @ np.conj(u.T)
        assert np.max(np.abs(direct - k_component(c, d, th))) < 1e-12


def test_p_component_closed_form_and_isotropic_invariance():
    ks = [("x", 0.3), ("z", 0.5)]
    for _ in range(25):
        th = RNG.uniform(-2.0 * np.pi, 2.0 * np.pi)
        c = RNG.choice(list("xyz"))
        u = expm(-1j * th * np.asarray(sigma_hat(c)))
        direct = u @ p_component(c, ks, 0.0) @ np.conj(u.T)
        assert np.max(np.abs(direct - p_component(c, ks, th))) < 1e-12
    iso = [("x", 0.7), ("y", 0.7), ("z", 0.7)]
    fixed = p_component("x", iso, 0.0)
    assert np.max(np.abs(p_component("x", iso, 1.234) - fixed)) < 1e-12


def test_p_component_validates_axes():
    with pytest.raises(ValueError):
        p_component("x", [], 0.1)
    with pytest.raises(ValueError):
        p_component("x", [("z", 1.0), ("z", 2.0)], 0.1)


def test_two_qubit_parts_sum_to_direct_conjugation():
    spec = ChannelSpec(name="two_qubit_C")
    sys = build_system(spec)
    g0 = lindbladian(sys)
    for _ in range(10):
        th, thp = RNG.uniform(-np.pi, np.pi, size=2)
        u = (expm(-1j * th * np.asarray(sigma_hat2("y1")))
             @ expm(-1j * thp * np.asarray(sigma_hat2("1y"))))
        direct = u @ g0 @ np.conj(u.T)
        parts = two_qubit_generator_parts(spec, th, thp)
        assert set(parts) == {"K_c", "K_cp", "K_ccp", "P_c", "P_cp"}
        total = two_qubit_wedge_generators(spec, th, thp)
        assert np.max(np.abs(sum(parts.values()) - total)) < 1e-12
        assert np.max(np.abs(direct - total)) < 1e-10


def test_two_qubit_parts_need_the_damped_system():
    with pytest.raises(ValueError):
        two_qubit_generator_parts(ChannelSpec(name="two_qubit_A"), 0.1, 0.2)
