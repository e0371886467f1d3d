"""Lindblad generators, superoperator conventions, channel audits."""

from __future__ import annotations

import numpy as np
import pytest

from liewedge.lindblad import (ControlSystem, Superop, ad_hat, choi_matrix,
                               coherence_rep, control_directions, cptp_audit,
                               drift_direction, gks_dissipator,
                               gks_term, is_trace_preserving, is_unital,
                               lindbladian, pauli_basis, propagator,
                               superop_from_coherence, unvec, vec)
from liewedge.channels import sigma, sigma_hat
from liewedge.matcore import expm, fro

RNG = np.random.default_rng(4251)


def _random_hermitian(n: int, rng=RNG) -> np.ndarray:
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (m + m.conj().T) / 2.0


def _random_density(n: int, rng=RNG) -> np.ndarray:
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    rho = m @ m.conj().T
    return rho / np.trace(rho)


def test_vec_is_column_stacking():
    m = np.arange(4.0).reshape(2, 2)
    assert np.allclose(vec(m), [0.0, 2.0, 1.0, 3.0])
    assert np.allclose(unvec(vec(m), 2), m)


def test_ad_hat_acts_as_commutator():
    h = _random_hermitian(4)
    rho = _random_density(4)
    lhs = unvec(np.asarray(ad_hat(h).matrix) @ vec(rho), 4)
    assert np.allclose(lhs, h @ rho - rho @ h, atol=1e-12)


def test_gks_term_acts_as_dissipator():
    v = _random_hermitian(2)
    rho = _random_density(2)
    out = unvec(np.asarray(gks_term(v, 0.7)) @ vec(rho), 2)
    direct = 0.7 * (v @ rho @ v.conj().T
                    - 0.5 * (v.conj().T @ v @ rho + rho @ v.conj().T @ v))
    # generator convention: rho_dot = -L rho, dissipation enters positively
    assert np.allclose(out, -direct, atol=1e-12)


def test_gks_dissipator_pauli_square_identity():
    for axis in "xyz":
        gamma = 0.37
        d = gks_dissipator(((sigma(axis), gamma),))
        shat = sigma_hat(axis)
        assert np.max(np.abs(np.asarray(d) - 2.0 * gamma * (shat @ shat))) < 1e-12


def test_lindbladian_combines_drift_controls_noise():
    sys = ControlSystem(rep="qubit", drift_H=sigma("z") / 2.0,
                        controls=(sigma("x") / 2.0,),
                        lindblad_ops=((sigma("z") / 2.0, 0.4),))
    l0 = np.asarray(lindbladian(sys).matrix)
    l1 = np.asarray(lindbladian(sys, (2.0,)).matrix)
    control = np.asarray(1j * np.asarray(ad_hat(sigma("x") / 2.0).matrix))
    assert np.allclose(l1 - l0, 2.0 * control, atol=1e-12)


def test_propagator_is_cptp_and_unital():
    sys = ControlSystem(rep="qubit", drift_H=sigma("z") / 2.0,
                        controls=(), lindblad_ops=((sigma("x") / 2.0, 0.3),))
    t = propagator(lindbladian(sys), 0.9)
    audit = cptp_audit(t)
    assert audit["is_tp"] and audit["is_cp"]
    assert is_trace_preserving(t)
    assert is_unital(t)


def test_choi_of_identity_is_maximally_entangled():
    ident = Superop(matrix=np.eye(4, dtype=complex), rep="qubit")
    c = choi_matrix(ident)
    w, _ = np.linalg.eigh(np.asarray(c))
    assert np.allclose(np.sort(w), [0.0, 0.0, 0.0, 2.0], atol=1e-12)


def test_coherence_rep_round_trip():
    sys = ControlSystem(rep="qubit", drift_H=sigma("y") / 2.0,
                        controls=(), lindblad_ops=((sigma("z") / 2.0, 0.2),))
    l = lindbladian(sys)
    small = coherence_rep(l)
    back = superop_from_coherence(small, "qubit")
    assert np.max(np.abs(np.asarray(back.matrix) - np.asarray(l.matrix))) < 1e-10


def test_coherence_rep_of_hamiltonian_is_antisymmetric():
    h = _random_hermitian(2)
    l = Superop(matrix=np.asarray((1j * np.asarray(ad_hat(h).matrix))),
                rep="qubit")
    m = coherence_rep(l)
    assert np.max(np.abs(m + m.T)) < 1e-10


def test_pauli_basis_orthogonality():
    basis = pauli_basis(2)
    assert len(basis) == 3
    for i, a in enumerate(basis):
        for j, b in enumerate(basis):
            val = np.real(np.trace(a.conj().T @ b))
            assert np.isclose(val, 1.0 if i == j else 0.0, atol=1e-12)
    assert len(pauli_basis(4)) == 15


def test_control_system_validates_r3_inputs():
    skew = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    with pytest.raises(ValueError):
        ControlSystem(rep="r3", drift_H=np.eye(3), controls=(),
                      lindblad_ops=())
    with pytest.raises(ValueError):
        ControlSystem(rep="r3", drift_H=skew, controls=(),
                      lindblad_ops=((np.diag([1.0, 0.0, 0.0]), -0.5),))
    sys = ControlSystem(rep="r3", drift_H=skew, controls=(skew,),
                        lindblad_ops=((np.diag([1.0, 0.0, 1.0]), 1.0),))
    assert sys.n_controls == 1


def test_control_system_validates_hermiticity():
    bad = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    with pytest.raises(ValueError):
        ControlSystem(rep="qubit", drift_H=bad, controls=(), lindblad_ops=())


def test_closed_system_preserves_purity():
    h = _random_hermitian(2)
    sys = ControlSystem(rep="qubit", drift_H=h, controls=(), lindblad_ops=())
    t = np.asarray(propagator(lindbladian(sys), 1.3).matrix)
    rho = _random_density(2)
    out = unvec(t @ vec(rho), 2)
    assert abs(np.trace(out @ out) - np.trace(rho @ rho)) < 1e-10


@pytest.mark.parametrize("rep", ["qubit", "r3"])
def test_control_system_stores_read_only_copies(rep):
    if rep == "qubit":
        h, c, v = sigma("z") / 2.0, sigma("x") / 2.0, sigma("z") / 2.0
    else:
        h = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        c, v = h.T.copy(), np.diag([1.0, 0.0, 1.0])
    sys = ControlSystem(rep=rep, drift_H=h, controls=(c,), lindblad_ops=((v, 0.4),))
    before = np.array(lindbladian(sys, (0.3,)).matrix)
    for theirs, ours in ((h, sys.drift_H), (c, sys.controls[0]),
                         (v, sys.lindblad_ops[0][0])):
        assert not np.shares_memory(theirs, ours)
        assert not ours.flags.writeable
    h[0, 1] = c[0, 1] = v[0, 0] = 7.0
    assert np.array_equal(np.asarray(lindbladian(sys, (0.3,)).matrix), before)
    for cached in (sys.drift_H, drift_direction(sys).matrix,
                   control_directions(sys)[0].matrix):
        with pytest.raises(ValueError):
            cached[0, 0] = 1.0
    assert lindbladian(sys, (0.3,)).matrix.flags.writeable


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_control_system_rejects_non_finite_numbers(bad):
    z = np.diag([0.5, -0.5]).astype(complex)
    x = np.array([[0.0, 0.5], [0.5, 0.0]], dtype=complex)
    poisoned = z.copy()
    poisoned[0, 0] = bad
    with pytest.raises(ValueError, match="drift has non-finite entries"):
        ControlSystem(rep="qubit", drift_H=poisoned, controls=())
    with pytest.raises(ValueError, match="control has non-finite entries"):
        ControlSystem(rep="qubit", drift_H=z, controls=(poisoned,))
    with pytest.raises(ValueError, match="noise operator has non-finite entries"):
        ControlSystem(rep="qubit", drift_H=z, controls=(x,),
                      lindblad_ops=((poisoned, 0.4),))
    with pytest.raises(ValueError, match="non-finite rate"):
        ControlSystem(rep="qubit", drift_H=z, controls=(x,),
                      lindblad_ops=((z, bad),))
    skew = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    with pytest.raises(ValueError, match="non-finite rate"):
        ControlSystem(rep="r3", drift_H=skew, controls=(),
                      lindblad_ops=((np.diag([1.0, 0.0, 1.0]), bad),))


@pytest.mark.parametrize("t", [np.nan, np.inf, -1.0])
def test_propagator_rejects_bad_times(t):
    z = np.diag([0.5, -0.5]).astype(complex)
    sys = ControlSystem(rep="qubit", drift_H=z, controls=())
    with pytest.raises(ValueError, match="time must be nonnegative and finite"):
        propagator(lindbladian(sys), t)


@pytest.mark.parametrize("rep, n, control", [
    ("qubit", 2, np.eye(3)),
    ("two_qubit", 4, np.eye(2)),
    ("r3", 3, np.array([[0.0, 1.0], [-1.0, 0.0]])),
])
def test_control_system_rejects_misshaped_controls(rep, n, control):
    drift = np.zeros((n, n))
    with pytest.raises(ValueError, match=f"control must be {n}x{n} for rep '{rep}'"):
        ControlSystem(rep=rep, drift_H=drift, controls=(np.zeros((n, n)), control))


@pytest.mark.parametrize("v", [np.diag([1.0, 2.0]), np.ones((3, 1)), np.eye(4)])
def test_control_system_rejects_misshaped_relaxation_generators(v):
    skew = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    with pytest.raises(ValueError, match="relaxation generator must be 3x3"):
        ControlSystem(rep="r3", drift_H=skew, controls=(), lindblad_ops=((v, 1.0),))
