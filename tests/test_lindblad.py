"""Lindblad generators, superoperator conventions, channel audits and the
Lindblad-Kossakowski margin."""

from __future__ import annotations

import re

import numpy as np
import pytest

from liewedge.lindblad import (ControlSystem, ad_hat, choi_matrix, cptp_audit,
                               gks_dissipator, gks_margin, gks_term,
                               is_trace_preserving, is_unital, lindbladian,
                               pauli_basis, propagator, ptm_directions, ptm_rep,
                               superop_from_ptm, unvec, vec)
from liewedge.channels import H_Z, sigma, sigma_hat
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
    lhs = unvec(ad_hat(h) @ vec(rho), 4)
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
    l0 = lindbladian(sys)
    l1 = lindbladian(sys, (2.0,))
    control = 1j * ad_hat(sigma("x") / 2.0)
    assert np.allclose(l1 - l0, 2.0 * control, atol=1e-12)


def test_propagator_is_cptp_and_unital():
    sys = ControlSystem(rep="qubit", drift_H=sigma("z") / 2.0,
                        controls=(), lindblad_ops=((sigma("x") / 2.0, 0.3),))
    t = propagator(lindbladian(sys), 0.9)
    audit = cptp_audit(t)
    assert audit["is_tp"] and audit["is_cp"]
    assert is_trace_preserving(t)
    assert is_unital(t)


@pytest.mark.parametrize("audit", [choi_matrix, is_trace_preserving, is_unital, cptp_audit])
@pytest.mark.parametrize("shape", [(3, 3), (5, 5), (4, 16), (16, 4)])
def test_channel_audits_reject_a_non_superoperator_shape(audit, shape):
    """Every audit checks the shape before it multiplies by vec(I)."""
    with pytest.raises(ValueError, match=re.escape(f"not a superoperator matrix: shape {shape}")):
        audit(np.eye(*shape))


def test_channel_audits_accept_a_qutrit_superoperator():
    ident = np.eye(9, dtype=complex)
    audit = cptp_audit(ident)
    assert audit["is_tp"] and audit["is_cp"]
    assert is_trace_preserving(ident) and is_unital(ident)
    assert choi_matrix(ident).shape == (9, 9)


@pytest.mark.parametrize("count", [1, 2, 7])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_stacked_cptp_audit_is_bitwise_each_single_call(n, count):
    """A (k, N^2, N^2) stack gives per-slice arrays whose entries equal the
    single-matrix call's floats and bools bit for bit, on channels of
    random generators, perturbed ones and rescaled ones."""
    rng = np.random.default_rng(10 * n + count)
    mats = []
    for j in range(count):
        v = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        gen = 1j * ad_hat(_random_hermitian(n, rng)) + gks_term(v, rng.uniform(0.0, 1.0))
        ch = expm(-rng.uniform(0.1, 2.0) * gen)
        if j % 3 == 1:
            ch = ch + 1e-3 * rng.normal(size=ch.shape)
        elif j % 3 == 2:
            ch = ch * 10.0 ** rng.uniform(-3.0, 3.0)
        mats.append(ch)
    got = cptp_audit(np.stack(mats))
    for j, m in enumerate(mats):
        want = cptp_audit(m)
        assert list(got) == list(want)
        for key, value in want.items():
            assert type(value) is (bool if key.startswith("is_") else float)
            assert got[key].shape == (count,)
            assert got[key][j].item() == value
            assert got[key][j].tobytes() == np.array(value, dtype=got[key].dtype).tobytes()


@pytest.mark.parametrize("shape", [(2, 4, 3), (2, 5, 5), (0, 3, 3)])
def test_stacked_cptp_audit_rejects_a_stack_of_no_carrier(shape):
    with pytest.raises(ValueError, match=re.escape(
            f"not a stack of superoperator matrices: shape {shape}")):
        cptp_audit(np.zeros(shape))


def test_choi_of_identity_is_maximally_entangled():
    ident = np.eye(4, dtype=complex)
    c = choi_matrix(ident)
    w, _ = np.linalg.eigh(np.asarray(c))
    assert np.allclose(np.sort(w), [0.0, 0.0, 0.0, 2.0], atol=1e-12)


@pytest.mark.parametrize("n", [2, 4])
def test_ptm_of_a_hamiltonian_is_antisymmetric(n):
    """i ad(h) generates a rotation of the coherence vector: its transfer
    matrix is antisymmetric and leaves the identity entry alone."""
    t = ptm_rep(1j * ad_hat(_random_hermitian(n)))
    assert np.max(np.abs(t + t.T)) < 1e-10
    assert np.max(np.abs(t[0])) < 1e-12 and np.max(np.abs(t[:, 0])) < 1e-12


def test_propagator_reads_the_carrier_from_the_shape():
    """An r3 generator is a bare 3x3 array; the propagator needs no tag."""
    assert np.array_equal(propagator(H_Z, 0.5), expm(-0.5 * H_Z))
    sys = ControlSystem(rep="two_qubit", drift_H=np.diag([1.0, -1.0, 0.5, -0.5]),
                        controls=())
    l = lindbladian(sys)
    assert np.array_equal(propagator(l, 0.5), expm(-0.5 * l))


@pytest.mark.parametrize("shape", [(3, 3), (4, 3, 3), (2, 1, 3, 3), (9, 9), (4, 16),
                                   (15, 15), (2, 9, 9), (3, 4, 16), (16,), (3,)])
def test_transfer_maps_pass_r3_through_and_refuse_other_shapes(shape):
    """An r3 generator, or a stack of them, is its own transfer matrix, so
    `ptm_rep` and `superop_from_ptm` return it unchanged; a shape of no
    carrier raises in both."""
    m = np.random.default_rng(len(shape)).normal(size=shape)
    if shape[-2:] == (3, 3):
        for fn in (ptm_rep, superop_from_ptm):
            got = fn(m)
            assert got.shape == m.shape and got.dtype == m.dtype
            assert got.tobytes() == m.tobytes()
        return
    with pytest.raises(ValueError, match=re.escape(
            f"no qubit or two-qubit superoperator has shape {shape}; "
            f"expected 4x4 or 16x16, or a stack of them")):
        ptm_rep(m)
    with pytest.raises(ValueError, match=re.escape(
            f"no qubit or two-qubit transfer matrix has shape {shape}; "
            f"expected 4x4 or 16x16, or a stack of them")):
        superop_from_ptm(m)


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
    t = propagator(lindbladian(sys), 1.3)
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
    before = np.array(lindbladian(sys, (0.3,)))
    for theirs, ours in ((h, sys.drift_H), (c, sys.controls[0]),
                         (v, sys.lindblad_ops[0][0])):
        assert not np.shares_memory(theirs, ours)
        assert not ours.flags.writeable
    h[0, 1] = c[0, 1] = v[0, 0] = 7.0
    assert np.array_equal(lindbladian(sys, (0.3,)), before)
    drift_t, controls_t = ptm_directions(sys)
    for cached in (sys.drift_H, drift_t, controls_t, controls_t[0]):
        with pytest.raises(ValueError):
            cached[0, 0] = 1.0
    assert lindbladian(sys, (0.3,)).flags.writeable


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


@pytest.mark.parametrize("x, want", [
    (np.diag([1.0, 1.0, 2.0]), 0.0),
    (np.diag([1.0, 1.0, 3.0]), -1.0 / np.sqrt(11.0)),
    (H_Z + np.eye(3), 1.0 / np.sqrt(5.0)),
    (np.eye(3) + 0.5j * np.diag([1.0, 0.0, 0.0]), -0.5 / np.sqrt(3.25)),
])
def test_gks_margin_on_the_r3_carrier(x, want):
    """min(r_j + r_k - r_i) over the rates r of the symmetric part, or minus
    the norm of an imaginary part, over max(1, |x|); the rotation H_Z
    moves nothing."""
    assert abs(gks_margin(x) - want) <= 1e-15


def test_gks_margin_of_dephasing_and_its_negative():
    """Dephasing at rate 1 (V = sigma_z / sqrt(2)) puts |vec V|^2 = 1 on the
    Choi matrix off vec(I) and nothing else, so the margin is 0 with a
    Hamiltonian added and -1 / |x| for the negated generator."""
    x = gks_term(sigma("z") / np.sqrt(2.0), 1.0) + 1j * ad_hat(sigma("x"))
    assert abs(gks_margin(x)) <= 1e-15
    assert abs(gks_margin(-x) + 1.0 / fro(x)) <= 1e-15
