"""Lie closures, Cartan-like splits, and controllability conditions."""

from __future__ import annotations

import numpy as np
import pytest

from liewedge.channels import (ChannelSpec, H_X, H_Y, H_Z, P_X, P_Y, P_Z,
                               build_system, sigma, sigma2, two_qubit_operator)
from liewedge.liealg import (cartan_split, check_conditions, lie_closure,
                             orthocomplement, subspace_equal, subspace_leq)
from liewedge.lindblad import ControlSystem, ad_hat, ptm_directions, ptm_rep
from liewedge.matcore import comm, orthonormal_span

RNG = np.random.default_rng(911)

E11 = np.diag([1.0, 0.0, 0.0])
GAMMA_PHASE = np.diag([1.0, 0.0, 1.0])
GAMMA_AMP = np.diag([1.0, 1.0, 2.0])


def test_rotation_generators_close_cyclically():
    assert np.allclose(comm(H_X, H_Y), H_Z)
    assert np.allclose(comm(H_Y, H_Z), H_X)
    assert np.allclose(comm(H_Z, H_X), H_Y)


def test_rotation_acts_on_relaxation_diagonals():
    assert np.allclose(comm(H_X, GAMMA_PHASE), -P_X)
    assert np.allclose(comm(H_Z, GAMMA_PHASE), P_Z)
    assert np.allclose(comm(H_Y, GAMMA_AMP), P_Y)
    assert np.allclose(comm(H_Z, P_Z), -2.0 * np.diag([1.0, -1.0, 0.0]))
    assert np.allclose(comm(H_Y, P_Y), -2.0 * np.diag([-1.0, 0.0, 1.0]))
    assert np.allclose(comm(E11, P_Z), -H_Z)


def test_closure_of_two_rotations_is_so3():
    sub = lie_closure([H_X, H_Y])
    assert sub.dim == 3
    assert sub.contains(H_Z)


def _ham(h):
    """A Hamiltonian's generator on the real carrier, its transfer matrix."""
    return ptm_rep(1j * ad_hat(h / 2.0))


def test_closure_of_qubit_pair():
    hx, hy, hz = (_ham(sigma(a)) for a in "xyz")
    assert lie_closure([hx, hy]).dim == 3
    assert lie_closure([hy, hz]).dim == 3
    assert lie_closure([hy]).dim == 1


def test_two_qubit_closure_dims():
    full = [_ham(sigma2(p)) for p in ("x1", "y1", "1x", "1y", "zz")]
    assert lie_closure(full).dim == 15
    local = [_ham(sigma2(p)) for p in ("x1", "y1", "1x", "1y")]
    assert lie_closure(local).dim == 6


@pytest.mark.parametrize("by", [None, "complex"])
def test_closure_refuses_an_imaginary_part(by):
    """Every carrier is real: a generator or bracket matrix with a nonzero
    imaginary part is refused, not read as its real part, while a complex
    dtype with zero imaginary part is read as real."""
    hx, hy = _ham(sigma("x")), _ham(sigma("y"))
    gens, brackets = [hx, 1j * hy], None
    if by is not None:
        gens, brackets = [hx], [1j * hy]
    with pytest.raises(ValueError, match="must be real, got a nonzero imaginary part"):
        lie_closure(gens, by=brackets)
    with pytest.raises(ValueError, match="a generator must be real"):
        orthonormal_span([hx, 1j * hy])
    assert lie_closure([hx, hy.astype(complex)]).dim == 3
    assert orthonormal_span([hx.astype(complex)]).dim == 1


def test_closure_rejects_empty_and_mismatched():
    with pytest.raises(ValueError):
        lie_closure([])
    with pytest.raises(ValueError):
        lie_closure([np.eye(2), np.eye(3)])


BAD_TOLS = [(float("nan"), "nan"), (float("inf"), "inf"), (0.0, "0.0"), (-1.0, "-1.0")]
TOL_ENTRY_POINTS = {
    "orthonormal_span": lambda tol: orthonormal_span([H_X, H_Y], tol=tol),
    "lie_closure": lambda tol: lie_closure([H_X, H_Y], tol=tol),
    "lie_closure_by": lambda tol: lie_closure([H_X], tol=tol, by=[H_Y]),
    "check_conditions": lambda tol: check_conditions(
        build_system(ChannelSpec("phase_flip", control_axes=("x",), drift_axis="z")), tol=tol),
    "check_conditions_without_controls": lambda tol: check_conditions(
        build_system(ChannelSpec(name="phase_flip")), tol=tol),
}


@pytest.mark.parametrize("entry", sorted(TOL_ENTRY_POINTS))
@pytest.mark.parametrize("tol, shown", BAD_TOLS)
def test_closures_reject_a_tol_that_is_not_positive_and_finite(entry, tol, shown):
    with pytest.raises(ValueError, match=f"tol must be positive and finite, got {shown}$"):
        TOL_ENTRY_POINTS[entry](tol)


@pytest.mark.parametrize("by", [[np.eye(2)], np.eye(9), np.zeros((2, 9)), [np.eye(3)[:2]]])
def test_closure_rejects_a_bracket_set_of_another_shape(by):
    with pytest.raises(ValueError, match=r"^by must hold matrices of the generators' shape"):
        lie_closure([H_X, H_Y], by=by)


def test_closure_with_an_empty_bracket_set_is_the_span():
    assert lie_closure([H_X, H_Y], by=np.zeros((0, 3, 3))).dim == 2
    assert lie_closure([H_X], by=[]).dim == 1


def test_cartan_split_reconstructs():
    a = RNG.normal(size=(4, 4))
    k, p = cartan_split(a)
    assert np.allclose(k, -k.T)
    assert np.allclose(p, p.T)
    assert np.allclose(k + p, a)


def test_subspace_comparisons():
    so3 = orthonormal_span([H_X, H_Y, H_Z], shape=(3, 3))
    plane = orthonormal_span([H_X, H_Y], shape=(3, 3))
    assert subspace_leq(plane, so3)
    assert not subspace_leq(so3, plane)
    assert subspace_equal(so3, lie_closure([H_X, H_Y]))
    assert not subspace_equal(so3, plane)


def test_orthocomplement_dimension_and_orthogonality():
    sub = orthonormal_span([H_X, H_Y], shape=(3, 3))
    perp = orthocomplement(sub)
    assert perp.dim == 9 - 2
    for g in perp.mats:
        assert abs(np.sum(g * H_X)) < 1e-12
        assert abs(np.sum(g * H_Y)) < 1e-12


CONDITION_TABLE = {
    # name -> (dim_kc, dim_kd, dim_s, holds_H, holds_WH, holds_A)
    "example1": (3, 3, 9, True, False, True),
    "example2": (1, 3, 9, False, True, True),
    "example3": (1, 3, 9, False, True, True),
    "two_qubit_A": (15, 15, 15, True, False, False),
    "two_qubit_B": (6, 15, 15, False, True, False),
    "two_qubit_C": (2, 15, 225, False, True, True),
}


def test_condition_report_reference_values():
    for name, expected in CONDITION_TABLE.items():
        rep = check_conditions(build_system(ChannelSpec(name=name)))
        got = (rep.dim_kc, rep.dim_kd, rep.dim_s,
               rep.holds_H, rep.holds_WH, rep.holds_A)
        assert got == expected, f"{name}: {got} != {expected}"


def test_conditions_of_a_system_without_controls():
    rep = check_conditions(build_system(ChannelSpec(name="phase_flip")))
    assert rep.kc.dim == 0 and rep.kc.shape == rep.s.shape == (4, 4)
    assert (rep.dim_kc, rep.dim_kd, rep.dim_s) == (0, 0, 1)
    assert not (rep.holds_H or rep.holds_WH or rep.holds_A)


def test_condition_hierarchy_h_implies_wh_never_strict():
    """holds_H demands the control-only closure already fills the target,
    in which case the drift adds nothing and WH is reported as the weaker
    non-exclusive variant."""
    for name in CONDITION_TABLE:
        rep = check_conditions(build_system(ChannelSpec(name=name)))
        assert rep.dim_kc <= rep.dim_kd <= rep.dim_target_k
        if rep.holds_H:
            assert rep.dim_kd == rep.dim_target_k


def _random_two_qubit_system(seed: int) -> ControlSystem:
    """Random Hermitian drift, control and jump operator, drawn in that
    order with `default_rng(seed)`, and a rate uniform on [0, 1)."""
    rng = np.random.default_rng(seed)

    def herm():
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        return (a + a.conj().T) / 2

    return ControlSystem("two_qubit", drift_H=herm(), controls=(herm(),),
                         lindblad_ops=((herm(), rng.uniform(0, 1)),))


# the realified complex superoperators read dim_s 512, 512 and 511 here, past
# the 240 dimensions of all trace-preserving transfer matrices
@pytest.mark.parametrize("seed", [146, 162, 223])
def test_random_unital_two_qubit_system_generates_the_225_dim_algebra(seed):
    rep = check_conditions(_random_two_qubit_system(seed))
    assert (rep.dim_kc, rep.dim_kd, rep.dim_s, rep.holds_A) == (1, 15, 225, True)


# gesdd does not converge in an SVD round of these systems' closures: seed
# 33's on the transfer matrices, seed 27's on the realified superoperators
@pytest.mark.parametrize("seed", [27, 33])
def test_conditions_survive_an_svd_round_that_gesdd_cannot_factor(seed):
    rep = check_conditions(_random_two_qubit_system(seed))
    assert (rep.dim_kc, rep.dim_kd, rep.dim_s) == (1, 15, 225)


def test_condition_subspaces_hold_real_pauli_transfer_matrices():
    sys = build_system(ChannelSpec(name="two_qubit_C"))
    rep = check_conditions(sys)
    for sub in (rep.kc, rep.kd, rep.s):
        assert sub.shape == (16, 16) and sub.stack.dtype == float
    drift, controls = ptm_directions(sys)
    assert all(rep.s.contains(m) for m in (drift, *controls))
    assert all(rep.kc.contains(m) for m in controls)


def test_amplitude_damping_qubit_meets_the_trace_preserving_target():
    """A non-unital jump puts the identity column into the drift's transfer
    matrix, so the target is the trace-preserving algebra, N^2 (N^2 - 1) =
    12 on a qubit, which the system generates; the unital target 9 read it
    as exceeded and `holds_A` false."""
    amp = ControlSystem(rep="qubit", drift_H=sigma("z") / 2, controls=(sigma("x") / 2,),
                        lindblad_ops=((np.array([[0.0, 1.0], [0.0, 0.0]]), 0.3),))
    rep = check_conditions(amp)
    assert (rep.dim_s, rep.dim_target_s, rep.holds_A) == (12, 12, True)


def test_two_qubit_decay_takes_the_trace_preserving_target():
    """Decay of the first qubit under controls x1 and 1x: target 16 * 15,
    which these two controls do not reach."""
    decay = (two_qubit_operator("x1") + 1j * two_qubit_operator("y1")) / 2
    sys = ControlSystem(rep="two_qubit", drift_H=two_qubit_operator("zz") / 2,
                        controls=(two_qubit_operator("x1") / 2, two_qubit_operator("1x") / 2),
                        lindblad_ops=((decay, 0.3),))
    rep = check_conditions(sys)
    assert (rep.dim_s, rep.dim_target_s, rep.holds_A) == (119, 240, False)


def test_a_closure_past_its_ceiling_raises_instead_of_reporting():
    """two_qubit_C with both rates scaled by 1e-3 against its unit
    Hamiltonian: rounding noise filled `s` to 256 dimensions, past the 225
    of the unital algebra that holds every generator (and past the 240 of
    the trace-preserving one), and `holds_A` read false.  A closure past its
    target is a numerical failure, named with its dimension and ceiling."""
    sys = build_system(ChannelSpec(name="two_qubit_C", rates=(1e-3, 1e-3)))
    with pytest.raises(np.linalg.LinAlgError,
                       match=r"the closure s reached dimension \d+, past the ceiling 225 "):
        check_conditions(sys)
    rep = check_conditions(build_system(ChannelSpec(name="two_qubit_C")))
    assert (rep.dim_s, rep.dim_target_s, rep.holds_A) == (225, 225, True)
