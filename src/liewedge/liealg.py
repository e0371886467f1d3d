"""Lie closures of generator sets and controllability condition checks.

The closure routine works in the realified coordinate space of `matcore`.
It builds Lie(S) from right-nested brackets [s1, [s2, [..., sk]]] of the
generators: each round brackets only the directions the previous round
added against an orthonormal basis of span(S), in batched matmuls.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .lindblad import ControlSystem, control_directions, drift_direction, ham_drift_direction
from .matcore import Subspace, orthonormal_span, realify_stack, unrealify_stack

_CHUNK = 24


def lie_closure(gens, tol: float = 1e-9) -> Subspace:
    """Smallest real Lie algebra containing `gens`, as a `Subspace`.

    By the Jacobi identity Lie(S) is spanned by the right-nested brackets
    of the generators, so it is the smallest subspace containing S that is
    invariant under ad_s for every s in S.  Each round therefore brackets
    only the previous round's new directions (the frontier) against an
    orthonormal basis of span(S), keeps components orthogonal to the
    current basis, and stops when a round yields nothing new.  Every
    productive round adds at least one orthonormal column, so there are at
    most as many rounds as the real dimension of the ambient matrix space.
    """
    gens = [np.asarray(g) for g in gens]
    basis = orthonormal_span(gens, tol=tol)
    if basis.dim == 0:
        return basis
    shape = basis.shape
    complex_field = basis.complex_field
    stack = basis.stack
    seeds = unrealify_stack(stack, shape, complex_field)
    frontier = seeds

    while stack.shape[1] < stack.shape[0]:
        new_cols = []
        for lo in range(0, frontier.shape[0], _CHUNK):
            f = frontier[lo:lo + _CHUNK]
            br = np.einsum("aij,bjk->abik", f, seeds) - np.einsum("bij,ajk->abik", seeds, f)
            br = br.reshape(-1, *shape)
            cols = realify_stack(br, shape, complex_field)
            res = cols - stack @ (stack.T @ cols)
            res_norms = np.linalg.norm(res, axis=0)
            # Never normalise a bracket before this test: a near-zero bracket
            # is pure cancellation noise and blowing it up to unit size would
            # smuggle junk directions into the closure.
            sel = res_norms > tol * np.maximum(1.0, np.linalg.norm(cols, axis=0))
            if np.any(sel):
                new_cols.append(res[:, sel])
        if not new_cols:
            break
        cand = np.concatenate(new_cols, axis=1)
        u, s, _ = np.linalg.svd(cand, full_matrices=False)
        add = u[:, s > tol * s[0]]
        # re-orthogonalise against the basis once more for numerical hygiene
        add = add - stack @ (stack.T @ add)
        keep = np.linalg.norm(add, axis=0) > 0.5
        add = add[:, keep]
        if add.shape[1] == 0:
            break
        add /= np.linalg.norm(add, axis=0)
        stack = np.concatenate([stack, add], axis=1)
        frontier = unrealify_stack(add, shape, complex_field)

    return Subspace(stack.copy(), shape, complex_field, tol)


def cartan_split(a: np.ndarray):
    """Split into (antihermitian, Hermitian) parts."""
    a = np.asarray(a)
    return (a - a.conj().T) / 2.0, (a + a.conj().T) / 2.0


def subspace_equal(a: Subspace, b: Subspace, tol: float = 1e-8) -> bool:
    if a.dim != b.dim:
        return False
    return all(b.contains(m, tol) for m in a.mats)


def subspace_leq(a: Subspace, b: Subspace, tol: float = 1e-8) -> bool:
    """True if span(a) is contained in span(b)."""
    return all(b.contains(m, tol) for m in a.mats)


def orthocomplement(sub: Subspace) -> Subspace:
    """Orthogonal complement within the full ambient matrix space."""
    if sub.dim == 0:
        comp = np.eye(sub.stack.shape[0])
    else:
        comp = np.linalg.svd(sub.stack, full_matrices=True)[0][:, sub.dim:].copy()
    return Subspace(comp, sub.shape, sub.complex_field, sub.tol)


@dataclass(frozen=True)
class ConditionReport:
    """Dimensions and verdicts for the controllability hierarchy.

    (H): the controls alone generate the full rotation/unitary algebra.
    (WH): controls plus the drift Hamiltonian do, but the controls alone
    do not.  (A): drift plus controls generate the full general linear
    algebra of the traceless sector, i.e. accessibility.
    """

    dim_kc: int
    dim_kd: int
    dim_s: int
    dim_target_k: int
    dim_target_s: int
    holds_H: bool
    holds_WH: bool
    holds_A: bool
    kc: Subspace = field(repr=False, default=None)
    kd: Subspace = field(repr=False, default=None)
    s: Subspace = field(repr=False, default=None)


def check_conditions(sys: ControlSystem, tol: float = 1e-9) -> ConditionReport:
    """Evaluate conditions (H), (WH) and (A) for a control system."""
    target_k, target_s = (15, 225) if sys.rep == "two_qubit" else (3, 9)
    ctrl = [np.asarray(c) for c in control_directions(sys)]
    ham = np.asarray(ham_drift_direction(sys))
    kc = lie_closure(ctrl, tol=tol)
    kd = lie_closure(ctrl + [ham], tol=tol)
    s = lie_closure(ctrl + [np.asarray(drift_direction(sys))], tol=tol)
    holds_h = kc.dim == target_k
    return ConditionReport(
        dim_kc=kc.dim, dim_kd=kd.dim, dim_s=s.dim,
        dim_target_k=target_k, dim_target_s=target_s,
        holds_H=holds_h,
        holds_WH=(kd.dim == target_k and not holds_h),
        holds_A=(s.dim == target_s),
        kc=kc, kd=kd, s=s,
    )
