"""Lie closures of generator sets and controllability condition checks.

The closure routine works on real matrices, in the coordinate space of
`matcore`; `check_conditions` hands it the real Pauli transfer matrices of
a system's generators, so a system algebra lives in the N^2 x N^2 real
matrices.  The closure builds Lie(S) from right-nested brackets
[s1, [s2, [..., sk]]] of the generators: each round brackets only the
directions the previous round added against an orthonormal basis of
span(S), all in one broadcast `matcore.comm` call, a single BLAS matmul.
The same loop, given another bracket set, closes a subspace under its
brackets; `wedge.lineality` gets the linear span of an orbit that way.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .lindblad import ControlSystem, ham_drift_direction, ptm_directions, ptm_rep
from .matcore import Subspace, _columns, _real, comm, orthonormal_span, svd


def lie_closure(gens, tol: float = 1e-9, by=None) -> Subspace:
    """Smallest real Lie algebra containing `gens`, as a `Subspace`; given a
    bracket set `by`, the smallest subspace containing `gens` that is closed
    under [s, .] for every s in `by`.

    By the Jacobi identity Lie(S) is spanned by the right-nested brackets
    of the generators, so it is the smallest subspace containing S that is
    invariant under ad_s for every s in S; `by=None` therefore brackets with
    an orthonormal basis of span(S).  Either way, each round brackets only
    the previous round's new directions (the frontier) against the bracket
    set, in one broadcast `comm` call, keeps components orthogonal to the
    current basis, and stops when a round yields nothing new; its SVDs fall
    back to gesvd where gesdd does not converge (`matcore.svd`).  A round
    holds |frontier| * |bracket set| brackets at once, and the frontier is
    never larger than the real dimension of the ambient matrix space; on
    the two-qubit systems the largest round of `check_conditions` is 55 x 3
    real 16 x 16 brackets, 0.34 MB per array.  Every productive round adds
    at least one orthonormal column, so there are at most as many rounds as
    that real dimension.
    `tol` must be positive and finite (`orthonormal_span` checks it), the
    generators real, and `by` a real stack of matrices of the shape of
    `gens`; anything else raises ValueError.
    """
    basis = orthonormal_span(gens, tol=tol)
    if by is not None:
        by = _real(by, "a bracket matrix")
        if by.size and by.shape[-2:] != basis.shape:
            raise ValueError(f"by must hold matrices of the generators' shape {basis.shape}, "
                             f"got an array of shape {by.shape}")
    if basis.dim == 0:
        return basis
    shape = basis.shape
    stack = basis.stack
    frontier = np.asarray(basis.mats)
    seeds = frontier if by is None else by.reshape(-1, *shape)

    while stack.shape[1] < stack.shape[0]:
        cols = _columns(comm(frontier[:, None], seeds[None]).reshape(-1, *shape))
        res = cols - stack @ (stack.T @ cols)
        # Never normalise a bracket before this test: a near-zero bracket is
        # pure cancellation noise and blowing it up to unit size would
        # smuggle junk directions into the closure.
        sel = np.linalg.norm(res, axis=0) > tol * np.maximum(1.0, np.linalg.norm(cols, axis=0))
        if not np.any(sel):
            break
        u, s, _ = svd(res[:, sel], full_matrices=False)
        add = u[:, s > tol * s[0]]
        # re-orthogonalise against the basis once more for numerical hygiene
        add = add - stack @ (stack.T @ add)
        keep = np.linalg.norm(add, axis=0) > 0.5
        add = add[:, keep]
        if add.shape[1] == 0:
            break
        add /= np.linalg.norm(add, axis=0)
        stack = np.concatenate([stack, add], axis=1)
        frontier = add.T.reshape(-1, *shape)

    return Subspace(stack.copy(), shape, tol)


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
        comp = svd(sub.stack, full_matrices=True)[0][:, sub.dim:].copy()
    return Subspace(comp, sub.shape, sub.tol)


@dataclass(frozen=True)
class ConditionReport:
    """Dimensions and verdicts for the controllability hierarchy.

    (H): the controls alone generate the full rotation/unitary algebra.
    (WH): controls plus the drift Hamiltonian do, but the controls alone
    do not.  (A): drift plus controls generate the full general linear
    algebra of the traceless sector, i.e. accessibility.

    `kc`, `kd` and `s` are the closures of those generator sets as real
    subspaces of Pauli transfer matrices (see `lindblad.ptm_rep`), N^2 x N^2
    on a qubit or two-qubit system, and of the 3 x 3 generators themselves
    on r3.  `dim_target_k` is N^2 - 1, the dimension of su(N) (so(3) on
    r3).  `dim_target_s` is (N^2 - 1)^2 on a unital system, that of the
    general linear algebra of the traceless sector (9 on r3).  A
    non-unital jump adds the identity-to-traceless column of the transfer
    matrix, and the target becomes the trace-preserving algebra of
    N^2 (N^2 - 1) dimensions: the amplitude-damping qubit reads 12 against
    12, and `holds_A` is true.
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
    """Evaluate conditions (H), (WH) and (A) for a control system.

    The closures run on the real Pauli transfer matrices of the generators,
    the cached `ptm_directions` and the transfer matrix of the Hamiltonian
    drift.  T = W^H L W with W unitary maps superoperator brackets to
    transfer-matrix brackets and keeps Frobenius norms, so every dimension
    is that of the closure of the superoperators; see `ConditionReport` for
    the carrier of `kc`, `kd` and `s`.  The system counts as non-unital,
    with the trace-preserving target, when a drift or control transfer
    matrix has an identity column below its entry 0 of norm above `tol`
    times max(1, its norm).

    Each target is also a ceiling: the algebra it names holds every
    generator of its closure, so a closure past it (`kc` or `kd` above
    `dim_target_k`, `s` above `dim_target_s`) is rounding noise taken for
    new directions, not a verdict.  That raises `np.linalg.LinAlgError`
    naming the closure, its dimension and the ceiling; the CLI exits 1 with
    "numerical failure".
    """
    target_k, target_s = (15, 225) if sys.rep == "two_qubit" else (3, 9)
    drift, ctrl = ptm_directions(sys)
    ctrl = list(ctrl)
    if sys.rep != "r3" and any(np.linalg.norm(m[1:, 0]) > tol * max(1.0, np.linalg.norm(m))
                               for m in (drift, *ctrl)):
        target_s = (target_k + 1) * target_k
    ham = ptm_rep(ham_drift_direction(sys))
    # without controls, kc is the zero subspace of the drift's space
    kc = (lie_closure(ctrl, tol=tol) if ctrl else
          orthonormal_span([], shape=drift.shape))
    kd = lie_closure(ctrl + [ham], tol=tol)
    s = lie_closure(ctrl + [drift], tol=tol)
    for name, sub, ceiling in (("kc", kc, target_k), ("kd", kd, target_k), ("s", s, target_s)):
        if sub.dim > ceiling:
            raise np.linalg.LinAlgError(
                f"the closure {name} reached dimension {sub.dim}, past the ceiling {ceiling} "
                f"of the algebra that holds its generators")
    holds_h = kc.dim == target_k
    return ConditionReport(
        dim_kc=kc.dim, dim_kd=kd.dim, dim_s=s.dim,
        dim_target_k=target_k, dim_target_s=target_s,
        holds_H=holds_h,
        holds_WH=(kd.dim == target_k and not holds_h),
        holds_A=(s.dim == target_s),
        kc=kc, kd=kd, s=s,
    )
