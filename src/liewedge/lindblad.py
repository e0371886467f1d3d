"""Controlled Markovian generators and their superoperator representations.

A `ControlSystem` bundles a drift Hamiltonian, a list of control
Hamiltonians, and a list of weighted noise operators.  Three carrier
representations are supported:

``r3``
    Classical three-level carrier: generators are real 3x3 matrices acting
    on coherence vectors, antisymmetric parts generating rotations and
    symmetric positive-semidefinite parts generating relaxation.
``qubit`` / ``two_qubit``
    Quantum carriers on C^2 / C^4: generators are (N^2 x N^2) matrices
    acting on column-stacked density operators, built from commutator
    superoperators and GKS dissipators.

Conventions fixed here and relied on everywhere else:

* column stacking, ``vec(A X B) = (B.T otimes A) vec(X)``;
* semigroups are propagated as ``expm(-t * L)``, so a dissipative ``L``
  has positive-semidefinite Hermitian part;
* the coherence representation is the matrix of ``L`` on the traceless
  Hermitian sector with entries ``M[i, j] = <B_j, L(B_i)>`` over the
  orthonormal Pauli basis, which maps ``i * ad(sigma_z / 2)`` to the
  rotation generator about the z axis with the usual orientation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from math import isqrt

import numpy as np

from .matcore import expm, fro

SIGMA = {
    "1": np.eye(2, dtype=complex),
    "x": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    "z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}

_AXES = ("x", "y", "z")

REPS = ("r3", "qubit", "two_qubit")

_HILBERT_DIM = {"qubit": 2, "two_qubit": 4}


def pauli_basis(n: int) -> tuple:
    """Orthonormal Hermitian traceless basis of the n x n carrier.

    For ``n == 2`` this is ``sigma_k / sqrt(2)``; for ``n == 4`` it is the
    15 normalised two-qubit Pauli products (identity pair excluded).
    """
    if n == 2:
        return tuple(SIGMA[k] / np.sqrt(2.0) for k in _AXES)
    if n == 4:
        out = []
        for mu in ("1", "x", "y", "z"):
            for nu in ("1", "x", "y", "z"):
                if mu == "1" and nu == "1":
                    continue
                out.append(np.kron(SIGMA[mu], SIGMA[nu]) / 2.0)
        return tuple(out)
    raise ValueError(f"no Pauli basis for carrier dimension {n}")


def vec(a: np.ndarray) -> np.ndarray:
    """Column-stacking vectorisation."""
    return np.asarray(a).ravel(order="F")


def unvec(v: np.ndarray, n: int = None) -> np.ndarray:
    """Inverse of `vec`."""
    v = np.asarray(v)
    if n is None:
        n = isqrt(v.size)
    return v.reshape((n, n), order="F")


@dataclass(frozen=True)
class Superop:
    """A generator or channel in its matrix representation.

    For quantum reps the matrix acts on vec'd density operators and has
    shape (N^2, N^2); for ``r3`` it acts on coherence vectors directly.
    """

    matrix: np.ndarray
    rep: str

    def __array__(self, dtype=None, copy=None):
        if dtype is None:
            return self.matrix
        return self.matrix.astype(dtype)

    @property
    def hilbert_dim(self):
        return _HILBERT_DIM.get(self.rep)


def _as_matrix(op) -> np.ndarray:
    return op.matrix if isinstance(op, Superop) else np.asarray(op)


def _rep_of(op, rep: str = None) -> str:
    if rep is not None:
        return rep
    if isinstance(op, Superop):
        return op.rep
    n2 = np.asarray(op).shape[0]
    for name, n in _HILBERT_DIM.items():
        if n * n == n2:
            return name
    raise ValueError("cannot infer representation; pass rep= explicitly")


def ad_hat(h: np.ndarray, tol: float = 1e-12) -> Superop:
    """Commutator superoperator X -> [h, X] for a Hermitian h."""
    h = np.asarray(h, dtype=complex)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError(f"Hamiltonian must be square, got shape {h.shape}")
    if fro(h - h.conj().T) > tol * max(1.0, fro(h)):
        raise ValueError("Hamiltonian must be Hermitian")
    n = h.shape[0]
    eye = np.eye(n)
    m = np.kron(eye, h) - np.kron(h.T, eye)
    return Superop(matrix=m, rep=_rep_of(m))


def gks_term(v: np.ndarray, gamma: float) -> np.ndarray:
    """Single-operator dissipator, sign-matched to expm(-t L) propagation."""
    v = np.asarray(v, dtype=complex)
    n = v.shape[0]
    eye = np.eye(n)
    vdv = v.conj().T @ v
    return gamma * (0.5 * (np.kron(eye, vdv) + np.kron(vdv.T, eye)) - np.kron(v.conj(), v))


def gks_dissipator(ops) -> Superop:
    """Sum of weighted single-operator dissipators."""
    ops = list(ops)
    if not ops:
        raise ValueError("need at least one (V, gamma) pair")
    n = np.asarray(ops[0][0]).shape[0]
    total = np.zeros((n * n, n * n), dtype=complex)
    for v, gamma in ops:
        if gamma < 0:
            raise ValueError(f"negative damping rate {gamma}")
        total += gks_term(v, gamma)
    return Superop(matrix=total, rep=_rep_of(total))


def _check_skew(m: np.ndarray, what: str, tol: float = 1e-12):
    if fro(m + m.T) > tol * max(1.0, fro(m)):
        raise ValueError(f"{what} must be antisymmetric for the r3 carrier")


def _check_herm(m: np.ndarray, what: str, tol: float = 1e-12):
    if fro(m - m.conj().T) > tol * max(1.0, fro(m)):
        raise ValueError(f"{what} must be Hermitian")


def _frozen(a, dtype, what: str) -> np.ndarray:
    """Read-only copy of `a`, so later writes by the caller cannot reach it;
    raises ValueError naming `what` if an entry is NaN or infinite."""
    out = np.array(a, dtype=dtype)
    if not np.isfinite(out).all():
        raise ValueError(f"{what} has non-finite entries")
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class ControlSystem:
    """A bilinear control system u -> L_u = L_drift + sum_j u_j L_j.

    Parameters
    ----------
    rep : {"r3", "qubit", "two_qubit"}
    drift_H : Hamiltonian part of the drift (antisymmetric matrix for r3).
    controls : control Hamiltonians, switched with unbounded real amplitudes.
    lindblad_ops : pairs (V, gamma); for r3, V is a symmetric
        positive-semidefinite relaxation generator entering as gamma * V.

    All arrays are stored as read-only copies.  The drift and control
    generators are assembled once, on first use, and kept with the system.
    """

    rep: str
    drift_H: np.ndarray
    controls: tuple
    lindblad_ops: tuple = ()
    _directions: tuple = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.rep not in REPS:
            raise ValueError(f"unknown rep {self.rep!r}; expected one of {REPS}")
        if self.rep == "r3":
            n, dtype = 3, float
        else:
            n, dtype = _HILBERT_DIM[self.rep], complex
        drift = _frozen(self.drift_H, dtype, "drift")
        if drift.shape != (n, n):
            raise ValueError(f"drift must be {n}x{n} for rep {self.rep!r}")
        controls = tuple(_frozen(c, dtype, "control") for c in self.controls)
        if any(c.shape != (n, n) for c in controls):
            raise ValueError(f"control must be {n}x{n} for rep {self.rep!r}")
        ops = tuple((_frozen(v, dtype, "noise operator"), float(g))
                    for v, g in self.lindblad_ops)
        for _, g in ops:
            if not np.isfinite(g):
                raise ValueError(f"non-finite rate {g}")
        if self.rep == "r3":
            _check_skew(drift, "drift")
            for c in controls:
                _check_skew(c, "control")
            for v, g in ops:
                if v.shape != (3, 3):
                    raise ValueError("relaxation generator must be 3x3")
                if fro(v - v.T) > 1e-12 * max(1.0, fro(v)):
                    raise ValueError("relaxation generator must be symmetric")
                if np.linalg.eigvalsh((v + v.T) / 2).min() < -1e-12 * max(1.0, fro(v)):
                    raise ValueError("relaxation generator must be positive semidefinite")
                if g < 0:
                    raise ValueError(f"negative relaxation weight {g}")
        else:
            _check_herm(drift, "drift")
            for c in controls:
                _check_herm(c, "control")
            for v, g in ops:
                if v.shape != (n, n):
                    raise ValueError(f"noise operator must be {n}x{n}")
                if g < 0:
                    raise ValueError(f"negative damping rate {g}")
        object.__setattr__(self, "drift_H", drift)
        object.__setattr__(self, "controls", controls)
        object.__setattr__(self, "lindblad_ops", ops)

    @property
    def n_controls(self) -> int:
        return len(self.controls)


def ham_drift_direction(sys: ControlSystem) -> Superop:
    """Hamiltonian part of the drift as a semigroup generator."""
    if sys.rep == "r3":
        return Superop(matrix=sys.drift_H.copy(), rep="r3")
    return Superop(matrix=1j * ad_hat(sys.drift_H).matrix, rep=sys.rep)


def dissipator_direction(sys: ControlSystem) -> Superop:
    """Dissipative part of the drift."""
    if sys.rep == "r3":
        total = np.zeros((3, 3))
        for v, g in sys.lindblad_ops:
            total += g * v
        return Superop(matrix=total, rep="r3")
    n = _HILBERT_DIM[sys.rep]
    if not sys.lindblad_ops:
        return Superop(matrix=np.zeros((n * n, n * n), dtype=complex), rep=sys.rep)
    return Superop(matrix=gks_dissipator(sys.lindblad_ops).matrix, rep=sys.rep)


def _directions_of(sys: ControlSystem) -> tuple:
    """(drift, controls) generator matrices of `sys`, read-only.

    Assembled on the first call and cached on the system; every generator
    handed out by this module is read from here.
    """
    if sys._directions is None:
        drift = ham_drift_direction(sys).matrix + dissipator_direction(sys).matrix
        if sys.rep == "r3":
            controls = sys.controls
        else:
            controls = tuple(1j * ad_hat(c).matrix for c in sys.controls)
        for m in (drift, *controls):
            m.setflags(write=False)
        object.__setattr__(sys, "_directions", (drift, controls))
    return sys._directions


def control_directions(sys: ControlSystem) -> tuple:
    """Generators multiplying the control amplitudes (read-only matrices)."""
    return tuple(Superop(matrix=c, rep=sys.rep) for c in _directions_of(sys)[1])


def drift_direction(sys: ControlSystem) -> Superop:
    """Full drift generator, Hamiltonian plus dissipative part (read-only)."""
    return Superop(matrix=_directions_of(sys)[0], rep=sys.rep)


def lindbladian(sys: ControlSystem, u=None) -> Superop:
    """Generator at control amplitudes u, propagated as expm(-t * L)."""
    if u is None:
        u = np.zeros(sys.n_controls)
    u = np.asarray(u, dtype=float)
    if u.shape != (sys.n_controls,):
        raise ValueError(f"expected {sys.n_controls} control amplitudes, got shape {u.shape}")
    drift, controls = _directions_of(sys)
    m = drift.copy()
    for uj, cj in zip(u, controls):
        m = m + uj * cj
    return Superop(matrix=m, rep=sys.rep)


def propagator(L, t: float) -> Superop:
    """Semigroup element expm(-t * L)."""
    if not 0 <= t < np.inf:
        raise ValueError(f"time must be nonnegative and finite, got {t}")
    rep = _rep_of(L) if isinstance(L, Superop) else _rep_of(L)
    return Superop(matrix=expm(-t * _as_matrix(L)), rep=rep)


# ---------------------------------------------------------------------------
# coherence representation (traceless Hermitian sector)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _pauli_vecs(n: int) -> np.ndarray:
    """Columns vec(B_k) of `pauli_basis(n)`, read-only."""
    v = np.stack([vec(b) for b in pauli_basis(n)], axis=1)
    v.setflags(write=False)
    return v


def coherence_rep(L, rep: str = None, tol: float = 1e-12) -> np.ndarray:
    """Real matrix of a unital superoperator on the traceless sector.

    Entries are ``M[i, j] = <B_j, L(B_i)>`` over `pauli_basis`, computed as
    one product ``Re(V^H L V)^T`` with ``V = [vec(B_1), ...]``; raises
    ValueError if ``L`` mixes the identity with the traceless sector or
    produces non-real overlaps beyond ``tol``.
    """
    rep = _rep_of(L, rep)
    m = _as_matrix(L)
    n = _HILBERT_DIM[rep]
    v = _pauli_vecs(n)
    bound = tol * max(1.0, fro(m)) * 10
    eye_v = vec(np.eye(n)) / np.sqrt(n)
    out_id = m @ eye_v
    leak = out_id - eye_v * np.vdot(eye_v, out_id)
    if np.linalg.norm(leak) > bound:
        raise ValueError("superoperator is not unital: identity leaks into the traceless sector")
    out = m @ v
    gram = v.conj().T @ out
    # The first basis element L(B_i) that fails decides the error, and its
    # trace is checked before its overlaps.
    bad_trace = np.abs(vec(np.eye(n)) @ out) > bound
    bad_imag = np.any(np.abs(gram.imag) > bound, axis=0)
    bad = bad_trace | bad_imag
    if bad.any():
        if bad_trace[np.argmax(bad)]:
            raise ValueError("superoperator does not preserve tracelessness")
        raise ValueError("coherence representation has non-real entries")
    return gram.real.T.copy()


def superop_from_coherence(s: np.ndarray, rep: str) -> Superop:
    """Right inverse of `coherence_rep` on the traceless sector."""
    s = np.asarray(s, dtype=float)
    n = _HILBERT_DIM[rep]
    basis = pauli_basis(n)
    if s.shape != (len(basis), len(basis)):
        raise ValueError(f"expected a {len(basis)}x{len(basis)} matrix for rep {rep!r}")
    m = np.zeros((n * n, n * n), dtype=complex)
    vecs = [vec(b) for b in basis]
    for i in range(len(basis)):
        for j in range(len(basis)):
            if s[i, j] != 0.0:
                m += s[i, j] * np.outer(vecs[j], vecs[i].conj())
    return Superop(matrix=m, rep=rep)


# ---------------------------------------------------------------------------
# channel audits
# ---------------------------------------------------------------------------

def choi_matrix(t) -> np.ndarray:
    """Choi matrix by the reshuffling T.reshape(n,n,n,n).transpose(0,2,1,3)."""
    m = _as_matrix(t)
    n = isqrt(m.shape[0])
    if n * n != m.shape[0] or m.shape[0] != m.shape[1]:
        raise ValueError(f"not a superoperator matrix: shape {m.shape}")
    return m.reshape(n, n, n, n).transpose(0, 2, 1, 3).reshape(n * n, n * n)


def is_trace_preserving(t, tol: float = 1e-10) -> bool:
    m = _as_matrix(t)
    n = isqrt(m.shape[0])
    iv = vec(np.eye(n))
    return bool(np.linalg.norm(iv.conj() @ m - iv.conj()) <= tol * max(1.0, fro(m)))


def is_unital(t, tol: float = 1e-10) -> bool:
    m = _as_matrix(t)
    n = isqrt(m.shape[0])
    iv = vec(np.eye(n))
    return bool(np.linalg.norm(m @ iv - iv) <= tol * max(1.0, fro(m)))


def cptp_audit(t, tol: float = 1e-10) -> dict:
    """Complete-positivity and trace-preservation report for a channel.

    Returns a dict with the trace-preservation defect, the Choi matrix
    Hermiticity defect and minimum eigenvalue, and boolean verdicts.
    """
    m = _as_matrix(t)
    n = isqrt(m.shape[0])
    iv = vec(np.eye(n))
    tp_defect = float(np.linalg.norm(iv.conj() @ m - iv.conj()))
    choi = choi_matrix(m)
    herm_defect = fro(choi - choi.conj().T)
    w = np.linalg.eigvalsh((choi + choi.conj().T) / 2)
    scale = max(1.0, float(abs(np.trace(choi))))
    return {
        "tp_defect": tp_defect,
        "is_tp": tp_defect <= tol * max(1.0, fro(m)),
        "choi_herm_defect": herm_defect,
        "choi_min_eig": float(w.min()),
        "is_cp": herm_defect <= tol * scale and w.min() >= -tol * scale,
    }
