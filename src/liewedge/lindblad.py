"""Controlled Markovian generators and their superoperator matrices.

A `ControlSystem` bundles a drift Hamiltonian, a list of control
Hamiltonians, and a list of weighted noise operators.  Three carriers are
supported:

``r3``
    Classical three-level carrier: generators are real 3x3 matrices acting
    on coherence vectors, antisymmetric parts generating rotations and
    symmetric positive-semidefinite parts generating relaxation.
``qubit`` / ``two_qubit``
    Quantum carriers on C^2 / C^4: generators are (N^2 x N^2) matrices
    acting on column-stacked density operators, built from commutator
    superoperators and GKS dissipators.

Every generator and channel is a plain numpy array, and its carrier is
its shape: 3x3 for r3, 4x4 for a qubit, 16x16 for two qubits.  Functions
that need the carrier read it from the shape.

Conventions fixed here and relied on everywhere else:

* column stacking, ``vec(A X B) = (B.T otimes A) vec(X)``;
* semigroups are propagated as ``expm(-t * L)``, so a dissipative ``L``
  has positive-semidefinite Hermitian part;
* the Pauli transfer matrix (PTM) of a superoperator ``L`` on C^N is
  ``T = Re(W^H L W)`` with the unitary ``W = [vec(I)/sqrt(N), vec(B_1), ...]``
  over the orthonormal Pauli basis ``B_k`` of `pauli_basis`, so
  ``L = W T W^H`` whenever ``L`` preserves Hermiticity (then ``W^H L W`` is
  real), and ``L`` is unital and trace-preserving when ``T[1:, 0]`` and
  ``T[0, 1:]`` vanish.  The traceless block ``T[1:, 1:]`` is the coherence
  representation transposed: the coherence representation is the real
  matrix ``M[i, j] = <B_j, L(B_i)>`` of ``L`` on the traceless Hermitian
  sector, which maps ``i * ad(sigma_z / 2)`` to the rotation generator
  about the z axis with the usual orientation.  `ptm_rep` and its
  inverse `superop_from_ptm` run on the unnormalised Pauli products
  ``P = sqrt(N) W``, whose entries are 0, +-1 and +-i, and scale by 1/N, a
  power of two, so the identity channel has exactly the identity PTM and
  back.  On r3 the generators act on coherence vectors already and are
  their own PTMs.

`gks_margin` tests the Lindblad-Kossakowski wedge, the ``L`` for which
``expm(-t * L)`` is a channel for every t >= 0 (Wolf and Cirac, CMP 2008).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from math import isqrt

import numpy as np

from .matcore import expm, fro, kron, stacked_fro

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
                out.append(kron(SIGMA[mu], SIGMA[nu]) / 2.0)
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


def ad_hat(h: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """Commutator superoperator X -> [h, X] for a Hermitian h, assembled
    as I (x) h - h^T (x) I by `matcore.kron`."""
    h = np.asarray(h, dtype=complex)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError(f"Hamiltonian must be square, got shape {h.shape}")
    if fro(h - h.conj().T) > tol * max(1.0, fro(h)):
        raise ValueError("Hamiltonian must be Hermitian")
    n = h.shape[0]
    eye = np.eye(n)
    return kron(eye, h) - kron(h.T, eye)


def gks_term(v: np.ndarray, gamma: float) -> np.ndarray:
    """Single-operator dissipator, sign-matched to expm(-t L) propagation:
    gamma ((I (x) V^dag V + (V^dag V)^T (x) I) / 2 - conj(V) (x) V), each
    product by `matcore.kron`."""
    v = np.asarray(v, dtype=complex)
    n = v.shape[0]
    eye = np.eye(n)
    vdv = v.conj().T @ v
    return gamma * (0.5 * (kron(eye, vdv) + kron(vdv.T, eye)) - kron(v.conj(), v))


def gks_dissipator(ops) -> np.ndarray:
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
    return total


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

    All arrays are stored as read-only copies.  The Pauli transfer
    matrices of the drift and control generators (`ptm_directions`) are
    assembled once, on first use, and kept with the system; they are the
    only generators it keeps.
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


def ham_drift_direction(sys: ControlSystem) -> np.ndarray:
    """Hamiltonian part of the drift as a semigroup generator."""
    if sys.rep == "r3":
        return sys.drift_H.copy()
    return 1j * ad_hat(sys.drift_H)


def dissipator_direction(sys: ControlSystem) -> np.ndarray:
    """Dissipative part of the drift."""
    if sys.rep == "r3":
        total = np.zeros((3, 3))
        for v, g in sys.lindblad_ops:
            total += g * v
        return total
    n = _HILBERT_DIM[sys.rep]
    if not sys.lindblad_ops:
        return np.zeros((n * n, n * n), dtype=complex)
    return gks_dissipator(sys.lindblad_ops)


def _control_generators(sys: ControlSystem) -> list:
    """Generators multiplying the control amplitudes: ``1j * ad_hat(c)``
    for each control Hamiltonian ``c``, or on r3 the controls themselves."""
    if sys.rep == "r3":
        return list(sys.controls)
    return [1j * ad_hat(c) for c in sys.controls]


def ptm_directions(sys: ControlSystem) -> tuple:
    """(drift, controls) as real Pauli transfer matrices, read-only: the
    drift's (N^2, N^2) matrix and the (n_controls, N^2, N^2) stack of the
    controls'; on r3 the generators themselves, as a 3x3 matrix and a
    (n_controls, 3, 3) stack.

    Assembled by one stacked `ptm_rep` on the first call and cached on the
    system, which keeps no other form of its generators.
    """
    if sys._directions is None:
        drift = ham_drift_direction(sys) + dissipator_direction(sys)
        ptm = ptm_rep(np.stack([drift, *_control_generators(sys)]))
        ptm.setflags(write=False)
        object.__setattr__(sys, "_directions", (ptm[0], ptm[1:]))
    return sys._directions


def lindbladian(sys: ControlSystem, u=None) -> np.ndarray:
    """Generator at control amplitudes u, propagated as expm(-t * L): the
    Hamiltonian drift, plus the dissipator, plus each control generator
    times its amplitude, assembled on each call."""
    if u is None:
        u = np.zeros(sys.n_controls)
    u = np.asarray(u, dtype=float)
    if u.shape != (sys.n_controls,):
        raise ValueError(f"expected {sys.n_controls} control amplitudes, got shape {u.shape}")
    m = ham_drift_direction(sys) + dissipator_direction(sys)
    for uj, cj in zip(u, _control_generators(sys)):
        m = m + uj * cj
    return m


def propagator(L, t: float) -> np.ndarray:
    """Semigroup element expm(-t * L) of a square generator on any carrier."""
    if not 0 <= t < np.inf:
        raise ValueError(f"time must be nonnegative and finite, got {t}")
    return expm(-t * np.asarray(L))


# ---------------------------------------------------------------------------
# Pauli transfer matrices
# ---------------------------------------------------------------------------

# Hilbert dimension n of the carrier by superoperator shape (n^2 x n^2)
_SUPEROP_CARRIER = {(4, 4): 2, (16, 16): 4}


@lru_cache(maxsize=None)
def _pauli_frame(n: int) -> tuple:
    """(P, P^H) for the unnormalised Pauli products ``P = sqrt(n) W``: the
    columns vec(I) and ``sqrt(n) vec(B_k)`` over `pauli_basis(n)`, built
    from the Pauli matrices directly so that every entry is 0, +-1 or +-i
    exactly; read-only."""
    if n == 2:
        mats = [SIGMA[k] for k in ("1", *_AXES)]
    else:
        mats = [kron(SIGMA[mu], SIGMA[nu]) for mu in SIGMA for nu in SIGMA]
    p = np.stack([vec(b) for b in mats], axis=1)
    ph = p.conj().T.copy()
    for m in (p, ph):
        m.setflags(write=False)
    return p, ph


def _pauli_carrier(m: np.ndarray, what: str) -> int:
    """Hilbert dimension of the qubit or two-qubit matrix, or stack, `m`;
    0 for an r3 matrix or stack, and ValueError naming `what` for any other
    shape."""
    if m.shape[-2:] == (3, 3):
        return 0
    n = _SUPEROP_CARRIER.get(m.shape[-2:])
    if n is None:
        raise ValueError(f"no qubit or two-qubit {what} has shape {m.shape}; "
                         f"expected 4x4 or 16x16, or a stack of them")
    return n


def ptm_rep(L) -> np.ndarray:
    """Pauli transfer matrix ``Re(W^H L W)`` of a superoperator, or of each
    slice of a ``(..., 4, 4)`` or ``(..., 16, 16)`` stack, computed as
    ``Re(P^H L P) / N`` (see the module docstring).

    The imaginary part, which vanishes up to rounding on a
    Hermiticity-preserving ``L``, is dropped unchecked.  An r3 matrix, or a
    ``(..., 3, 3)`` stack, is its own transfer matrix and is returned
    unchanged.  Any other shape raises ValueError.
    """
    m = np.asarray(L)
    n = _pauli_carrier(m, "superoperator")
    if not n:
        return m
    p, ph = _pauli_frame(n)
    return (ph @ m @ p).real / n


def superop_from_ptm(t) -> np.ndarray:
    """Superoperator ``W T W^H`` of a real Pauli transfer matrix, or of each
    slice of a stack, computed as ``P T P^H / N``; the inverse of
    `ptm_rep` on Hermiticity-preserving superoperators.  The carrier is
    read from the shape as in `ptm_rep`: an r3 matrix or stack is returned
    unchanged, and any other shape raises ValueError.
    """
    t = np.asarray(t)
    n = _pauli_carrier(t, "transfer matrix")
    if not n:
        return t
    p, ph = _pauli_frame(n)
    return p @ t @ ph / n


# ---------------------------------------------------------------------------
# channel audits
# ---------------------------------------------------------------------------

def _superop_side(m: np.ndarray, stacked: bool = False) -> int:
    """Hilbert dimension n of an n^2 x n^2 superoperator matrix, or with
    `stacked` of each matrix of a (k, n^2, n^2) stack; any other shape
    raises ValueError."""
    n = isqrt(m.shape[-1]) if m.ndim == 2 + stacked else 0
    if n == 0 or n * n != m.shape[-1] or m.shape[-2] != m.shape[-1]:
        what = "stack of superoperator matrices" if stacked else "superoperator matrix"
        raise ValueError(f"not a {what}: shape {m.shape}")
    return n


def _reshuffle(m: np.ndarray, n: int) -> np.ndarray:
    """Choi reshuffle of an n^2 x n^2 matrix, or of each slice of a stack."""
    lead = m.shape[:-2]
    return m.reshape(*lead, n, n, n, n).swapaxes(-3, -2).reshape(*lead, n * n, n * n)


def choi_matrix(t) -> np.ndarray:
    """Choi matrix by the reshuffling T.reshape(n,n,n,n).transpose(0,2,1,3)."""
    m = np.asarray(t)
    return _reshuffle(m, _superop_side(m))


def gks_margin(x) -> float:
    """Margin of x in the Lindblad-Kossakowski wedge, relative to
    max(1, |x|); it is >= 0, up to rounding, when expm(-t x) is a channel
    for every t >= 0.  The carrier is read from the shape.

    On an N^2 x N^2 x it is the least of: the least eigenvalue of Q C(-x) Q
    on the range of Q, C the `choi_matrix` and Q the projector off vec(I)
    (conditional complete positivity); minus the Hermiticity defect of
    C(-x); and minus the trace defect |vec(I)^dag x|.  On a 3x3 (r3) x it is
    min(r_j + r_k - r_i) over the eigenvalues r of x's symmetric part, or
    minus the norm of x's imaginary part where that is less.  Any other
    shape, or a non-finite entry, raises ValueError."""
    m = np.asarray(x)
    if m.ndim == 2 and not np.isfinite(m).all():
        raise ValueError("x must be finite, got a non-finite entry")
    scale = max(1.0, fro(m))
    if m.shape == (3, 3):
        r = np.linalg.eigvalsh(np.real(m + m.T) / 2)
        imag = fro(np.imag(m))
        return (min(r[0] + r[1] - r[2], -imag) if imag else r[0] + r[1] - r[2]) / scale
    n = _superop_side(m)
    choi = choi_matrix(-m)
    iv = vec(np.eye(n))
    q = np.eye(n * n) - np.outer(iv, iv) / n
    # Q C Q vanishes on vec(I) and both defects are >= 0, so the least
    # eigenvalue over the whole space gives the same minimum
    least = np.linalg.eigvalsh(q @ (choi + choi.conj().T) @ q / 2)[0]
    return float(min(least, -fro(choi - choi.conj().T), -fro(iv @ m))) / scale


def is_trace_preserving(t, tol: float = 1e-10) -> bool:
    m = np.asarray(t)
    iv = vec(np.eye(_superop_side(m)))
    return bool(np.linalg.norm(iv.conj() @ m - iv.conj()) <= tol * max(1.0, fro(m)))


def is_unital(t, tol: float = 1e-10) -> bool:
    m = np.asarray(t)
    iv = vec(np.eye(_superop_side(m)))
    return bool(np.linalg.norm(m @ iv - iv) <= tol * max(1.0, fro(m)))


def cptp_audit(t, tol: float = 1e-10) -> dict:
    """Complete-positivity and trace-preservation report for a channel.

    Returns a dict with the trace-preservation defect, the Choi matrix
    Hermiticity defect and minimum eigenvalue, and boolean verdicts.  On a
    (k, N^2, N^2) stack of channels each entry is an array of the k
    slices' values, from one stacked pass, and each slice's values equal
    its own single-matrix call bit for bit; a single matrix gives floats
    and bools.
    """
    m = np.asarray(t)
    single = m.ndim != 3
    n = _superop_side(m, stacked=not single)
    if single:
        m = m[None]
    iv = vec(np.eye(n))
    tp_defect = stacked_fro(iv.conj() @ m - iv.conj())
    choi = _reshuffle(m, n)
    herm = choi.conj().swapaxes(-1, -2)
    herm_defect = stacked_fro(choi - herm)
    w_min = np.linalg.eigvalsh((choi + herm) / 2).min(axis=-1)
    scale = np.maximum(1.0, np.abs(np.trace(choi, axis1=-2, axis2=-1)))
    out = {
        "tp_defect": tp_defect,
        "is_tp": tp_defect <= tol * np.maximum(1.0, stacked_fro(m)),
        "choi_herm_defect": herm_defect,
        "choi_min_eig": w_min,
        "is_cp": (herm_defect <= tol * scale) & (w_min >= -tol * scale),
    }
    return {key: v[0].item() for key, v in out.items()} if single else out
