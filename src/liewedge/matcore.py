"""Dense linear-algebra kernels shared by all higher layers.

Everything in this package is phrased over the *real* trace inner product

    <A, B> = Re tr(A^dag B),

so complex matrices are handled as elements of a real vector space of twice
the complex dimension ("realification").  A `Subspace` is an orthonormally
spanned real subspace of matrices under that inner product; rank decisions
use a relative tolerance of 1e-9 against the largest singular value.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import expm as _expm

RANK_TOL = 1e-9


def inner(a: np.ndarray, b: np.ndarray) -> float:
    """Real trace inner product Re tr(a^dag b)."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return float(np.real(np.sum(np.conj(a) * b)))


def fro(a: np.ndarray) -> float:
    """Frobenius norm."""
    return float(np.linalg.norm(np.asarray(a)))


def comm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Commutator [a, b] = ab - ba."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape or a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"commutator needs equal square shapes, got {a.shape}, {b.shape}")
    return a @ b - b @ a


def expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential (scaling-and-squaring Pade, via scipy)."""
    return _expm(np.asarray(a))


def eig_sym(s: np.ndarray, tol: float = 1e-8):
    """Eigendecomposition of a symmetric/Hermitian matrix.

    Parameters
    ----------
    s : array_like
        Square matrix; must satisfy ||s - s^dag|| <= tol * max(1, ||s||).
    tol : float
        Hermiticity tolerance.

    Returns
    -------
    (w, V) : eigenvalues sorted descending, and the matching eigenvector
        columns, so that s ~ V @ diag(w) @ V^dag.
    """
    s = np.asarray(s)
    herm_defect = fro(s - s.conj().T)
    if herm_defect > tol * max(1.0, fro(s)):
        raise ValueError(f"matrix is not symmetric/Hermitian (defect {herm_defect:.3e})")
    w, v = np.linalg.eigh((s + s.conj().T) / 2.0)
    return w[::-1].copy(), v[:, ::-1].copy()


# ---------------------------------------------------------------------------
# realification helpers
# ---------------------------------------------------------------------------

def realify(a: np.ndarray, complex_field: bool) -> np.ndarray:
    """Flatten a matrix into a real coordinate vector.

    Complex matrices map to the concatenation (Re, Im) so that the euclidean
    inner product of coordinates equals Re tr(a^dag b).
    """
    a = np.asarray(a)
    if complex_field:
        return np.concatenate([np.real(a).ravel(), np.imag(a).ravel()]).astype(float)
    return np.real(a).ravel().astype(float)


def unrealify(v: np.ndarray, shape: tuple, complex_field: bool) -> np.ndarray:
    """Inverse of `realify`."""
    v = np.asarray(v, dtype=float)
    n = int(np.prod(shape))
    if complex_field:
        return (v[:n] + 1j * v[n:]).reshape(shape)
    return v.reshape(shape).copy()


def realify_stack(mats, shape: tuple, complex_field: bool) -> np.ndarray:
    """`realify` of every matrix in a stack, as the columns of a (d, m) array."""
    flat = np.asarray(mats).reshape(len(mats), int(np.prod(shape)))
    if complex_field:
        flat = np.concatenate([np.real(flat), np.imag(flat)], axis=1)
    return np.real(flat).T.astype(float, order="C")


def unrealify_stack(cols: np.ndarray, shape: tuple, complex_field: bool) -> np.ndarray:
    """Inverse of `realify_stack`: the (m, *shape) stack of matrices."""
    cols = np.asarray(cols, dtype=float)
    n = int(np.prod(shape))
    flat = cols[:n] + 1j * cols[n:] if complex_field else cols
    return flat.T.copy().reshape(-1, *shape)


@dataclass
class Subspace:
    """A real subspace of matrices with an orthonormal basis.

    `mats` are the basis matrices (orthonormal under Re tr(a^dag b)); `stack`
    holds their realified coordinates as columns for fast projection.
    """

    mats: tuple
    shape: tuple
    complex_field: bool
    tol: float = RANK_TOL
    stack: np.ndarray = field(default=None, repr=False)

    def __post_init__(self):
        if self.stack is None:
            self.stack = realify_stack(self.mats, self.shape, self.complex_field)

    @property
    def dim(self) -> int:
        return len(self.mats)

    def project(self, a: np.ndarray) -> np.ndarray:
        """Orthogonal projection of `a` onto the subspace."""
        v = realify(a, self.complex_field)
        if self.stack.shape[1] == 0:
            return unrealify(np.zeros_like(v), self.shape, self.complex_field)
        p = self.stack @ (self.stack.T @ v)
        return unrealify(p, self.shape, self.complex_field)

    def residual(self, a: np.ndarray) -> float:
        """Norm of the component of `a` orthogonal to the subspace."""
        v = realify(a, self.complex_field)
        if self.stack.shape[1] == 0:
            return float(np.linalg.norm(v))
        return float(np.linalg.norm(v - self.stack @ (self.stack.T @ v)))

    def contains(self, a: np.ndarray, tol: float = None) -> bool:
        tol = self.tol * 10 if tol is None else tol
        return self.residual(a) <= tol * max(1.0, fro(a))


def orthonormal_span(gens, tol: float = RANK_TOL, shape: tuple = None,
                     complex_field: bool = None) -> Subspace:
    """Orthonormal basis of the real span of `gens`.

    Rank-revealing SVD of the realified generator stack; directions whose
    singular value falls below `tol` times the largest one are discarded.
    For an empty generator list, `shape` (and optionally `complex_field`)
    fix the ambient space.
    """
    gens = [np.asarray(g) for g in gens]
    if gens:
        shape = gens[0].shape
        if any(g.shape != shape for g in gens):
            raise ValueError("generators must share a common shape")
        if complex_field is None:
            complex_field = any(np.iscomplexobj(g) for g in gens)
    else:
        if shape is None:
            raise ValueError("empty generator list needs an explicit shape")
        complex_field = bool(complex_field)
    if not gens:
        return Subspace(mats=(), shape=tuple(shape), complex_field=complex_field, tol=tol)

    m = realify_stack(gens, shape, complex_field)
    u, s, _ = np.linalg.svd(m, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return Subspace(mats=(), shape=tuple(shape), complex_field=complex_field, tol=tol)
    keep = s > tol * s[0]
    cols = u[:, keep]
    mats = tuple(unrealify_stack(cols, shape, complex_field))
    return Subspace(mats=mats, shape=tuple(shape), complex_field=complex_field,
                    tol=tol, stack=cols.copy())
