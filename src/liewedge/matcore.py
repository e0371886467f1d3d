"""Dense linear-algebra kernels shared by all higher layers.

Everything in this package is phrased over the *real* trace inner product

    <A, B> = Re tr(A^dag B),

so complex matrices are handled as elements of a real vector space of twice
the complex dimension ("realification").  A `Subspace` is an orthonormally
spanned real subspace of matrices under that inner product, stored once as
the realified column stack of its basis; its basis matrices are derived
from that stack.  Rank decisions use a relative tolerance of 1e-9 against
the largest singular value.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

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
    """Commutator [a, b] = ab - ba, of two matrices or slice by slice of two
    equal-shape (..., n, n) stacks."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape or a.ndim < 2 or a.shape[-1] != a.shape[-2]:
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

    `stack` is the only stored form: the realified basis coordinates as
    orthonormal columns, one per basis matrix.  `mats`, the basis matrices
    (orthonormal under Re tr(a^dag b)), are derived from it on first use.
    """

    stack: np.ndarray = field(repr=False)
    shape: tuple
    complex_field: bool
    tol: float = RANK_TOL

    @cached_property
    def mats(self) -> tuple:
        return tuple(unrealify_stack(self.stack, self.shape, self.complex_field))

    @property
    def dim(self) -> int:
        return self.stack.shape[1]

    def project(self, a: np.ndarray) -> np.ndarray:
        """Orthogonal projection of `a` onto the subspace."""
        p = self.stack @ (self.stack.T @ realify(a, self.complex_field))
        return unrealify(p, self.shape, self.complex_field)

    def residual(self, a: np.ndarray) -> float:
        """Norm of the component of `a` orthogonal to the subspace."""
        v = realify(a, self.complex_field)
        return float(np.linalg.norm(v - self.stack @ (self.stack.T @ v)))

    def contains(self, a: np.ndarray, tol: float = None) -> bool:
        tol = self.tol * 10 if tol is None else tol
        return self.residual(a) <= tol * max(1.0, fro(a))


def _span_columns(m: np.ndarray, tol: float = RANK_TOL) -> np.ndarray:
    """Orthonormal columns spanning the columns of `m`: rank-revealing SVD,
    discarding directions whose singular value falls below `tol` times the
    largest one."""
    u, s, _ = np.linalg.svd(m, full_matrices=False)
    return u[:, s > tol * s.max(initial=0.0)].copy()


def orthonormal_span(gens, tol: float = RANK_TOL, shape: tuple = None,
                     complex_field: bool = None) -> Subspace:
    """Orthonormal basis of the real span of `gens` (see `_span_columns`).

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
    shape = tuple(shape)
    cols = _span_columns(realify_stack(gens, shape, complex_field), tol)
    return Subspace(cols, shape, complex_field, tol)
