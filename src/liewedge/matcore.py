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
from math import prod
from numbers import Integral

import numpy as np

RANK_TOL = 1e-9


def inner(a: np.ndarray, b: np.ndarray) -> float:
    """Real trace inner product Re tr(a^dag b)."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return float(np.real(np.sum(np.conj(a) * b)))


def fro(a: np.ndarray) -> float:
    """Frobenius norm.  A matrix whose norm falls below 1e-150, where the
    squares of its entries can underflow to 0.0, has its real and imaginary
    parts scaled by a power of two to near 1 first, so a nonzero matrix
    never reads 0.0.  The parts are scaled apart: the magnitude of a
    complex entry is itself rounded to the subnormal grid there."""
    a = np.asarray(a)
    norm = float(np.linalg.norm(a))
    if not norm < 1e-150:
        return norm
    parts = (a.real, a.imag) if np.iscomplexobj(a) else (a,)
    scale = max(np.abs(p).max(initial=0.0) for p in parts)
    if scale == 0.0:
        return norm
    exponent = np.frexp(scale)[1]
    return float(np.ldexp(np.linalg.norm([np.ldexp(p, -exponent) for p in parts]), exponent))


def stacked_fro(x: np.ndarray) -> np.ndarray:
    """Frobenius norm of each slice of an (m, ...) stack, bitwise `fro` of
    that slice: one stacked dot per slice, the dot `np.linalg.norm` takes of
    one flattened slice (of its real and its imaginary part, added, when
    complex), and `fro` itself on a nonzero slice whose norm falls below
    1e-150."""
    x = np.asarray(x)
    p = x.reshape(len(x), 1, prod(x.shape[1:]))
    parts = (p.real, p.imag) if np.iscomplexobj(p) else (p,)
    norms = np.sqrt(sum(q @ q.swapaxes(1, 2) for q in parts).reshape(len(x)))
    small = np.flatnonzero(norms < 1e-150)
    for i in small[p[small, 0].any(axis=-1)]:
        norms[i] = fro(x[i])
    return norms


def comm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Commutator [a, b] = ab - ba, of two matrices or slice by slice of two
    (..., n, n) stacks whose leading axes broadcast against each other.

    A broadcast call runs as one BLAS matmul over all its slices, and each
    slice equals the commutator of its own pair of matrices bit for bit:
    ``comm(xs[:, None], ys[None])`` is the (len(xs), len(ys)) table of
    brackets [x_i, y_j].
    """
    a = np.asarray(a)
    b = np.asarray(b)
    ok = a.ndim >= 2 and a.shape[-1] == a.shape[-2] and b.shape[-2:] == a.shape[-2:]
    try:
        np.broadcast_shapes(a.shape, b.shape)
    except ValueError:
        ok = False
    if not ok:
        raise ValueError("commutator needs broadcastable stacks of equal square matrices, "
                         f"got {a.shape}, {b.shape}")
    return a @ b - b @ a


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two matrices as one broadcast product.

    It forms the same entrywise products a_ij * b_kl as ``np.kron``, so it
    equals it bit for bit, without its per-call dimension handling.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(
        a.shape[0] * b.shape[0], a.shape[1] * b.shape[1])


def expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential (scaling-and-squaring Pade, via scipy).

    A ``(..., n, n)`` stack is exponentiated slice by slice with the same
    code as a single matrix, so each slice equals its own call bit for bit.
    `scipy.linalg` is imported on the first call, not with this module, so
    the callers that never exponentiate start without it.
    """
    from scipy.linalg import expm as _expm
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


def _checked_tol(tol) -> float:
    """tol as a float, after rejecting one that is not positive and finite."""
    tol = float(tol)
    if not 0 < tol < np.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    return tol


def _checked_count(name: str, value, least: int = 0) -> int:
    """`value` as an int, after rejecting a bool, a non-integer or a value
    below `least`; seeds (`least` 0) and sample, round or segment counts use
    it."""
    if isinstance(value, bool) or not isinstance(value, Integral) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
    return int(value)


def svd(m: np.ndarray, full_matrices: bool = True, compute_uv: bool = True):
    """`np.linalg.svd`, retried with LAPACK's gesvd driver where its gesdd
    driver does not converge.  gesdd's divide-and-conquer iteration fails on
    some finite matrices that gesvd's QR iteration factors; wherever gesdd
    converges the result is bitwise its own.  A matrix that neither driver
    factors, such as one holding a NaN or an infinity, raises LinAlgError."""
    try:
        return np.linalg.svd(m, full_matrices=full_matrices, compute_uv=compute_uv)
    except np.linalg.LinAlgError:
        from scipy.linalg import svd as _scipy_svd
        return _scipy_svd(m, full_matrices=full_matrices, compute_uv=compute_uv,
                          check_finite=False, lapack_driver="gesvd")


def _kept(s: np.ndarray, tol: float) -> np.ndarray:
    """Mask of the singular values `s` that count towards the rank: those
    above `tol` times the largest one."""
    return s > tol * s.max(initial=0.0)


def _span_columns(m: np.ndarray, tol: float = RANK_TOL) -> np.ndarray:
    """Orthonormal columns spanning the columns of `m`: rank-revealing SVD,
    discarding directions whose singular value is not kept by `_kept`."""
    u, s, _ = svd(m, full_matrices=False)
    return u[:, _kept(s, tol)].copy()


def _null_rows(m: np.ndarray, tol: float = RANK_TOL) -> np.ndarray:
    """Orthonormal rows spanning the null space of `m` (see `_kept`)."""
    _, s, vh = svd(m)
    return vh[np.count_nonzero(_kept(s, tol)):]


def _rank(m: np.ndarray, tol: float = RANK_TOL) -> int:
    """`_span_columns(m, tol).shape[1]`, counted from the singular values
    alone, without forming the left singular vectors."""
    return int(np.count_nonzero(_kept(svd(m, compute_uv=False), tol)))


def orthonormal_span(gens, tol: float = RANK_TOL, shape: tuple = None,
                     complex_field: bool = None) -> Subspace:
    """Orthonormal basis of the real span of `gens` (see `_span_columns`).

    For an empty generator list, `shape` (and optionally `complex_field`)
    fix the ambient space.  `tol` must be positive and finite; anything else
    raises ValueError.
    """
    tol = _checked_tol(tol)
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
