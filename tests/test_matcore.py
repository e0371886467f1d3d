"""Core linear-algebra helpers: inner products, closures, subspaces."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.linalg

from liewedge.matcore import (RANK_TOL, Subspace, comm, eig_sym, expm, fro,
                              inner, orthonormal_span, stacked_fro, svd)

RNG = np.random.default_rng(20260825)


def test_inner_is_real_trace_pairing():
    a = RNG.normal(size=(4, 4)) + 1j * RNG.normal(size=(4, 4))
    b = RNG.normal(size=(4, 4)) + 1j * RNG.normal(size=(4, 4))
    assert np.isclose(inner(a, b), np.real(np.trace(a.conj().T @ b)))
    assert np.isclose(fro(a) ** 2, inner(a, a))


@pytest.mark.parametrize("scale", [1e-300, 1e-184, 1e-160])
def test_fro_survives_entries_whose_squares_underflow(scale):
    """Squares of entries below about 1e-154 underflow (to 0.0 below about
    1e-162); the norm is read at unit scale instead, subnormal entries
    included."""
    rng = np.random.default_rng(7)
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    assert fro(scale * a) / scale == pytest.approx(fro(a), rel=1e-14)
    assert fro(np.zeros((3, 3))) == 0.0
    assert fro(np.zeros((0, 3))) == 0.0
    assert fro(a) == float(np.linalg.norm(a))
    tiny = np.full((2, 2), 2.2250738585e-313 + 1e-313j)
    assert fro(tiny) / abs(tiny[0, 0]) == pytest.approx(2.0, rel=1e-9)
    # |5e-324 (1 + i)| rounds to 5e-324 on the subnormal grid; the parts do not
    least = np.full((2, 2), 5e-324 + 5e-324j)
    assert fro(least) == fro(np.concatenate([least.real, least.imag])) == 1.5e-323


@pytest.mark.parametrize("complex_field", [False, True])
@pytest.mark.parametrize("shape", [(3, 3), (4, 4), (16, 16), (4,), (16,), (2, 15, 1)])
def test_stacked_norms_equal_fro(shape, complex_field):
    """`stacked_fro` is bitwise `fro` of each slice, over entries spread
    across six decades, and over slices scaled into underflow and zero."""
    rng = np.random.default_rng(sum(shape))
    x = rng.normal(size=(3000, *shape))
    if complex_field:
        x = x + 1j * rng.normal(size=x.shape)
    x = x * 10.0 ** rng.uniform(-3, 3, size=(len(x),) + (1,) * len(shape))
    x[:3] *= 1e-300
    x[3] = 0.0
    got = stacked_fro(x)
    assert got.tobytes() == np.array([fro(v) for v in x]).tobytes()
    assert np.all(got[:3] > 0.0) and got[3] == 0.0
    assert stacked_fro(x[:0]).shape == (0,)


def test_comm_antisymmetry_and_jacobi():
    a, b, c = (RNG.normal(size=(3, 3)) for _ in range(3))
    assert np.allclose(comm(a, b), -comm(b, a))
    jac = comm(a, comm(b, c)) + comm(b, comm(c, a)) + comm(c, comm(a, b))
    assert np.max(np.abs(jac)) < 1e-12


@pytest.mark.parametrize("shape, complex_field", [((3, 3), False), ((4, 4), True),
                                                   ((16, 16), True)])
def test_comm_broadcasts_to_the_per_pair_loop_bitwise(shape, complex_field):
    def draw(k):
        m = RNG.normal(size=(k, *shape))
        return m + 1j * RNG.normal(size=(k, *shape)) if complex_field else m

    xs, ys = draw(4), draw(3)
    got = comm(xs[:, None], ys[None])
    want = np.array([[x @ y - y @ x for y in ys] for x in xs])
    assert got.shape == (4, 3, *shape)
    assert got.tobytes() == want.tobytes()
    assert comm(xs, ys[0]).tobytes() == np.array([x @ ys[0] - ys[0] @ x for x in xs]).tobytes()


@pytest.mark.parametrize("a, b", [
    (np.zeros((2, 3)), np.zeros((2, 3))),
    (np.zeros((1, 2, 3)), np.zeros((2, 2, 3))),
    (np.zeros((3, 3)), np.zeros((2, 2))),
    (np.zeros(3), np.zeros(3)),
    (np.zeros((3, 3)), np.zeros(3)),
    (np.zeros((2, 3, 3)), np.zeros((4, 3, 3))),
])
def test_comm_rejects_non_square_or_non_broadcastable_shapes(a, b):
    with pytest.raises(ValueError, match="commutator needs broadcastable stacks"):
        comm(a, b)


def test_expm_matches_series_on_nilpotent():
    n = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]])
    exact = np.eye(3) + n + n @ n / 2.0
    assert np.allclose(expm(n), exact, atol=1e-14)


def test_eig_sym_descending():
    s = RNG.normal(size=(5, 5))
    s = (s + s.T) / 2.0
    w, v = eig_sym(s)
    assert np.all(np.diff(w) <= 1e-12)
    assert np.allclose(v @ np.diag(w) @ v.T, s, atol=1e-12)


def test_subspace_projection_and_membership():
    basis = [np.diag([1.0, 0.0, 0.0]), np.diag([0.0, 1.0, 0.0])]
    sub = orthonormal_span(basis, shape=(3, 3))
    assert sub.dim == 2
    x = np.diag([2.0, -3.0, 0.0])
    assert sub.contains(x)
    assert np.allclose(sub.project(x), x)
    y = np.diag([0.0, 0.0, 1.0])
    assert not sub.contains(y)
    assert fro(sub.project(y)) < 1e-12
    assert np.isclose(sub.residual(y), 1.0)


def test_orthonormal_span_deduplicates_dependent_inputs():
    a = RNG.normal(size=(3, 3))
    sub = orthonormal_span([a, 2.0 * a, a + 1e-14 * np.eye(3)],
                           shape=(3, 3))
    assert sub.dim == 1


def test_orthonormal_span_empty():
    sub = orthonormal_span([], shape=(3, 3))
    assert sub.dim == 0
    z = RNG.normal(size=(3, 3))
    assert fro(sub.project(z)) == 0.0


def test_rank_tol_default():
    assert RANK_TOL == 1e-9


def test_real_subspace_refuses_an_imaginary_part():
    """Every carrier is real: a span or a subspace query with a nonzero
    imaginary part raises, and a complex dtype with zero imaginary part is
    read as real."""
    h = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
    sub = orthonormal_span([h], shape=(2, 2))
    assert sub.stack.dtype == float
    assert sub.contains(2.0 * h)
    for call in (sub.contains, sub.project, sub.residual):
        with pytest.raises(ValueError, match="a matrix must be real"):
            call(1j * h)
    with pytest.raises(ValueError, match="a generator must be real"):
        orthonormal_span([h, 1j * h])


def _svd_bytes(result) -> list:
    """Bytes of each factor of an SVD, or of its singular values alone."""
    return [f.tobytes() for f in (result if isinstance(result, tuple) else (result,))]


@pytest.mark.parametrize("kwargs", [{}, {"full_matrices": False}, {"compute_uv": False}])
def test_svd_is_numpys_where_gesdd_converges(kwargs):
    m = RNG.normal(size=(7, 4))
    assert _svd_bytes(svd(m, **kwargs)) == _svd_bytes(np.linalg.svd(m, **kwargs))


@pytest.mark.parametrize("kwargs", [{}, {"full_matrices": False}, {"compute_uv": False}])
def test_svd_falls_back_to_gesvd_where_gesdd_fails(monkeypatch, kwargs):
    def gesdd_fails(*args, **kw):
        raise np.linalg.LinAlgError("SVD did not converge")

    m = RNG.normal(size=(7, 4))
    want = scipy.linalg.svd(m, lapack_driver="gesvd", **kwargs)
    monkeypatch.setattr(np.linalg, "svd", gesdd_fails)
    assert _svd_bytes(svd(m, **kwargs)) == _svd_bytes(want)


def test_svd_of_a_matrix_with_a_nan_raises_linalgerror():
    m = np.ones((3, 3))
    m[1, 2] = np.nan
    with pytest.raises(np.linalg.LinAlgError):
        svd(m)
