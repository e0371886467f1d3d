"""Lie wedges of controlled semigroups and their saturation.

A wedge is stored as ``edge + (-cone)``: the edge is a Lie subalgebra kept
as an orthonormal `Subspace`, and the cone is the *positive* convex cone
spanned by conjugated drift generators (so the physical wedge consists of
the edge plus the negatives of the cone elements).  A cone holds unit-norm
generators, or is an orbit cone: an analytic conjugation family (the
edge's orthonormal basis as skew seeds and the drift's edge-orthogonal part
as base, from which the family derives its kind, a torus where the seeds
co-diagonalise, whose one frequency table gives its box, sweep and support
search, or an orbit, and closed forms, `exact`) and the rows of one sweep,
swept on first read.  Membership is exact where the family's closed form
decides it (`Cone.exact`: Schur-Horn bounds for full-rotation orbits,
Caratheodory-Toeplitz bounds for one-parameter orbits with commensurate
frequencies); elsewhere a nonnegative fit over the generators decides, an
inner approximation that can only err towards "not a member".
`wedge_contains` and `cone_contains` take one matrix or a stack of them,
in one pass that checks, projects and bounds the whole stack at once.  Edges and
given generators are stored as realified column stacks (see `matcore`).

`saturate` fixes the wedge by algebra alone: it Lie-closes the edge and
grows it by the cone's lineality until it stops growing, and the cone is
the orbit of the base under the edge's group, so no sample adds to either;
the cone holds the rows of one sweep, drawn once for the returned family and
swept only when fits or samplers read them.
The lineality of a cone with a family is exact and needs no fit: the
orbit's Haar centroid, the base's projection onto the fixed space of the
edge's brackets, is either nonzero, and the cone is pointed, or zero, and
the cone is the orbit's linear span (`lineality`, `Cone.span`);
`Cone.pointed` is derived from it, and `Wedge.dim` from the span.
Every wedge lies in its system's outer wedge, the x of the system's Lie
algebra (`Wedge.algebra`) with `lindblad.gks_margin(x) >= 0`, which
`outer_contains` tests exactly, so its "outside" holds for every wedge.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from math import prod

import numpy as np

from .liealg import lie_closure
from .lindblad import (ControlSystem, _pauli_vecs, coherence_rep, control_directions,
                       drift_direction, gks_margin, superop_from_coherence)
from .matcore import (RANK_TOL, Subspace, _checked_count, _checked_tol, _null_rows, _rank,
                      _span_columns, comm, eig_sym, fro, orthonormal_span, realify,
                      realify_stack, stacked_fro, unrealify, unrealify_stack)

_CG_MAX_NEW = 60
# largest eigenphase |w| a row of `ConjugationFamily.elements` takes from the
# stacked eigh; eigh rounds each phase by about eps |w|, so rows beyond it
# are re-read in extended precision (`_far_conjugates`)
_PHASE_LIMIT = 1024.0
# largest distance from a swept unit generator of an orbit cone to the
# family's closed-form cone that rounding may leave
_CERTIFIED = 1e-12
# support candidates (`ConjugationFamily._support_grid`): torus grids of 2048
# points on one parameter and 4096 (64x64, 16^3) on more; orbit draws
_TORUS_CANDIDATES, _ORBIT_CANDIDATES = (2048, 4096), 128
# Newton ascent of the support on a torus (`ConjugationFamily._ascend`):
# most steps, halvings per step, and the Hessian eigenvalue floor relative to
# sum_k |c_k| |freqs_k|^2
_NEWTON_STEPS = 32
_BACKTRACKS = 40
_NEWTON_FLOOR = 1e-9
# 2 pi to extended precision, for reducing plane-wave phases (`_waves`)
_TWO_PI = np.longdouble("6.283185307179586476925286766559005768")
# the Schur-Horn index sets of `RotationOrbit.tangent`: 3 of size 1, then 3 of 2;
# rows 2 and 5 hold the largest one and two of an ascending lam
_SUBSETS = np.vstack([np.eye(3), 1.0 - np.eye(3)[::-1]])


# ---------------------------------------------------------------------------
# analytic conjugation families
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RotationOrbit:
    """Closed-form geometry of a full-rotation orbit {R b R^T : R in SO(3)}
    of a symmetric 3x3 block b: the r3 carrier itself, or a qubit
    superoperator's coherence representation (`qubit`).

    Built only by `ConjugationFamily.exact`.  `seeds` are the family's seeds
    on its own carrier; `rates` are the eigenvalues of b, descending.  The
    closed forms: the support function (`support`), the tangent space at a
    member (`tangent`), and distance bounds to the orbit's cone that
    decide membership (`contains`).
    """

    seeds: tuple
    rates: np.ndarray
    qubit: bool

    def support(self, direction: np.ndarray):
        """Orbit element maximizing the inner product against `direction`,
        and that maximum: b's eigenvalues placed on the direction's
        eigenvectors in the same order.  On a qubit the direction is first
        projected onto the coherence image, which holds every orbit element
        (`coherence_rep`'s product Re(V^H D V)^T, without its checks)."""
        if self.qubit:
            v, vh = self._vecs
            direction = np.real(vh @ (direction @ v)).T
        w_d, v_d = eig_sym((direction + direction.T) / 2)
        g = v_d @ np.diag(self.rates) @ v_d.T
        if self.qubit:
            g = superop_from_coherence(g)
        return g, float(np.dot(self.rates, w_d))

    def tangent(self, x: np.ndarray, tol: float) -> list:
        """Matrices spanning the tangent space of K, the orbit's cone, at a
        member x.  With S = U diag(lam) U^T x's symmetric block, eps = tol
        max(1, |S|) and c_k = (mu_1 + ... + mu_k) / sum mu, the sets I with
        sum_I lam within eps of c_|I| tr S span the face F = null{1_I - c_|I|
        1}.  The list is x and the [s_i, x]; off an orbit ray (the largest one
        and two lam at c_k tr S) it adds U diag(d) U^T over F and U (e_i e_j^T
        + e_j e_i^T) U^T per tie lam_i ~ lam_j that no such I splits, on a
        qubit via `superop_from_coherence`.  [] at the apex, tr S <= eps."""
        m = np.real(self._vecs[1] @ x @ self._vecs[0]) if self.qubit else np.real(x)
        lam, u = np.linalg.eigh((m + m.T) / 2)
        tr, eps = lam.sum(), tol * max(1.0, float(np.sqrt(lam @ lam)))
        if tr <= eps:
            return []
        c = np.repeat(self._fractions, 3)
        active = _SUBSETS @ lam >= c * tr - eps
        extras = []
        if not (active[2] and active[5]):  # off an orbit ray
            face = _null_rows(_SUBSETS[active] - c[active, None], tol)
            sides = _SUBSETS[active]
            ties = [(i, j) for i, j in ((0, 1), (0, 2), (1, 2))
                    if abs(lam[i] - lam[j]) <= eps and np.array_equal(sides[:, i], sides[:, j])]
            extras = [(u * d) @ u.T for d in face] + [
                np.outer(u[:, i], u[:, j]) + np.outer(u[:, j], u[:, i]) for i, j in ties]
            extras = [superop_from_coherence(e) for e in extras] if self.qubit else extras
        return [x] + [comm(s, x) for s in self.seeds] + extras

    @cached_property
    def _vecs(self) -> tuple:
        """The qubit's coherence columns V = `_pauli_vecs(2)` and V^H."""
        v = _pauli_vecs(2)
        return v, v.conj().T

    @cached_property
    def _total(self) -> float:
        return float(np.sum(self.rates))

    @cached_property
    def _fractions(self) -> np.ndarray:
        """c_k = (mu_1 + ... + mu_k) / sum mu for k = 1, 2."""
        return np.cumsum(self.rates)[:2] / self._total

    @cached_property
    def _functionals(self) -> np.ndarray:
        """Every linear function of S's eigenvalues that `contains` reads,
        as the columns of one (3, 14) table over them in ascending order:
        -tr S / sqrt(3) and v_k over its Ky Fan denominator sqrt(k) +
        sqrt(3) c_k (the lower bound's terms), v_k, g_k, the centred
        eigenvalues lam_i - tr S / 3, the eigenvalues themselves, and tr S."""
        c, k = self._fractions, np.array([1.0, 2.0])
        tr = np.ones((3, 1))
        partial = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 1.0]]) - tr * c
        apart = np.hstack([-tr / np.sqrt(3.0), partial / (np.sqrt(k) + np.sqrt(3.0) * c)])
        return np.hstack([apart, partial, tr * (c - k / 3), np.eye(3) - 1.0 / 3.0, np.eye(3),
                          tr])

    def contains(self, xs: np.ndarray):
        """Rigorous (lower, upper) bounds on the distance from each matrix of
        the stack `xs` to K, the cone over the orbit; None when the rates sum
        to <= 0, where K is no longer cut out by Schur-Horn.

        Each x splits orthogonally into a symmetric 3x3 block S (on a qubit,
        of x's projection onto the coherence image) and a remainder "off"
        that K never reaches, so dist^2 = off^2 + dist(S, K)^2.  With lam
        the eigenvalues of S and mu the rates, both descending, K holds S
        exactly when tr S >= 0 and lam is majorized by t mu, t = tr S / sum mu
        (Schur-Horn).  Write c_k = sum_{i<=k} mu_i / sum mu,
        v_k = sum_{i<=k} lam_i - c_k tr S and g_k = (c_k - k / 3) tr S for
        k = 1, 2.
          lower: K lies in tr >= 0, which S misses by -tr S / sqrt(3); and by
            Ky Fan plus |tr E| <= sqrt(3)|E| for E = S - Y, every Y in K is at
            least v_k / (sqrt(k) + sqrt(3) c_k) from S.
          upper: for tr S >= 0 the centroid (tr S / 3) I lies in K, and the
            mix of S toward it by s = max_k v_k+ / (v_k+ + g_k) is majorized,
            so dist(S, K) <= s |S - (tr S / 3) I|; for tr S < 0, the apex 0
            gives dist(S, K) <= |S|.
        One stacked `eigvalsh` serves the whole stack, and one product with
        `_functionals`, the table of rate constants derived once per orbit,
        gives every term above from its eigenvalues, so both norms of S are
        read off them; off^2 is a sum of squares.  Every step acts slice by
        slice, so each point's bounds do not depend on the rest of the stack.
        """
        if not self._total > 0.0:
            return None
        xs = np.asarray(xs)
        if self.qubit:
            v, vh = self._vecs
            m = np.real(vh @ xs @ v)
            off = _squares(xs - v @ m @ vh)
        else:
            m = np.real(xs)
            off = _squares(np.imag(xs)) if np.iscomplexobj(xs) else 0.0
        s = (m + np.swapaxes(m, 1, 2)) / 2
        off = off + _squares(m - s)
        lam = np.linalg.eigvalsh(s)
        terms = lam @ self._functionals
        apart = terms[:, :3].max(axis=1, initial=0.0)
        vp, g_k = np.maximum(terms[:, 3:5], 0.0), np.maximum(terms[:, 5:7], 0.0)
        # a zero vp_k adds 1 to its denominator, so its ratio reads 0, not 0 / 0
        mix = (vp / (vp + g_k + (vp == 0.0))).max(axis=1)
        norms = np.square(terms[:, 7:13]).reshape(-1, 2, 3).sum(axis=2)
        inside = np.where(terms[:, 13] >= 0.0, np.square(mix) * norms[:, 0], norms[:, 1])
        return np.sqrt(off + np.square(apart)), np.sqrt(off + inside)


def _squares(xs: np.ndarray) -> np.ndarray:
    """Sum of |entry|^2 over each slice of a stack."""
    flat = xs.reshape(len(xs), prod(xs.shape[1:]))
    if np.iscomplexobj(flat):
        flat = np.concatenate([flat.real, flat.imag], axis=1)
    return np.einsum("ij,ij->i", flat, flat)


@dataclass(frozen=True)
class MomentCurve:
    """Closed-form geometry of a one-parameter orbit whose eigenphase
    differences are the integer multiples k of one unit with |k| <= d:
    theta -> sum_k e^{-ik phi} M_k, phi = unit * theta.

    Built only by `ConjugationFamily.exact`.  A conic combination of orbit
    points, the integral of the orbit against a nonnegative measure, is
    sum_k tau_k M_k for the measure's trigonometric moments tau_k =
    conj(tau_-k); by the Caratheodory-Toeplitz theorem, those are the
    moments of a nonnegative measure exactly when the (d+1)x(d+1) Hermitian
    Toeplitz matrix T(tau)_jl = tau_{j-l} is positive semidefinite.  The
    real-linear moment map (tau_0, Re tau_k, Im tau_k) -> sum_k tau_k M_k is
    injective; `basis` holds orthonormal columns spanning its image,
    realified with (Re, Im) on every carrier, and `toeplitz` the Toeplitz
    matrix of each column, so a point x of the span has T = sum_i <basis_i,
    x> toeplitz_i.  `m0_norm` is |M_0|.  `contains` and `tangent` have
    closed forms; `support` returns None.
    """

    basis: np.ndarray = field(repr=False)
    toeplitz: np.ndarray = field(repr=False)
    m0_norm: float

    @property
    def degree(self) -> int:
        return self.toeplitz.shape[1] - 1

    def support(self, direction: np.ndarray):
        return None

    def tangent(self, x: np.ndarray, tol: float) -> list:
        """Matrices spanning the tangent space of K, the orbit's cone, at a
        member x: the moment span's y with V^H T(y) V = 0, V the eigenvectors
        of T(x) whose eigenvalue is <= tol max(1, largest one), from one SVD.
        The moment map carries the positive semidefinite Toeplitz matrices
        onto K, so that is the whole span inside K, span{gamma(theta_j),
        gamma'(theta_j)} over x's atoms on a face, and nothing at the apex."""
        x = np.asarray(x)
        c = np.concatenate([x.real.ravel(), x.imag.ravel()]) @ self.basis
        lam, vecs = np.linalg.eigh(np.tensordot(c, self.toeplitz, 1))
        v = vecs[:, lam <= tol * max(1.0, lam[-1])]
        faces = (v.conj().T @ self.toeplitz @ v).reshape(len(c), -1)
        null = _null_rows(np.concatenate([faces.real, faces.imag], axis=1).T, tol)
        ys = unrealify_stack(self.basis @ null.T, x.shape, True)
        return list(ys if np.iscomplexobj(x) else ys.real)

    def contains(self, xs: np.ndarray):
        """Rigorous (lower, upper) bounds on the distance from each matrix of
        the stack `xs` to K, the cone over the orbit.

        Each x splits orthogonally into its projection Px onto the moment
        span, which holds K, and a remainder "off", so dist^2 = off^2 +
        dist(Px, K)^2.  T(Px) has least eigenvalue lam, with unit
        eigenvector v.
          upper: adding -lam to tau_0 adds -lam I to T, so for lam < 0 the
            point Px - lam M_0 lies in K, at -lam |M_0| from Px.
          lower: the functional y -> v^H T(y) v equals
            int |sum_j v_j e^{ij phi}|^2 dmu >= 0 on K (Fejer-Riesz) and lam
            at Px; written <Y_v, y>, with Y_v = sum_i (v^H toeplitz_i v)
            basis_i, it puts every point of K at least -lam / |Y_v| from Px.
        One stacked `eigh` of the Toeplitz matrices serves the whole stack,
        with the Toeplitz table reshaped once per curve (`_table`); every
        product is taken slice by slice, so each point's bounds do not depend
        on the rest of the stack.
        """
        xs = np.asarray(xs)
        flat = xs.reshape(len(xs), 1, prod(xs.shape[1:]))
        flat = np.concatenate([np.real(flat), np.imag(flat)], axis=2)
        c = flat @ self.basis
        off = np.sqrt(_squares(flat - c @ self.basis.T))
        table, n = self._table, self.degree + 1
        lam, vecs = np.linalg.eigh((c @ table).reshape(-1, n, n))
        gap = np.maximum(-lam[:, 0], 0.0)
        v = vecs[:, :, 0]
        normal = np.real((np.conj(v)[:, :, None] * v[:, None, :]).reshape(-1, 1, n * n)
                         @ table.T)
        lower = np.hypot(off, gap / np.sqrt(_squares(normal)))
        upper = np.hypot(off, gap * self.m0_norm)
        return lower, upper

    @cached_property
    def _table(self) -> np.ndarray:
        """`toeplitz` as one (m, (d+1)^2) table, reshaped once."""
        m, n, _ = self.toeplitz.shape
        return self.toeplitz.reshape(m, n * n)


def _exp_near_diagonal(b: np.ndarray) -> np.ndarray:
    """expm(-i b) for a stack of b = diag(d) + f with f small off its
    diagonal, to first order in f: diag(exp(-i d)) plus f_jk times the
    divided difference of exp(-i .) at (d_j, d_k), written as
    -i exp(-i (d_j + d_k) / 2) sinc((d_k - d_j) / 2) so that it stays
    exact as d_j and d_k meet.  The dropped term is O(|f|^2)."""
    n = b.shape[-1]
    d = np.diagonal(b, axis1=-2, axis2=-1)
    half = (d[:, None, :] - d[:, :, None]) / 2
    nonzero = np.where(half == 0, 1, half)
    sinc = np.where(half == 0, 1, np.sin(nonzero) / nonzero)
    mid = np.exp(-1j * (d[:, :, None] + d[:, None, :]) / 2)
    off = b * (1 - np.eye(n))
    return np.exp(-1j * d)[:, :, None] * np.eye(n) - 1j * off * mid * sinc


def _far_conjugates(thetas: np.ndarray, seeds: np.ndarray, v: np.ndarray,
                    g: np.ndarray) -> np.ndarray:
    """expm(A) g expm(-A), A = sum_i theta_i seed_i, per row of `thetas`,
    in long double from the double eigenvectors v of i*A.

    v, made unitary by one Newton-Schulz step, brings i*A to b = diag(d) +
    f with f of order eps |A|; `_exp_near_diagonal` of b and of -b gives
    the two exponentials, which also carry whatever part of the seeds is not
    skew.  The error is of order eps_ld |A| (eps_ld = 1.1e-19 on x86-64)
    where the stacked eigh leaves eps |A|; where long double is double
    there is no gain."""
    ld = np.clongdouble
    n = v.shape[-1]
    v = v.astype(ld)
    v = v @ (1.5 * np.eye(n) - 0.5 * (np.conj(np.swapaxes(v, -1, -2)) @ v))
    vh = np.conj(np.swapaxes(v, -1, -2))
    b = vh @ (1j * np.tensordot(thetas.astype(np.longdouble), seeds.astype(ld), axes=1)) @ v
    return (v @ _exp_near_diagonal(b) @ vh @ g.astype(ld)
            @ v @ _exp_near_diagonal(-b) @ vh).astype(complex)


def _frequency_units(m, freqs, index):
    """The unit rule of a torus from its `_phases` (m, freqs, index): the
    mask of frequencies carrying the base (a part > 1e-12 |m|); per axis,
    over the live ones (carrying, and above the merge tolerance 1e-12 max(1,
    max|freqs|) there, below which a component is noise), their least
    magnitude u_i (1 if none), multiples rint(freq / u_i) (else 0), and
    whether each is within 1e-9 relative of its multiple (near-resonant
    counts as resonant), so that 2 pi / u_i is a period."""
    part = np.sqrt(np.bincount(index, np.abs(m.ravel()) ** 2, len(freqs)))
    carried = part > 1e-12 * fro(m)
    live = carried[:, None] & (np.abs(freqs) > 1e-12 * max(1.0, float(np.abs(freqs).max())))
    size = np.where(live, np.abs(freqs), np.inf).min(axis=0)
    units = np.where(np.isfinite(size), size, 1.0)
    steps = np.where(live, np.rint(freqs / units), 0.0)
    integral = ~np.any(live & (np.abs(freqs - steps * units) > 1e-9 * np.abs(freqs)), axis=0)
    return carried, units, steps, integral


def _moment_curve(q, m, index, units):
    """The `MomentCurve` of a one-parameter family from its `_phases` (q, m,
    index) and `_frequency_units` tuple, or None unless, by that unit rule,
    the frequencies carrying the base are the integer multiples k of one
    unit for every k in -d..d, and the moment map is injective (singular
    values above `RANK_TOL` of the largest)."""
    carried, _, steps, integral = units
    if not integral[0]:
        return None
    k = steps[:, 0]
    d = int(k[carried].max(initial=0))
    if not np.array_equal(np.unique(k[carried]), np.arange(-d, d + 1)):
        return None
    ks = np.where(carried, k, np.inf)[index].reshape(m.shape)
    parts = {j: q @ (m * (ks == j)) @ q.conj().T for j in range(-d, d + 1)}
    cols = [parts[0]]
    for j in range(1, d + 1):
        cols += [parts[j] + parts[-j], 1j * (parts[j] - parts[-j])]
    moment_map = realify_stack(cols, m.shape, True)
    s = np.linalg.svd(moment_map, compute_uv=False)
    if s[-1] <= RANK_TOL * s[0]:
        return None
    basis, r = np.linalg.qr(moment_map)
    # coordinates (tau_0, Re tau_k, Im tau_k) of each basis column, and the
    # Toeplitz matrix T_jl = tau_{j-l} of each
    p = np.linalg.inv(r).T
    tau = p[:, 1::2] + 1j * p[:, 2::2]
    lags = np.concatenate([np.conj(tau[:, ::-1]), p[:, :1], tau], axis=1)
    toeplitz = lags[:, np.subtract.outer(np.arange(d + 1), np.arange(d + 1)) + d]
    return MomentCurve(basis, toeplitz, fro(parts[0]))


@dataclass(frozen=True)
class ConjugationFamily:
    """Parameterized family theta -> Ad_{expm(sum theta_i seed_i)}(base).

    A family is its seeds, which must be skew (r3) or anti-Hermitian
    (superoperators), and its base; the constructor rejects any other seed.
    Everything else derives from them.  ``kind`` is 'torus' when the seeds
    co-diagonalise (`_phases`): one frequency table gives the box
    ``periods`` (2 pi / u_i by `_frequency_units`), sweep, support search
    and closed forms, and ``periodic`` says if the box is a true period;
    its units (`_units`) are derived once, and the box, `periodic` and the
    one-parameter closed form all read them.
    Otherwise it is 'orbit' (random exponentials of the seeds' span).
    Callers pass a base orthogonal to the edge the seeds span; since edge
    conjugation is an isometry fixing the edge, every family element stays
    orthogonal to it.  Every element comes from the kernel `elements`.
    """

    seeds: tuple
    base: np.ndarray

    def __post_init__(self):
        if len(self.seeds) == 0 or any(fro(s + s.conj().T) > 1e-10 * max(1.0, fro(s))
                                       for s in self._seed_stack):
            raise ValueError("a family needs one or more skew/anti-Hermitian seeds")

    @property
    def n_params(self) -> int:
        return len(self.seeds)

    @cached_property
    def _seed_stack(self) -> np.ndarray:
        return np.stack(self.seeds)

    @property
    def kind(self) -> str:
        return "orbit" if self._phases is None else "torus"

    @property
    def periods(self):
        """The torus box, 2 pi / u_i per parameter; None on an orbit."""
        units = self._units
        return None if units is None else tuple((2.0 * np.pi / units[1]).tolist())

    @property
    def periodic(self) -> bool:
        """Whether the family is a torus whose box is a true period."""
        return self._units is not None and bool(self._units[3].all())

    @cached_property
    def _units(self):
        """`_frequency_units` of the torus's frequency table, derived once;
        None on an orbit."""
        return None if self._phases is None else _frequency_units(*self._phases[1:])

    @cached_property
    def _phases(self):
        """Co-diagonalization of the (commuting, anti-Hermitian) seeds and
        the merged frequency table of f(theta) = <element(theta), D>.

        Returns (q, m, freqs, index): the joint eigenbasis q, the base m in
        it, the distinct rows of the (n^2, n_params) eigenphase-difference
        array (rows within 1e-12 * max(1, max|delta|) of an earlier row count
        as equal; first occurrences, in order) and, for each matrix entry,
        the row of its difference.  Lets `_objective` evaluate f as one
        exponential per distinct frequency instead of conjugating every
        parameter vector.  None when the seeds do not commute.
        """
        hs = [1j * np.asarray(s, dtype=complex) for s in self.seeds]
        if len(hs) == 1:
            w0, q = np.linalg.eigh(hs[0])
            ws = [w0]
        else:
            # commuting seeds: a generic combination separates the joint
            # eigenbasis; its weights, powers of 1 / pi, are independent over
            # the algebraic numbers, so no relation of the spectra cancels
            _, q = np.linalg.eigh(sum((h / np.pi ** k for k, h in enumerate(hs[1:], 1)), hs[0]))
            ws = [np.real(np.diag(q.conj().T @ h @ q)) for h in hs]
            if not all(np.linalg.norm(q.conj().T @ h @ q - np.diag(w)) < 1e-8
                       for h, w in zip(hs, ws)):
                return None
        m = q.conj().T @ np.asarray(self.base, dtype=complex) @ q
        deltas = np.stack([(w[:, None] - w[None, :]).ravel() for w in ws], axis=1)
        tol = 1e-12 * max(1.0, float(np.abs(deltas).max()))
        same = np.all(np.abs(deltas[:, None, :] - deltas[None, :, :]) <= tol, axis=2)
        first = np.argmax(same, axis=1)
        rows, index = np.unique(first, return_inverse=True)
        return q, m, deltas[rows], index

    def elements(self, thetas, g: np.ndarray = None) -> np.ndarray:
        """Ad_{expm(sum_i theta_i seed_i)}(g) for every row of `thetas`.

        `thetas` is a (k, n_params) stack; `g` (default: the base) is one
        matrix or a stack of k.  One stacked eigh of i*A = V diag(w) V^dag
        gives expm(A) = V diag(e) V^dag with e = exp(-i w), so
        Ad(g) = V ((V^dag g V) * e e^dag) V^dag; real seeds and a real g
        give a real result.  That rounds each phase by about eps |w|, so a
        row with a phase beyond `_PHASE_LIMIT` (a torus box far larger than
        its shortest wavelength) is redone by `_far_conjugates`.
        """
        g = self.base if g is None else np.asarray(g)
        thetas = np.asarray(thetas, dtype=float).reshape(-1, self.n_params)
        a = np.tensordot(thetas, self._seed_stack, axes=1)
        w, v = np.linalg.eigh(1j * a)
        e = np.exp(-1j * w)
        vh = np.conj(np.swapaxes(v, -1, -2))
        out = v @ ((vh @ g @ v) * (e[:, :, None] * np.conj(e[:, None, :]))) @ vh
        far = np.abs(w).max(axis=1) > _PHASE_LIMIT
        if far.any():
            out[far] = _far_conjugates(thetas[far], self._seed_stack, v[far],
                                       g if g.ndim == 2 else g[far])
        if np.iscomplexobj(a) or np.iscomplexobj(g):
            return out
        return np.ascontiguousarray(out.real)

    def conjugate(self, g: np.ndarray, params) -> np.ndarray:
        return self.elements([params], g)[0]

    def element(self, params) -> np.ndarray:
        return self.elements([params])[0]

    def params(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """Parameter rows of a sweep: n uniform points per parameter over a
        torus's box (n = count for one parameter, else the least n >= 2 with
        n^p >= count, the last fastest), `count` seeded normal draws on an
        orbit; no row for a count below 1."""
        p = self.n_params
        if count < 1:
            return np.zeros((0, p))
        if self.kind == "orbit":
            return rng.normal(scale=np.pi / np.sqrt(p), size=(count, p))
        n = count if p == 1 else max(2, next(n for n in range(1, count + 1) if n ** p >= count))
        axes = np.meshgrid(*(np.arange(n) * (box / n) for box in self.periods), indexing="ij")
        return np.stack([t.ravel() for t in axes], axis=1)

    def sweep(self, count: int, rng: np.random.Generator):
        """Deterministic grid (torus) or random exponentials (orbit)."""
        thetas = self.params(count, rng)
        return list(zip(thetas, self.elements(thetas)))

    # -- support function -------------------------------------------------

    def _objective(self, direction: np.ndarray):
        """theta stack -> <element(theta), direction>, one value per row.

        On a torus, f is a trigonometric polynomial: the per-entry
        coefficients are summed once per distinct frequency with `bincount`,
        so `f(thetas, waves=None)` is Re(exp(i theta . freqs^T) c), one
        exponential per frequency, or `waves` when the caller has them.  On
        an orbit it takes inner products of `elements`."""
        if self.kind == "orbit":
            return lambda thetas: np.real(np.sum(np.conj(self.elements(thetas)) * direction,
                                                 axis=(1, 2)))
        c = self._coefficients(direction)
        return lambda thetas, waves=None: np.real(
            (self._waves(thetas) if waves is None else waves) @ c)

    def _coefficients(self, direction: np.ndarray) -> np.ndarray:
        """Coefficients c of f(theta) = Re sum_k c_k exp(i theta . freqs_k),
        one per merged frequency of `_phases`."""
        q, m, freqs, index = self._phases
        coeff = (np.conj(m) * (q.conj().T @ np.asarray(direction, dtype=complex) @ q)).ravel()
        return (np.bincount(index, coeff.real, len(freqs))
                + 1j * np.bincount(index, coeff.imag, len(freqs)))

    def _ascend(self, c: np.ndarray, theta: np.ndarray) -> np.ndarray:
        """Safeguarded Newton ascent on a torus's f(theta) = Re sum_k c_k
        exp(i theta . freqs_k) from `theta`.  With w_k = c_k exp(i theta .
        freqs_k), the gradient is -Im sum_k freqs_k w_k and the Hessian -Re
        sum_k w_k freqs_k freqs_k^T.  Each Hessian eigenvalue is replaced by
        its absolute value, floored at `_NEWTON_FLOOR` sum_k |c_k|
        |freqs_k|^2 (a bound on the Hessian's norm), so every step ascends,
        a scaled gradient step where a degenerate torus's Hessian is
        singular.  A step is halved until f is no lower, up to its rounding;
        the ascent stops at a rounding-level gradient, a rejected step, or
        after `_NEWTON_STEPS` steps.  It steps from `theta`, with c shifted
        there, so on a box of thousands the phases it compares stay small."""
        freqs = self._phases[2]
        size = np.abs(c)
        gtol = 1e-13 * float(size @ np.linalg.norm(freqs, axis=1))
        floor = _NEWTON_FLOOR * float(size @ np.einsum("ij,ij->i", freqs, freqs))
        slack = 8.0 * np.finfo(float).eps * float(size.sum())
        c = c * np.exp(1j * (freqs @ theta))
        start, theta, w = np.array(theta, dtype=float), np.zeros(len(theta)), c
        current = float(w.real.sum())
        for _ in range(_NEWTON_STEPS):
            grad = -(freqs.T @ w.imag)
            if np.linalg.norm(grad) <= gtol:
                break
            lam, vec = np.linalg.eigh(-(freqs.T * w.real) @ freqs)
            step = vec @ ((vec.T @ grad) / np.maximum(np.abs(lam), floor))
            for _ in range(_BACKTRACKS):
                trial = theta + step
                w_trial = c * np.exp(1j * (freqs @ trial))
                score = float(w_trial.real.sum())
                if score >= current - slack:
                    break
                step = step / 2.0
            else:
                break
            theta, w, current = trial, w_trial, score
        return start + theta

    def _waves(self, thetas) -> np.ndarray:
        """Plane waves exp(i theta . freqs^T) of a theta stack, one row per
        theta and one column per merged frequency, the phases reduced mod 2
        pi in `np.longdouble`: doubles round by 1e-12 on a box of thousands."""
        thetas = np.atleast_2d(np.asarray(thetas, dtype=float)).astype(np.longdouble)
        freqs = self._phases[2].astype(np.longdouble)
        phase = sum(np.multiply.outer(thetas[:, i], freqs[:, i]) for i in range(self.n_params))
        return np.exp(1j * np.remainder(phase, _TWO_PI).astype(float))

    @cached_property
    def _support_grid(self):
        """Support candidates, built on first use: the `params` rows of a
        sweep, on a torus the grid of `_TORUS_CANDIDATES` points with their
        plane waves, on an orbit `_ORBIT_CANDIDATES` draws seeded with 0."""
        orbit = self.kind == "orbit"
        count = _ORBIT_CANDIDATES if orbit else _TORUS_CANDIDATES[self.n_params > 1]
        thetas = self.params(count, np.random.default_rng(0))
        return thetas, None if orbit else self._waves(thetas)

    def support(self, direction: np.ndarray):
        """Family element maximizing the inner product against `direction`,
        and that maximum.

        Exact where `exact` holds a closed form that maps the direction
        (eigenvector alignment for full-rotation orbits, see
        `RotationOrbit.support`).  Otherwise the best of the family's fixed
        candidates `_support_grid` (on a torus a grid over its box, 2048
        points on one parameter, 64x64 on two, 16 per axis on three; on an
        orbit 128 draws seeded with 0), refined once from there: on a torus
        by a safeguarded Newton ascent on the trigonometric polynomial
        (`_ascend`), on an orbit by Nelder-Mead.  So the result depends on
        the family and the direction alone.  A torus builds the candidates'
        plane waves once (see `_objective`) and scores them as one product
        with the direction's coefficients.  The refinement is kept when it
        scores at least as well, so the sampled result can only
        under-estimate the true support (inner approximation).
        """
        if self.exact is not None:
            aligned = self.exact.support(direction)
            if aligned is not None:
                return aligned
        f = self._objective(direction)
        thetas, waves = self._support_grid
        vals = f(thetas) if waves is None else f(thetas, waves)
        k = int(np.argmax(vals))
        if self.kind == "torus":
            params = self._ascend(self._coefficients(direction), thetas[k])
            value = float(f(params)[0])
        else:
            from scipy.optimize import minimize
            res = minimize(lambda p: -float(f(p)[0]), x0=thetas[k], method="Nelder-Mead",
                           options={"xatol": 1e-10, "fatol": 1e-14, "maxiter": 400})
            params, value = res.x, float(-res.fun)
        if value < vals[k]:
            params, value = thetas[k], float(vals[k])
        return self.element(params), value

    @cached_property
    def _orbit_span(self):
        """The orbit's linear span (`Cone.span`), computed once per family,
        so every cone over the family shares it."""
        return lie_closure([self.base], by=self.seeds)

    @cached_property
    def exact(self):
        """The family's closed-form geometry, or None.

        A `RotationOrbit` when three seeds generate every rotation of the
        3x3 block (the r3 carrier itself, or a qubit superoperator through
        `coherence_rep`) and the base is symmetric there.  A `MomentCurve`
        for one seed whose eigenphase differences, where the base has a
        part, are the multiples -d..d of one unit with none missing, and
        whose moment map is injective (see `_moment_curve`); one-parameter
        cone membership is then exact (`Cone.exact`).  Every
        caller that can use a closed form asks here first and samples
        otherwise.
        """
        if self.n_params == 1:
            q, m, _, index = self._phases
            return _moment_curve(q, m, index, self._units)
        if self.n_params != 3 or self.base.shape not in ((3, 3), (4, 4)):
            return None
        qubit = self.base.shape == (4, 4)
        try:
            base = coherence_rep(self.base) if qubit else self.base
            seeds = [coherence_rep(s) for s in self.seeds] if qubit else self.seeds
        except ValueError:
            return None
        base_sym = (base + base.T) / 2
        if fro(base_sym - base) > 1e-10 * max(1.0, fro(base)):
            return None
        if _span_columns(realify_stack(seeds, (3, 3), False)).shape[1] != 3:
            return None  # the seeds generate a proper subgroup of the rotations
        return RotationOrbit(self.seeds, eig_sym(base_sym)[0], qubit)


# ---------------------------------------------------------------------------
# cones
# ---------------------------------------------------------------------------

@dataclass(frozen=True, init=False, eq=False)
class Cone:
    """Convex cone, held by its generators or by an orbit family.

    Without a family it stores its generators as `stack`, realified unit
    columns under the trace inner product (zero matrices dropped).  With a
    family (`analytic`) it is the cone over the base's orbit and holds the
    family and `thetas`, the rows of one sweep (none by default); `stack` is
    swept on first read, and `n_generators` is 1 + len(thetas).  Generators
    with a family, or `thetas` without one, raise ValueError.  `generators`
    are derived from the stack, `span` once, and `pointed` from `lineality`.
    """

    shape: tuple
    complex_field: bool
    analytic: ConjugationFamily = None
    thetas: np.ndarray = field(default=None, repr=False)
    tol: float = 1e-8

    def __init__(self, generators=(), *, shape, complex_field, analytic=None, thetas=None,
                 tol=1e-8):
        if len(generators) if analytic is not None else thetas is not None:
            raise ValueError("a cone holds generators, or a family and its sweep rows (thetas)")
        if analytic is None:
            stack = realify_stack(generators, shape, complex_field)
            norms = np.linalg.norm(stack, axis=0)
            self.__dict__["stack"] = stack[:, norms > 0] / norms[norms > 0]
        else:
            thetas = np.reshape(() if thetas is None else thetas, (-1, analytic.n_params))
        self.__dict__.update(shape=shape, complex_field=complex_field, analytic=analytic,
                             thetas=thetas, tol=tol)

    @cached_property
    def stack(self) -> np.ndarray:
        """A family cone's unit columns, one evaluation of the orbit: the base
        and `elements(thetas)` off the seeds' span (orthonormal seeds as is)."""
        fam = self.analytic
        points = realify_stack([fam.base, *fam.elements(self.thetas)], self.shape,
                               self.complex_field)
        seeds = realify_stack(fam.seeds, self.shape, self.complex_field)
        if not np.allclose(seeds.T @ seeds, np.eye(fam.n_params), rtol=0.0, atol=1e-12):
            seeds = _span_columns(seeds)
        return _edge_orthogonal_units(Subspace(seeds, self.shape, self.complex_field), points)

    @cached_property
    def generators(self) -> tuple:
        return tuple(unrealify_stack(self.stack, self.shape, self.complex_field))

    @cached_property
    def pointed(self):
        """Whether `lineality` at the cone's tol is {0}; None for a cone
        without generators."""
        return lineality(self).dim == 0 if self.n_generators else None

    @property
    def n_generators(self) -> int:
        return self.stack.shape[1] if self.analytic is None else 1 + len(self.thetas)

    def span(self) -> Subspace:
        """The cone's linear span, computed once.  With a family it is the
        orbit's, exact and independent of the sweep: the smallest subspace
        that holds the base and is closed under every [seed, .]
        (`lie_closure` with the seeds as its bracket set), computed once per
        family and shared by every cone over it.  Otherwise it is the stored
        generators' span."""
        return self._span

    @cached_property
    def _span(self) -> Subspace:
        if self.analytic is not None:
            return self.analytic._orbit_span
        return Subspace(_span_columns(self.stack), self.shape, self.complex_field)

    @cached_property
    def exact(self):
        """The family's closed form (`ConjugationFamily.exact`) where its
        bounds decide membership, else None: the cone is the family's orbit
        cone, so everywhere but on a rotation orbit whose rates sum to <= 0,
        which Schur-Horn does not cut out (`RotationOrbit.contains`)."""
        exact = None if self.analytic is None else self.analytic.exact
        return None if isinstance(exact, RotationOrbit) and not exact._total > 0.0 else exact


def nnls(a: np.ndarray, b: np.ndarray) -> tuple:
    """scipy's `nnls(a, b)`; `scipy.optimize` is imported on the first fit,
    not with this module."""
    from scipy.optimize import nnls as _nnls
    return _nnls(a, b)


def _cone_fit(c: Cone, x: np.ndarray, target: float = None) -> tuple:
    """Nonnegative fit of x by the cone; returns (residual norm, fit).

    Solves nonnegative least squares over the stored generators; while the
    residual stays above `target` (default: cone tolerance, relative) and
    an analytic family is attached, support elements of the family are
    appended (to a working copy only, at most `_CG_MAX_NEW` of them) and
    the problem re-solved.  The fit is always a genuine cone member (inner
    approximation); the residual is the one NNLS reports, which can fall a
    few percent below |x - fit| (see `cone_residual`).  Support elements
    come from the family's fixed candidates, so the fit is deterministic in
    (cone, x, target).
    """
    b = realify(x, c.complex_field)
    nb = fro(b)
    zero = np.zeros(c.shape, dtype=complex if c.complex_field else float)
    if c.stack.shape[1] == 0 and c.analytic is None:
        return float(nb), zero
    a = c.stack
    if target is None:
        target = c.tol * max(1.0, nb)
    coef, rnorm = nnls(a, b) if a.shape[1] else (np.zeros(0), nb)
    if c.analytic is None:
        fit = a @ coef if a.shape[1] else b * 0.0
        return float(rnorm), unrealify(fit, c.shape, c.complex_field)
    added = 0
    # Boundary shortcut: for x on an extreme ray the residual-driven gain
    # vanishes quadratically with the angular error, so column generation
    # stalls; aligning the family against x itself certifies such points
    # with a single extra column.
    if rnorm > target:
        g, _val = c.analytic.support(x)
        ng = fro(g)
        if ng > 0.0:
            a = np.concatenate([a, realify(g / ng, c.complex_field)[:, None]],
                               axis=1)
            coef, rnorm = nnls(a, b)
            added += 1
    while rnorm > target and added < _CG_MAX_NEW:
        r = b - (a @ coef if a.shape[1] else 0.0)
        direction = unrealify(r, c.shape, c.complex_field)
        g, _val = c.analytic.support(direction)
        ng = fro(g)
        if ng == 0.0:
            break
        col = realify(g / ng, c.complex_field)
        gain = float(col @ r)
        if gain <= 1e-14 * max(1.0, np.linalg.norm(r)):
            break
        a = np.concatenate([a, col[:, None]], axis=1)
        coef, new_rnorm = nnls(a, b)
        stalled = new_rnorm > rnorm - 1e-15
        rnorm = new_rnorm
        if stalled:
            break
        added += 1
    fit = a @ coef if a.shape[1] else b * 0.0
    return float(rnorm), unrealify(fit, c.shape, c.complex_field)


def cone_residual(c: Cone, x: np.ndarray) -> float:
    """Distance from x to its `_cone_fit` fit, a cone member, so at least the
    distance to the cone.  Measured as |x - fit|: the residual NNLS reports
    can fall below it (by up to 7% on a phase_flip orbit cone), and on a real
    carrier this counts an imaginary part of x."""
    return fro(np.asarray(x) - _cone_fit(c, x)[1])


def _checked_query(x, shape: tuple, tol, stacked: bool = True) -> tuple:
    """(xs, single, tol): x as a (k, *shape) stack, one matrix of the
    carrier's shape as k = 1 and `single` true, and tol as a float, after
    rejecting an x that is neither (a stack only where `stacked`), an x that
    is not finite and a tol that is not positive and finite, any of which
    makes a membership verdict meaningless.  A stack of no carrier gets its
    own message."""
    x, shape = np.asarray(x), tuple(shape)
    single = x.shape == shape
    if not single and (not stacked or x.ndim <= len(shape)):
        raise ValueError(f"x must have the carrier's shape {shape}, got {x.shape}")
    if not single and x.shape[1:] != shape:
        raise ValueError(f"a stack x must have the shape (k, {', '.join(map(str, shape))}) "
                         f"of k carrier matrices, got {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError("x must be finite, got a non-finite entry")
    return (x[None] if single else x), single, _checked_tol(tol)


def _membership(c: Cone, x, tol, edge: Subspace = None, stacked: bool = True) -> tuple:
    """The one membership pass of `cone_contains` (no edge) and
    `wedge_contains`: (single, member mask, edge-orthogonal parts) of x,
    checked by `_checked_query` with `stacked`, tol defaulting to the
    cone's.

    With an edge, one realified projection of the whole stack gives each
    point's edge-orthogonal part p; on a real carrier p keeps any imaginary
    part of x.  A point with |p| <= tol max(1, |x|) is a member.  Every
    other point is decided on the cone at the threshold tol max(1, |p|):
    one `_exact_verdicts` call over the stack, then `cone_residual` for
    the points whose bounds straddle it, or all of them where no closed
    form decides the cone.  Norms come from `stacked_fro`, bitwise `fro`,
    and the projection and the bounds act slice by slice, so each verdict
    is the one its point gets alone."""
    xs, single, tol = _checked_query(x, c.shape, c.tol if tol is None else tol, stacked)
    perp = xs
    if edge is not None:
        q, cplx = edge.stack, edge.complex_field
        n = prod(c.shape)
        rows = xs.reshape(len(xs), n)
        if cplx:
            rows = np.concatenate([np.real(rows), np.imag(rows)], axis=1)
        proj = (q @ (q.T @ np.real(rows).astype(float, copy=False)[:, :, None]))[:, :, 0]
        perp = xs - (proj[:, :n] + 1j * proj[:, n:] if cplx else proj).reshape(xs.shape)
    size = stacked_fro(perp)
    bounds = tol * np.maximum(1.0, size)
    decided, member = _exact_verdicts(c, perp, bounds)
    if edge is not None:
        near = size <= tol * np.maximum(1.0, stacked_fro(xs))
        decided, member = decided | near, member | near
    if not decided.all():
        for i in np.flatnonzero(~decided):
            member[i] = cone_residual(c, perp[i]) <= bounds[i]
    return single, member, perp


def cone_contains(c: Cone, x: np.ndarray, tol: float = None):
    """Whether x lies within tol * max(1, |x|) of the cone: a bool for one
    matrix, and for a (k, *shape) stack an array of k verdicts, each the
    one its matrix gets alone.

    Where the cone has a closed form that decides it (`Cone.exact`: Schur-Horn on
    full-rotation orbits, Caratheodory-Toeplitz on one-parameter orbits),
    its distance bounds decide first, from one call for the whole stack: a
    lower bound above the threshold is a non-member, an upper bound at or
    below it a member, so the verdict is exact.  The closed forms derive
    their constants once per family (the rotation orbit's rate sums and Ky
    Fan denominators, the moment curve's Toeplitz table).  Otherwise, and
    for x whose bounds straddle the threshold, the distance to the
    `_cone_fit` fit decides (`cone_residual`); the fit is a cone member, so
    that path errs only towards "not a member".  Either way the verdict is
    deterministic in (cone, x, tol).  On a real carrier, an imaginary part
    of x counts in the distance.  One pass (`_membership`) serves this and
    `wedge_contains`.
    """
    single, member, _ = _membership(c, x, tol)
    return bool(member[0]) if single else member


def _exact_verdicts(c: Cone, xs: np.ndarray, bounds: np.ndarray) -> tuple:
    """(decided, member) masks over the stack `xs` from the distance bounds
    of `Cone.exact`, in one call: a lower bound above the point's entry of
    `bounds` decides "outside", an upper bound at or below it "member";
    nothing is decided where the bounds straddle it or no closed form
    decides the cone."""
    if c.exact is None:
        return np.zeros(len(xs), dtype=bool), np.zeros(len(xs), dtype=bool)
    lower, upper = c.exact.contains(xs)
    outside = lower > bounds
    member = ~outside & (upper <= bounds)
    return outside | member, member


def lineality(c: Cone, tol: float = None) -> Subspace:
    """Directions g with both g and -g in the cone, with `tol` (default: the
    cone's) positive and finite; anything else raises ValueError.

    With a family, the cone is cone(K b), over the orbit of the family's
    base b under the group K its seeds s_i generate, so its swept
    generators do not enter.  The answer is exact, from the Haar
    centroid c of the orbit, the projection of b onto the fixed space
    {x : [s_i, x] = 0}.  Every orbit point g has <c, g> = |c|^2, so c != 0
    makes the cone pointed, with margin |c| / |b| on every unit generator;
    c = 0 puts the centroid at the apex, so the cone is the orbit's linear
    span V, the smallest subspace that contains b and is closed under every
    [s_i, .] (`Cone.span`, computed once per cone).  Conjugation
    fixes the identity, so |Re tr b| / sqrt(N) <= |c| on an N x N carrier,
    and a trace margin above `tol` decides "pointed" without V.  Otherwise
    c is b minus its projection onto the brackets [s_i, V], which span V's
    part off the fixed space, and the cone is pointed when |c| > tol |b|,
    else its lineality is V.  No fit is made.
    Without a family, an empty or one-generator cone is pointed, and a
    larger one keeps the generators whose negatives one stacked
    `cone_contains` call finds in the cone, by plain nonnegative fits.
    """
    tol = _checked_tol(c.tol if tol is None else tol)
    pointed = orthonormal_span([], shape=c.shape, complex_field=c.complex_field)
    if c.analytic is not None:
        seeds, b = c.analytic.seeds, c.analytic.base
        margin = tol * fro(b)
        if abs(np.trace(b).real) > margin * np.sqrt(b.shape[0]):
            return pointed
        span = c.span()
        brackets = comm(np.asarray(seeds)[:, None], np.reshape(span.mats, (1, -1, *c.shape)))
        off = _span_columns(realify_stack(brackets.reshape(-1, *c.shape), c.shape,
                                          span.complex_field))
        rb = realify(b, span.complex_field)
        return pointed if np.linalg.norm(rb - off @ (off.T @ rb)) > margin else span
    if c.n_generators <= 1:
        return pointed
    gens = np.asarray(c.generators)
    return orthonormal_span(gens[cone_contains(c, -gens, tol)], shape=c.shape,
                            complex_field=c.complex_field)


# ---------------------------------------------------------------------------
# wedges
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Wedge:
    """edge + (-cone) with the report of the saturation that built it."""

    edge: Subspace
    cone: Cone
    drift: np.ndarray = None
    saturation: dict = field(default_factory=dict)

    @property
    def dim(self) -> int:
        """Linear dimension of edge plus cone span (`Cone.span`, exact with a
        family): the span's edge-orthogonal parts, with remainders of norm
        <= 1e-12 dropped as `saturate` does, counted from their singular
        values alone (`_rank`)."""
        return self.edge.dim + _rank(_edge_orthogonal_units(self.edge, self.cone.span().stack))

    @cached_property
    def algebra(self) -> Subspace:
        """The system's Lie algebra, `lie_closure` of the edge and the drift,
        which holds every wedge of the system; a wedge without a drift
        closes its edge with its cone's span instead."""
        extra = (self.drift,) if self.drift is not None else self.cone.span().mats
        return lie_closure([*self.edge.mats, *extra])

    @cached_property
    def abelian_modulo_edge(self) -> bool:
        """Whether every bracket of the wedge's span V, edge plus `Cone.span`,
        lies in the edge E.  Then every nested bracket of the BCH series of
        log(e^a e^b) lies in E, so for members a, b the product is a + b
        plus an edge element, itself a member: the wedge is a Lie
        semialgebra, certified.  One broadcast `comm` call forms the table
        [v_i, v_j], i < j, over an orthonormal basis v of a span U that
        holds V; it holds when the largest part of a bracket off E is at
        most 1e-12.  Without a family U is V.  With one, U is E plus the
        base and the seeds, which needs no orbit span: if the table holds
        on U, E + base is closed under every [seed, .], so the orbit, and
        V, lie in U; and where the seeds lie in E, as `saturate` and
        `orbit_wedge` build them, U is E + base, inside V, and the verdict
        is V's.  The base and seeds enter as unit columns off E, so the
        rank cut, relative to the largest singular value, reads the same
        at every scale of the rates."""
        shape, complex_field = self.cone.shape, self.cone.complex_field
        fam = self.cone.analytic
        if fam is None:
            extra = self.cone.span().stack
        else:
            cols = realify_stack([fam.base, *fam.seeds], shape, complex_field)
            norms = np.linalg.norm(cols, axis=0)
            extra = _edge_orthogonal_units(self.edge, cols[:, norms > 0] / norms[norms > 0])
        basis = unrealify_stack(_span_columns(np.hstack([self.edge.stack, extra])), shape,
                                complex_field)
        i, j = np.triu_indices(len(basis), 1)
        cols = realify_stack(comm(basis[i], basis[j]), shape, complex_field)
        q = self.edge.stack
        return bool(np.linalg.norm(cols - q @ (q.T @ cols), axis=0).max(initial=0.0) <= 1e-12)


def wedge_contains(w: Wedge, x: np.ndarray, tol: float = None):
    """Membership of x in edge + cone (positive picture): a bool for one
    matrix, and for a (k, *shape) stack an array of k verdicts, each the
    one its matrix gets alone.  The edge component is unconstrained: x is
    a member when its edge-orthogonal part p has |p| <= tol max(1, |x|),
    and otherwise when p lies in the cone, decided as `cone_contains`
    decides it with the same tol.  One pass (`_membership`) checks the
    input once, projects the whole stack off the edge once and takes the
    cone's closed-form bounds in one call."""
    single, member, _ = _membership(w.cone, x, tol, w.edge)
    return bool(member[0]) if single else member


def outer_contains(w: Wedge, x: np.ndarray, tol: float = None) -> bool:
    """Whether x lies within tol * max(1, |x|) of the system's Lie algebra
    (`Wedge.algebra`) and has `gks_margin(x) >= -tol`, inputs checked and
    tol defaulting as in `wedge_contains`.  Every wedge `saturate` builds
    for the system lies in this outer wedge, so False certifies that x is
    in none of them; the test is exact and draws no random numbers."""
    (x,), _, tol = _checked_query(x, w.cone.shape, w.cone.tol if tol is None else tol,
                                  stacked=False)
    return bool(w.algebra.residual(x) <= tol * max(1.0, fro(x)) and gks_margin(x) >= -tol)


def initial_wedge(sys: ControlSystem) -> Wedge:
    """Step one of the inner approximation: control span plus the drift ray."""
    drift = drift_direction(sys)
    shape = drift.shape
    complex_field = sys.rep != "r3"
    edge = orthonormal_span(control_directions(sys), shape=shape, complex_field=complex_field)
    gens = (drift,) if fro(drift) > 1e-12 else ()
    cone = Cone(generators=gens, shape=shape, complex_field=complex_field)
    return Wedge(edge=edge, cone=cone, drift=drift)


def _edge_orthogonal_units(edge: Subspace, cols: np.ndarray) -> np.ndarray:
    """Columns minus their edge projection, normalized; columns whose
    remainder has norm <= 1e-12 are dropped."""
    p = cols - edge.stack @ (edge.stack.T @ cols)
    n = np.linalg.norm(p, axis=0)
    return p[:, n > 1e-12] / n[n > 1e-12]


def saturate(w: Wedge, orbit_samples: int = 720, max_rounds: int = 10,
             tol: float = 1e-8, seed: int = 0) -> Wedge:
    """The wedge's (edge, base) fixed point, its cone's family and sweep rows.

    Each round Lie-closes the edge (round one: the controls' span; later
    rounds: the edge plus the last round's lineality) and takes the base b,
    the drift minus its edge projection.  It stops without a family
    ("no-family") when the edge is 0 or |b| <= 1e-12.  Otherwise the cone is
    cone(K b), the orbit of b under the edge's group K.  When the last round
    found no lineality, the edge did not grow and the round stops at the
    fixed point ("fixed-point"), or unconverged at "aperiodic-torus" when
    the family is a torus that is not `periodic`, where no box is a period.
    Else `lineality` reads the cone's lineality exactly off the orbit
    centroid, for the next round.  After `max_rounds` rounds the wedge is
    returned with ``converged: False``.  The cone holds the `params` rows of
    one sweep of `orbit_samples` orbit points (orbit draws seeded with
    `seed`), drawn once after the last round for the returned cone's family
    (the rounds before it read only its lineality, which needs no rows) and
    swept when fits or `semialgebra_probe` first read them; the edge, the
    base and `Wedge.dim` do not depend on it.  `orbit_samples` and
    `max_rounds` must be integers >= 1, `seed` an integer >= 0 and `tol`
    positive and finite; anything else raises ValueError before round one.
    The report keeps one 0 per round in ``novel_counts``: no round adds a
    sampled generator.
    """
    orbit_samples = _checked_count("orbit_samples", orbit_samples, 1)
    max_rounds = _checked_count("max_rounds", max_rounds, 1)
    tol = _checked_tol(tol)
    seed = _checked_count("seed", seed)
    shape, complex_field = w.cone.shape, w.cone.complex_field
    drift = w.drift if w.drift is not None else np.zeros(shape)
    report = {"rounds": 0, "converged": False, "termination": None,
              "edge_dims": [], "novel_counts": [], "tol": tol,
              "orbit_samples": orbit_samples}
    edge, lin = w.edge, ()
    for rnd in range(1, max_rounds + 1):
        gens = [*edge.mats, *lin]
        if gens:
            edge = lie_closure(gens, tol=1e-9)
        base = drift - edge.project(drift)
        report["rounds"] = rnd
        report["edge_dims"].append(edge.dim)
        report["novel_counts"].append(0)
        if not edge.dim or fro(base) <= 1e-12:
            cone = Cone((base,) if fro(base) > 1e-12 else (), shape=shape,
                        complex_field=complex_field, tol=tol)
            report.update(converged=True, termination="no-family")
            break
        family = ConjugationFamily(edge.mats, base)
        cone = Cone(shape=shape, complex_field=complex_field, analytic=family, tol=tol)
        if rnd > 1 and not lin:  # this closure of an unchanged edge is the fixed point
            aperiodic = family.kind == "torus" and not family.periodic
            report.update(converged=not aperiodic,
                          termination="aperiodic-torus" if aperiodic else "fixed-point")
            break
        lin = lineality(cone, tol).mats
    if cone.analytic is not None:  # the sweep rows of the returned family only
        cone = Cone(shape=shape, complex_field=complex_field, analytic=cone.analytic, tol=tol,
                    thetas=cone.analytic.params(orbit_samples, np.random.default_rng(seed)))
    return Wedge(edge=edge, cone=cone, drift=drift, saturation=report)


# ---------------------------------------------------------------------------
# closed-form membership oracles
# ---------------------------------------------------------------------------

def dual_cone_margin(gamma, s: np.ndarray) -> float:
    """Margin c*l1(S) + b*l2(S) + a*l3(S) of the dual-cone criterion.

    gamma = (a, b, c) with a >= b >= c >= 0 are the diagonal relaxation
    rates; eigenvalues of the symmetric S are taken descending.
    """
    a, b, c = (float(v) for v in gamma)
    if not (a >= b >= c >= 0):
        raise ValueError(f"rates must satisfy a >= b >= c >= 0, got {(a, b, c)}")
    s = np.asarray(s, dtype=float)
    w, _ = eig_sym(s)
    return float(c * w[0] + b * w[1] + a * w[2])


def dual_cone_contains(gamma, s: np.ndarray, tol: float = 1e-12) -> bool:
    """Eigenvalue test for membership in the dual of the rotation-orbit cone."""
    return dual_cone_margin(gamma, s) >= -tol


def majorized(s: np.ndarray, gamma, tol: float = 1e-9) -> bool:
    """Majorization S < gamma: descending partial sums bounded, totals equal."""
    s = np.asarray(s, dtype=float)
    w, _ = eig_sym(s)
    g = np.sort(np.asarray(gamma, dtype=float))[::-1]
    if w.shape != g.shape:
        raise ValueError("dimension mismatch between S and gamma")
    cw, cg = np.cumsum(w), np.cumsum(g)
    scale = max(1.0, float(np.abs(g).sum()))
    if np.any(cw[:-1] - cg[:-1] > tol * scale):
        return False
    return bool(abs(cw[-1] - cg[-1]) <= tol * scale)
