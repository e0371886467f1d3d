"""Lie wedges of controlled semigroups and their inner-approximation loop.

A wedge is stored as ``edge + (-cone)``: the edge is a Lie subalgebra kept
as an orthonormal `Subspace`, and the cone is the *positive* convex cone
spanned by conjugated drift generators (so the physical wedge consists of
the edge plus the negatives of the cone elements).  Cones carry finitely
many unit-norm sampled generators plus, where available, an analytic
conjugation family; every membership oracle is an inner approximation and
is documented as such.  Edge and cone are each stored once, as a realified
column stack (see `matcore`); their matrices are views derived from it,
and `saturate` works on the cone's stack directly.

The saturation loop follows the inner-approximation procedure: grow the
edge by the cone's lineality and Lie-close it, conjugate the cone by
exponentials of edge elements, append member-novel generators, and stop
once a full round adds nothing while the edge dimension is stable.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np
from scipy.optimize import minimize, minimize_scalar, nnls

from .liealg import lie_closure
from .lindblad import (ControlSystem, ad_hat, coherence_rep, control_directions,
                       drift_direction, pauli_basis, superop_from_coherence)
from .matcore import (Subspace, _span_columns, eig_sym, expm, fro, inner, orthonormal_span,
                      realify, realify_stack, unrealify, unrealify_stack)

_CG_MAX_NEW = 60


# ---------------------------------------------------------------------------
# analytic conjugation families
# ---------------------------------------------------------------------------

def _period(seed: np.ndarray) -> float:
    """Period of theta -> expm(theta*seed) for a skew/anti-Hermitian seed."""
    w = np.linalg.eigvals(np.asarray(seed, dtype=complex))
    omega = float(np.abs(np.imag(w)).max()) if w.size else 0.0
    return 2.0 * np.pi / omega if omega > 1e-9 else 2.0 * np.pi


@dataclass(frozen=True)
class ConjugationFamily:
    """Parameterized family theta -> Ad_{expm(sum theta_i seed_i)}(base).

    ``kind`` selects the sampling/support strategy: 'grid1' (periodic
    one-parameter sweep), 'grid2' (commuting two-parameter torus), or
    'orbit' (random exponentials of the whole edge).  The base is stored
    orthogonal to the edge; since edge conjugation is an isometry fixing
    the edge, every family element stays orthogonal to it.  Every element
    comes from the batched kernel `elements`.  ``periods`` defaults to each
    seed's rotation period; seeds that are not skew/anti-Hermitian have
    none and must be given explicit periods.
    """

    kind: str
    seeds: tuple
    base: np.ndarray
    edge: Subspace
    rep: str
    periods: tuple = None

    def __post_init__(self):
        if self.periods is None:
            if not self._skew:
                raise ValueError("seeds that are not skew/anti-Hermitian have no period; "
                                 "pass explicit periods")
            object.__setattr__(self, "periods", tuple(_period(s) for s in self.seeds))

    @property
    def n_params(self) -> int:
        return len(self.seeds)

    @cached_property
    def _seed_stack(self) -> np.ndarray:
        return np.stack([np.asarray(s) for s in self.seeds])

    @cached_property
    def _skew(self) -> bool:
        """Whether every seed is skew/anti-Hermitian, i.e. exponentiates to a
        unitary that `eigh` diagonalises."""
        return all(fro(s + s.conj().T) <= 1e-10 * max(1.0, fro(s)) for s in self._seed_stack)

    @cached_property
    def _phases(self):
        """Co-diagonalization of the (commuting, anti-Hermitian) seeds.

        Lets grid support functions evaluate f(theta) = <element(theta), D>
        as a short exponential sum instead of conjugating every grid point.
        None when a seed is not anti-Hermitian or the seeds do not commute.
        """
        if not self._skew:
            return None
        hs = [1j * np.asarray(s, dtype=complex) for s in self.seeds]
        if len(hs) == 1:
            w0, q = np.linalg.eigh(hs[0])
            ws = [w0]
        else:
            # commuting seeds: a generic combination separates the joint
            # eigenbasis, then each seed is diagonal in it
            _, q = np.linalg.eigh(hs[0] + np.sqrt(2.0) * hs[1])
            ws = [np.real(np.diag(q.conj().T @ h @ q)) for h in hs]
            if not all(np.linalg.norm(q.conj().T @ h @ q - np.diag(w)) < 1e-8
                       for h, w in zip(hs, ws)):
                return None
        m = q.conj().T @ np.asarray(self.base, dtype=complex) @ q
        deltas = [w[:, None] - w[None, :] for w in ws]
        return q, m, deltas

    def elements(self, thetas, g: np.ndarray = None) -> np.ndarray:
        """Ad_{expm(sum_i theta_i seed_i)}(g) for every row of `thetas`.

        `thetas` is a (k, n_params) stack; `g` (default: the base) is one
        matrix or a stack of k.  For skew/anti-Hermitian seeds one stacked
        eigh of i*A = V diag(w) V^dag gives expm(A) = V diag(e) V^dag with
        e = exp(-i w), so Ad(g) = V ((V^dag g V) * e e^dag) V^dag; real seeds
        and a real g give a real result.  Other seeds fall back to
        expm(A) g expm(-A) per row.
        """
        g = self.base if g is None else np.asarray(g)
        thetas = np.asarray(thetas, dtype=float).reshape(-1, self.n_params)
        a = np.tensordot(thetas, self._seed_stack, axes=1)
        if not self._skew:
            gs = np.broadcast_to(g, a.shape)
            return np.array([expm(ak) @ gk @ expm(-ak) for ak, gk in zip(a, gs)])
        w, v = np.linalg.eigh(1j * a)
        e = np.exp(-1j * w)
        vh = np.conj(np.swapaxes(v, -1, -2))
        out = v @ ((vh @ g @ v) * (e[:, :, None] * np.conj(e[:, None, :]))) @ vh
        if np.iscomplexobj(a) or np.iscomplexobj(g):
            return out
        return np.ascontiguousarray(out.real)

    def conjugate(self, g: np.ndarray, params) -> np.ndarray:
        return self.elements([params], g)[0]

    def element(self, params) -> np.ndarray:
        return self.elements([params])[0]

    def _grid(self, n: int) -> np.ndarray:
        """n uniform points per period and parameter, one row per grid
        point; grid2 rows run over (t1[i], t2[j]) with j fastest."""
        axes = np.meshgrid(*(np.arange(n) * (p / n) for p in self.periods), indexing="ij")
        return np.stack([t.ravel() for t in axes], axis=1)

    def sweep(self, count: int, rng: np.random.Generator):
        """Deterministic grid (grid kinds) or random exponentials (orbit)."""
        if count < 1:
            return []
        if self.kind == "grid1":
            thetas = self._grid(count)
        elif self.kind == "grid2":
            thetas = self._grid(max(2, int(np.ceil(np.sqrt(count)))))
        else:
            thetas = rng.normal(scale=np.pi / np.sqrt(self.n_params),
                                size=(count, self.n_params))
        return list(zip(thetas, self.elements(thetas)))

    # -- support function -------------------------------------------------

    def _values(self, thetas, direction: np.ndarray) -> np.ndarray:
        """f(theta) = <element(theta), direction> on a batch of parameter
        vectors: an eigenphase sum where the seeds co-diagonalise."""
        thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
        if self._phases is None:
            return np.real(np.sum(np.conj(self.elements(thetas)) * direction, axis=(1, 2)))
        q, m, deltas = self._phases
        nmat = q.conj().T @ np.asarray(direction, dtype=complex) @ q
        coeff = (np.conj(m) * nmat).ravel()
        phase = sum(np.multiply.outer(thetas[:, i], d.ravel())
                    for i, d in enumerate(deltas))
        return np.real(np.exp(1j * phase) @ coeff)

    def support(self, direction: np.ndarray, rng: np.random.Generator = None):
        """Family element maximizing the inner product against `direction`.

        Exact by eigenvector alignment for full-rotation orbits on the
        3-dimensional carrier (real or via the coherence representation);
        dense-grid plus local refinement otherwise, which can only
        under-estimate the true support (inner approximation).
        """
        if self.kind == "orbit":
            exact = self._support_aligned(direction)
            if exact is not None:
                return exact
            return self._support_random(direction, rng)
        if self.kind == "grid1":
            return self._support_grid1(direction)
        return self._support_grid2(direction)

    def _support_grid1(self, direction):
        period = self.periods[0]
        n = 2048
        thetas = self._grid(n)[:, 0]
        vals = self._values(thetas[:, None], direction)
        f = lambda t: -float(self._values([[t]], direction)[0])
        k = int(np.argmax(vals))
        res = minimize_scalar(f, bounds=(thetas[k] - period / n,
                                         thetas[k] + period / n),
                              method="bounded", options={"xatol": 1e-12})
        t_best, v_best = float(res.x), float(-res.fun)
        if v_best < vals[k]:
            t_best, v_best = float(thetas[k]), float(vals[k])
        return self.element([t_best]), v_best

    def _support_grid2(self, direction):
        grid = self._grid(64)
        vals = self._values(grid, direction)
        f = lambda p: -float(self._values([p], direction)[0])
        k = int(np.argmax(vals))
        res = minimize(f, x0=grid[k], method="Nelder-Mead",
                       options={"xatol": 1e-10, "fatol": 1e-14, "maxiter": 400})
        params, v_best = np.asarray(res.x), float(-res.fun)
        if v_best < vals[k]:
            params, v_best = grid[k], float(vals[k])
        return self.element(params), v_best

    def _support_aligned(self, direction):
        """Closed-form support for full-rotation orbits of a symmetric base
        on the 3x3 block: the r3 carrier itself, or a qubit superoperator's
        coherence representation, mapped there and back."""
        if self.rep not in ("r3", "qubit") or self.edge.dim != 3:
            return None
        base = self.base
        if self.rep == "qubit":
            try:
                base = coherence_rep(base, rep="qubit")
                direction = coherence_rep(direction, rep="qubit")
            except ValueError:
                return None
        base_sym = (base + base.T) / 2
        if fro(base_sym - base) > 1e-10 * max(1.0, fro(base)):
            return None
        w_b, _ = eig_sym(base_sym)
        w_d, v_d = eig_sym((direction + direction.T) / 2)
        g = v_d @ np.diag(w_b) @ v_d.T
        if self.rep == "qubit":
            g = superop_from_coherence(g, rep="qubit").matrix
        return g, float(np.dot(w_b, w_d))

    def _support_random(self, direction, rng):
        rng = np.random.default_rng(0) if rng is None else rng
        best, best_params = -np.inf, np.zeros(self.n_params)
        for p, g in self.sweep(128, rng):
            v = inner(g, direction)
            if v > best:
                best, best_params = v, p
        res = minimize(lambda p: -inner(self.element(p), direction), x0=best_params,
                       method="Nelder-Mead",
                       options={"xatol": 1e-9, "fatol": 1e-13, "maxiter": 300})
        params = res.x if -res.fun > best else best_params
        return self.element(params), max(float(-res.fun), best)


# ---------------------------------------------------------------------------
# cones
# ---------------------------------------------------------------------------

@dataclass(frozen=True, init=False)
class Cone:
    """Finitely sampled convex cone with optional analytic parameterization.

    `stack` is the only stored form: the realified generators as columns of
    unit norm under the trace inner product.  Built from `generators`, the
    cone normalizes them in one batch and drops zero matrices; built from
    `stack`, it takes the columns as they are.  `generators`, the matrices,
    are derived from the stack on first use.  `pointed` is None until
    established (by certificate or lineality run).
    """

    stack: np.ndarray = field(repr=False)
    shape: tuple
    complex_field: bool
    analytic: ConjugationFamily = None
    pointed: bool = None
    tol: float = 1e-8

    def __init__(self, generators=(), *, shape, complex_field, analytic=None,
                 pointed=None, tol=1e-8, stack=None):
        if stack is None:
            stack = realify_stack(generators, shape, complex_field)
            norms = np.linalg.norm(stack, axis=0)
            stack = stack[:, norms > 0] / norms[norms > 0]
        self.__dict__.update(stack=stack, shape=shape, complex_field=complex_field,
                             analytic=analytic, pointed=pointed, tol=tol)

    @cached_property
    def generators(self) -> tuple:
        return tuple(unrealify_stack(self.stack, self.shape, self.complex_field))

    @property
    def n_generators(self) -> int:
        return self.stack.shape[1]

    def span(self) -> Subspace:
        return Subspace(_span_columns(self.stack), self.shape, self.complex_field)


def _cone_fit(c: Cone, x: np.ndarray, max_new: int = _CG_MAX_NEW,
              rng: np.random.Generator = None,
              target: float = None) -> tuple:
    """Nonnegative fit of x by the cone; returns (residual norm, fit).

    Solves nonnegative least squares over the stored generators; while the
    residual stays above `target` (default: cone tolerance, relative) and
    an analytic family is attached, support elements of the family are
    appended (to a working copy only) and the problem re-solved.  The
    residual can only over-estimate the true distance (inner
    approximation); the fit is always a genuine cone member.
    """
    b = realify(x, c.complex_field)
    nb = np.linalg.norm(b)
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
        g, _val = c.analytic.support(x, rng)
        ng = fro(g)
        if ng > 0.0:
            a = np.concatenate([a, realify(g / ng, c.complex_field)[:, None]],
                               axis=1)
            coef, rnorm = nnls(a, b)
            added += 1
    while rnorm > target and added < max_new:
        r = b - (a @ coef if a.shape[1] else 0.0)
        direction = unrealify(r, c.shape, c.complex_field)
        g, _val = c.analytic.support(direction, rng)
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


def cone_residual(c: Cone, x: np.ndarray, max_new: int = _CG_MAX_NEW,
                  rng: np.random.Generator = None) -> float:
    """Distance from x to the sampled cone (see `_cone_fit`)."""
    return _cone_fit(c, x, max_new, rng)[0]


def cone_contains(c: Cone, x: np.ndarray, tol: float = None,
                  rng: np.random.Generator = None) -> bool:
    """Inner-approximate membership test (see `cone_residual`)."""
    tol = c.tol if tol is None else tol
    return cone_residual(c, x, rng=rng) <= tol * max(1.0, fro(x))


def lineality(c: Cone, tol: float = None) -> Subspace:
    """Directions g with both g and -g in the cone.

    A strictly positive mean functional certifies pointedness cheaply;
    otherwise each generator's negative is tested for membership.
    """
    tol = c.tol if tol is None else tol
    if c.n_generators == 0:
        return orthonormal_span([], shape=c.shape, complex_field=c.complex_field)
    h = c.stack.mean(axis=1)
    nh = np.linalg.norm(h)
    if nh > 0 and (c.stack.T @ (h / nh)).min() > 10 * tol:
        return orthonormal_span([], shape=c.shape, complex_field=c.complex_field)
    two_sided = [g for g in c.generators if cone_contains(c, -g, tol)]
    return orthonormal_span(two_sided, shape=c.shape, complex_field=c.complex_field)


# ---------------------------------------------------------------------------
# wedges
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Wedge:
    """edge + (-cone) with bookkeeping from the saturation loop."""

    edge: Subspace
    cone: Cone
    rep: str
    edge_seeds: tuple = ()
    drift: np.ndarray = None
    saturation: dict = field(default_factory=dict)

    @property
    def dim(self) -> int:
        """Linear dimension of edge plus cone span (edge-orthogonal part)."""
        e, c = self.edge.stack, self.cone.stack
        return self.edge.dim + _span_columns(c - e @ (e.T @ c)).shape[1]


def wedge_contains(w: Wedge, x: np.ndarray, tol: float = None,
                   rng: np.random.Generator = None) -> bool:
    """Membership of x in edge + cone (positive picture): the edge component
    is unconstrained, the edge-orthogonal part must lie in the cone."""
    perp = x - w.edge.project(x)
    if fro(perp) <= (w.cone.tol if tol is None else tol) * max(1.0, fro(x)):
        return True
    return cone_contains(w.cone, perp, tol, rng)


def initial_wedge(sys: ControlSystem) -> Wedge:
    """Step one of the inner approximation: control span plus the drift ray."""
    seeds = tuple(np.asarray(d) for d in control_directions(sys))
    drift = np.asarray(drift_direction(sys))
    shape = drift.shape
    complex_field = sys.rep != "r3"
    edge = orthonormal_span(list(seeds), shape=shape, complex_field=complex_field)
    gens = (drift,) if fro(drift) > 1e-12 else ()
    cone = Cone(generators=gens, shape=shape, complex_field=complex_field)
    return Wedge(edge=edge, cone=cone, rep=sys.rep, edge_seeds=seeds, drift=drift)


def _novel_columns(stack: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Columns of `cols` whose cosine with every column of `stack` and with
    every earlier kept column stays below 1 - 1e-12."""
    s = stack.shape[1]
    cur = np.empty((stack.shape[0], s + cols.shape[1]))
    cur[:, :s] = stack
    j = s
    for col in cols.T:
        if j and (cur[:, :j].T @ col).max() > 1.0 - 1e-12:
            continue
        cur[:, j] = col
        j += 1
    return cur[:, s:j]


def _edge_orthogonal_units(edge: Subspace, cols: np.ndarray) -> np.ndarray:
    """Columns minus their edge projection, normalized; columns whose
    remainder has norm <= 1e-12 are dropped."""
    p = cols - edge.stack @ (edge.stack.T @ cols)
    n = np.linalg.norm(p, axis=0)
    return p[:, n > 1e-12] / n[n > 1e-12]


def _build_family(edge: Subspace, base: np.ndarray, rep: str) -> ConjugationFamily:
    if edge.dim == 0 or fro(base) == 0.0:
        return None
    seeds = tuple(np.asarray(m) for m in edge.mats)
    if edge.dim == 1:
        kind = "grid1"
    elif edge.dim == 2:
        e1, e2 = seeds
        commuting = fro(e1 @ e2 - e2 @ e1) <= 1e-10
        kind = "grid2" if commuting else "orbit"
    else:
        kind = "orbit"
    return ConjugationFamily(kind=kind, seeds=seeds, base=base, edge=edge, rep=rep)


def saturate(w: Wedge, orbit_samples: int = 720, max_rounds: int = 10,
             tol: float = 1e-8, seed: int = 0) -> Wedge:
    """Inner-approximation loop: close the edge, conjugate, update the hull.

    The cone's generators are held throughout as one realified column stack.
    Each round: (a) absorb the cone's lineality into the edge and Lie-close
    it; (b) project the stored columns orthogonal to the (possibly grown)
    edge and renormalize them; then, after an edge change, (c) sweep
    conjugations of the drift base and of sampled stored generators by
    exponentials of edge elements, or on a stable edge (d) keep the members
    of a freshly offset sweep that fall outside the cone; novel candidates
    are appended.  Terminates when a round after a stable edge adds nothing:
    exhaustively for small candidate sets, else by a membership spot-check
    of a freshly offset sweep (the family group property guarantees swept
    candidates stay in the analytic cone).  If max_rounds is exhausted the
    partial result is returned with ``converged: False`` in the report.
    """
    rng = np.random.default_rng(seed)
    shape = w.cone.shape
    complex_field = w.cone.complex_field
    edge = w.edge
    cols = w.cone.stack
    drift = w.drift if w.drift is not None else np.zeros(shape)
    report = {"rounds": 0, "converged": False, "termination": None,
              "edge_dims": [], "novel_counts": [], "tol": tol,
              "orbit_samples": orbit_samples}
    family = None
    cone = w.cone

    for rnd in range(1, max_rounds + 1):
        report["rounds"] = rnd
        # (a) lineality into edge, Lie closure
        lin = lineality(cone, tol)
        closure_gens = list(edge.mats) + list(lin.mats)
        prev_edge_dim = edge.dim
        if closure_gens:
            edge = lie_closure(closure_gens, tol=1e-9)
        edge_changed = edge.dim != prev_edge_dim or rnd == 1
        report["edge_dims"].append(edge.dim)

        # (b) re-project generators orthogonal to the edge
        base = drift - edge.project(drift)
        cols = _edge_orthogonal_units(edge, cols)
        family = _build_family(edge, base, w.rep)
        cone = Cone(stack=cols, shape=shape, complex_field=complex_field,
                    analytic=family, tol=tol)
        if family is None:
            if fro(base) > 1e-12:
                cone = Cone(generators=(base,), shape=shape,
                            complex_field=complex_field, tol=tol)
            report["novel_counts"].append(0)
            report["converged"] = True
            report["termination"] = "no-family"
            break

        # (c) conjugation sweep: fresh base sweep + conjugated stored samples
        if edge_changed:
            cands = realify_stack([g for _, g in family.sweep(orbit_samples, rng)],
                                  shape, complex_field)
            if cols.shape[1]:
                picks = rng.choice(cols.shape[1], size=min(8, cols.shape[1]), replace=False)
                params = rng.normal(scale=np.pi / np.sqrt(family.n_params),
                                    size=(4 * len(picks), family.n_params))
                bases = unrealify_stack(np.repeat(cols[:, picks], 4, axis=1), shape,
                                        complex_field)
                extra = realify_stack(family.elements(params, bases), shape, complex_field)
                cands = np.concatenate([cands, extra], axis=1)
            novel = _edge_orthogonal_units(edge, cands)
        else:
            # (d) stable edge: novelty by membership of a freshly offset sweep
            n_spot = min(32, max(8, orbit_samples // 32))
            if family.kind == "orbit":
                spot = [g for _, g in family.sweep(n_spot, rng)]
            else:
                spot = family.elements(np.stack([rng.uniform(0, p, size=n_spot)
                                                 for p in family.periods], axis=1))
            spot = _edge_orthogonal_units(edge, realify_stack(spot, shape, complex_field))
            outside = np.array([not cone_contains(cone, p, tol, rng)
                                for p in unrealify_stack(spot, shape, complex_field)],
                               dtype=bool)
            if not outside.any():
                report["novel_counts"].append(0)
                report["converged"] = True
                report["termination"] = ("membership-spot-check"
                                         if family.kind == "orbit" or cone.n_generators > 64
                                         else "membership")
                break
            novel = spot[:, outside]
        kept = _novel_columns(cols, novel)
        cols = np.concatenate([cols, kept], axis=1)
        cone = Cone(stack=cols, shape=shape, complex_field=complex_field,
                    analytic=family, tol=tol)
        report["novel_counts"].append(kept.shape[1])

    pointed = lineality(cone, tol).dim == 0 if cone.n_generators else None
    cone = replace(cone, pointed=pointed)
    return Wedge(edge=edge, cone=cone, rep=w.rep, edge_seeds=w.edge_seeds,
                 drift=drift, saturation=report)


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


# ---------------------------------------------------------------------------
# outer-approximation hypotheses
# ---------------------------------------------------------------------------

def _haar_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    z = (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def outer_wedge_check(c: Cone, n: int, samples: int = 100, seed: int = 0,
                      gamma_l: np.ndarray = None, tol: float = 1e-8) -> dict:
    """Numeric residuals for the global outer-approximation hypotheses.

    On sampled generator pairs and random unitaries, checks that (1) the
    dissipator lies in the cone, (2) commutators of cone elements fall in
    the unitary adjoint algebra, (3) commutators with that algebra fall in
    the cone's linear span, and (4) the cone is invariant under unitary
    conjugation in the superoperator picture.
    """
    rng = np.random.default_rng(seed)
    basis = pauli_basis(n)
    adsu = orthonormal_span([np.asarray(1j * ad_hat(b).matrix) for b in basis])
    span = c.span()
    gens = c.generators
    report = {"samples": samples, "tol": tol}
    report["dissipator_in_cone"] = (
        None if gamma_l is None else cone_contains(c, np.asarray(gamma_l), tol, rng))
    worst2 = worst3 = worst4 = 0.0
    if gens:
        for _ in range(samples):
            i, j = rng.integers(0, len(gens), size=2)
            br = gens[i] @ gens[j] - gens[j] @ gens[i]
            nb = fro(br)
            if nb > 1e-12:
                worst2 = max(worst2, adsu.residual(br) / nb)
        for _ in range(samples):
            i = rng.integers(0, len(gens))
            k = rng.integers(0, adsu.dim)
            br = gens[i] @ adsu.mats[k] - adsu.mats[k] @ gens[i]
            nb = fro(br)
            if nb > 1e-12:
                worst3 = max(worst3, span.residual(br) / nb)
        for _ in range(samples):
            u = _haar_unitary(n, rng)
            uhat = np.kron(u.conj(), u)
            i = rng.integers(0, len(gens))
            g = uhat @ gens[i] @ uhat.conj().T
            worst4 = max(worst4, cone_residual(c, g, rng=rng) / max(1.0, fro(g)))
    report["bracket_in_unitary_algebra"] = worst2
    report["bracket_span_residual"] = worst3
    report["ad_invariance_residual"] = worst4
    report["holds"] = {
        "cond1": report["dissipator_in_cone"],
        "cond2": worst2 <= tol,
        "cond3": worst3 <= tol,
        "cond4": worst4 <= tol,
    }
    return report
