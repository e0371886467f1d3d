"""Truncated BCH products and the Lie-semialgebra structure of wedges.

A wedge is BCH-closed (a Lie semialgebra) when small products
expm(tA)expm(tB) generate no direction outside it.  This module provides
the order-4 truncated product, a randomized probe that hunts for
counterexample pairs, tangent spaces T_A w = (A^perp ∩ w*)^perp (in closed
form where the cone's family offers one, else sampled through the dual
wedge), and the rotation-orbit case analysis (isotropic, rank-one,
degenerate-pair, and generic relaxation rates).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import nnls

from .channels import H_X, H_Y, H_Z, P_X, P_Y, P_Z
from .liealg import orthocomplement, subspace_equal
from .matcore import (Subspace, comm, fro, inner, orthonormal_span, realify, realify_stack,
                      unrealify)
from .wedge import Cone, ConjugationFamily, Wedge, _cone_fit, wedge_contains

BCH_MAX_ORDER = 4
_FACE_GUARD = 1e-8
_SCREEN = 0.05  # half of bch_witness's fit target, in units of tol * t**2 * scale
# Relative to ||tail|| + t**2 * scale: far above the d * eps by which the
# probe's stacked products and projection may round apart from one pair's.
_ROUNDING = 1e-12

_CASE_IDS = ("i", "ii", "iii", "iv")


# ---------------------------------------------------------------------------
# truncated BCH product
# ---------------------------------------------------------------------------

def bch(a: np.ndarray, b: np.ndarray, order: int = 4) -> np.ndarray:
    """Truncated product log a*b = a + b + [a,b]/2 + ... up to `order`.

    `a` and `b` are two square matrices, or two equal-shape (..., n, n)
    stacks of them; a stack gives the product of each pair of slices, by the
    same elementwise steps as a single pair.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2] or a.shape != b.shape:
        raise ValueError("bch needs two square matrices (or (..., n, n) stacks "
                         "of them) of the same shape")
    if not 1 <= int(order) <= BCH_MAX_ORDER:
        raise ValueError(f"bch truncation order must be 1..{BCH_MAX_ORDER}, "
                         f"got {order}")
    out = a + b
    if order >= 2:
        ab = comm(a, b)
        out = out + ab / 2.0
    if order >= 3:
        aab = comm(a, ab)
        out = out + (aab + comm(b, comm(b, a))) / 12.0
    if order >= 4:
        out = out - comm(b, aab) / 24.0
    return out


# ---------------------------------------------------------------------------
# BCH-closure probe
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BchWitness:
    """Pair of wedge elements whose truncated BCH product leaves the wedge.

    `offending_component` is the product's tail beyond the first-order part
    minus its best wedge fit; `residual` is the tail misfit divided by t**2
    (the natural scale of the first nonlinear term).
    """

    A: np.ndarray
    B: np.ndarray
    t: float
    product: np.ndarray
    offending_component: np.ndarray
    residual: float


def _wedge_fit(w: Wedge, x: np.ndarray, rng: np.random.Generator = None,
               target: float = None) -> tuple:
    """Best approximation of x inside edge + cone: (residual norm, fit)."""
    e = w.edge.project(x)
    rnorm, cfit = _cone_fit(w.cone, x - e, rng=rng, target=target)
    return rnorm, e + cfit


def _checked_grid(t_grid, tol: float) -> tuple:
    """The t grid as floats, after rejecting an empty grid and a t or tol
    that is not positive and finite, any of which makes the probe vacuous."""
    ts = tuple(float(t) for t in t_grid)
    if not ts:
        raise ValueError("t_grid must hold at least one t, got ()")
    for name, v in [("t", t) for t in ts] + [("tol", tol)]:
        if not 0 < v < np.inf:
            raise ValueError(f"{name} must be positive and finite, got {v}")
    return ts


def bch_witness(w: Wedge, a: np.ndarray, b: np.ndarray, t_grid=(1e-2,),
                tol: float = 1e-8, rng: np.random.Generator = None):
    """Tail test for a single ordered pair; see `semialgebra_probe`."""
    ts = _checked_grid(t_grid, tol)
    scale = max(1.0, fro(a) * fro(b))
    for t in ts:
        prod = bch(t * np.asarray(a), t * np.asarray(b), order=4)
        tail = prod - t * (np.asarray(a) + np.asarray(b))
        threshold = tol * t * t * scale
        rnorm, fit = _wedge_fit(w, tail, rng=rng, target=0.1 * threshold)
        if rnorm > threshold:
            return BchWitness(A=np.asarray(a), B=np.asarray(b), t=t,
                              product=prod, offending_component=tail - fit,
                              residual=float(rnorm / (t * t)))
    return None


def _wedge_samples(w: Wedge, count: int, rng: np.random.Generator) -> np.ndarray:
    """Unit-norm wedge members: generators, conic mixes, and edge offsets.

    Returns a (m, *shape) stack, m <= count: draws of norm <= 1e-12 are
    dropped.  The loop only draws from `rng` and records each sample's
    generator indices, weights and edge coefficients; the stack is then
    summed term by term, each masked add in the order one sample adds its
    terms (a lone generator is added with weight 1.0, which is exact), so
    every sample is bitwise what building it alone gives.
    """
    gens = w.cone.generators
    n_gens, dim = len(gens), w.edge.dim
    picks = np.zeros((count, 3), dtype=int)
    weights = np.zeros((count, 3))  # 0 marks an absent term
    coefs = np.zeros((count, dim))
    offset = np.zeros(count, dtype=bool)
    for k in range(count):
        if n_gens:
            if k % 3 == 0:
                picks[k, 0], weights[k, 0] = rng.integers(n_gens), 1.0
            else:
                m = int(rng.integers(1, 4))
                picks[k, :m] = rng.integers(n_gens, size=m)
                weights[k, :m] = rng.uniform(0.2, 1.0, size=m)
        if dim and (k % 3 == 2 or not n_gens):
            coefs[k] = rng.normal(size=dim)
            offset[k] = True
    x = np.zeros((count, *w.cone.shape), dtype=complex if w.cone.complex_field else float)
    if n_gens:
        g = np.asarray(gens)
        for j in range(3):
            on = weights[:, j] > 0
            x[on] = x[on] + weights[on, j, None, None] * g[picks[on, j]]
    if offset.any():
        e = 0
        for cf, mat in zip(coefs[offset].T, w.edge.mats):
            e = e + cf[:, None, None] * mat
        x[offset] = x[offset] + e
    norms = np.array([fro(v) for v in x])  # one sample's summation order, not a batched one
    keep = norms > 1e-12
    return x[keep] / norms[keep, None, None]


def semialgebra_probe(w: Wedge, pair_samples: int = 200, t_grid=(1e-2,),
                      tol: float = 1e-8, seed: int = 0):
    """Randomized BCH-closure check on sampled pairs of wedge elements.

    Forms bch(tA, tB) for unit-norm wedge members A, B and tests whether
    the tail beyond the first-order part t(A+B) stays inside the wedge
    (the first-order part itself is a member by convexity).  Returns the
    first `BchWitness` whose tail misfit exceeds tol*t**2, else None.
    None means "no counterexample found at this sampling budget" on an
    inner-approximated membership oracle -- never a proof.

    One batched pass: all samples are drawn first, every tail for each t
    comes from one stacked `bch` call, and one matmul projects all tails off
    the edge.  Zero lies in the cone, so a tail's fit residual is at most
    the norm of its edge-orthogonal part.  A tail whose edge-orthogonal norm,
    plus a 1e-12 allowance for the rounding by which this pass and the
    single-pair fit may differ, is at most half of `bch_witness`'s fit
    target 0.1*tol*t**2*scale can therefore neither meet the witness
    threshold nor ask the cone's family for a support element, which is the
    fit's only use of `rng`; it is skipped.  The remaining (pair, t) tails
    go, pair by pair in sample order, to `bch_witness`, so the draws and
    the first witness are those of fitting every pair in turn.
    """
    if pair_samples < 1:
        raise ValueError(f"pairs must be at least 1, got {pair_samples}")
    ts = _checked_grid(t_grid, tol)
    rng = np.random.default_rng(seed)
    elems = _wedge_samples(w, 2 * pair_samples, rng)
    n_pairs = len(elems) // 2
    a, b = elems[:2 * n_pairs:2], elems[1:2 * n_pairs:2]
    scale = np.maximum(1.0, np.linalg.norm(a, axis=(1, 2)) * np.linalg.norm(b, axis=(1, 2)))
    tails = np.stack([bch(t * a, t * b) - t * (a + b) for t in ts])
    cols = realify_stack(tails.reshape(-1, *w.cone.shape), w.cone.shape,
                         w.cone.complex_field)
    q = w.edge.stack
    off_edge = np.linalg.norm(cols - q @ (q.T @ cols), axis=0)
    t2s = (np.square(ts)[:, None] * scale).ravel()
    allowance = _ROUNDING * (np.linalg.norm(cols, axis=0) + t2s)
    leaves = (off_edge + allowance > _SCREEN * tol * t2s).reshape(len(ts), n_pairs)
    for k in np.flatnonzero(leaves.any(axis=0)):
        wit = bch_witness(w, a[k], b[k], [t for t, out in zip(ts, leaves[:, k]) if out],
                          tol=tol, rng=rng)
        if wit is not None:
            return wit
    return None


# ---------------------------------------------------------------------------
# tangent spaces via the dual wedge
# ---------------------------------------------------------------------------

def _dual_face_project(w: Wedge, a_mat: np.ndarray,
                       rng: np.random.Generator):
    """Random functional projected onto the dual face by one NNLS solve.

    The dual face is polyhedral in the sampled generators: {phi with
    <g,phi> >= 0 for all generators, phi orthogonal to the edge and to A}.
    Its projector follows from the Moreau decomposition against the cone
    spanned by the generator columns and the signed equality columns.
    """
    cone = w.cone
    eq = np.concatenate([w.edge.stack, realify(a_mat, cone.complex_field)[:, None]], axis=1)
    cmat = np.concatenate([cone.stack, eq, -eq], axis=1)
    y = rng.standard_normal(cmat.shape[0])
    coef, _ = nnls(cmat, -y)
    phi = y + cmat @ coef
    return unrealify(phi, cone.shape, cone.complex_field)


def tangent_space(w: Wedge, a_mat: np.ndarray, face_samples: int = 192,
                  seed: int = 0, tol: float = 1e-8) -> Subspace:
    """Tangent space T_A w = (A^perp ∩ w*)^perp at a wedge member A.

    Where the cone's family has a closed form (`ConjugationFamily.exact`)
    that covers A's edge-orthogonal part x, T_A is the edge plus
    span{x, [s_i, x]} over the family's seeds s_i.  Otherwise the dual face
    (functionals nonnegative on the wedge and vanishing on A) is sampled by
    Moreau/NNLS projection onto the stored generators' inequalities, and
    samples with |<phi, A>| above a guard band are discarded.  The stored
    generators only approximate the cone, so that sampled face, and the
    tangent space returned from it, is bounded in neither direction: on a
    curved cone it is over-sampled, and T_A comes out too small.
    """
    a_mat = np.asarray(a_mat)
    if not wedge_contains(w, a_mat):
        raise ValueError("tangent_space requires a wedge member")
    exact = None if w.cone.analytic is None else w.cone.analytic.exact
    orbit = None if exact is None else exact.tangent(a_mat - w.edge.project(a_mat))
    if orbit is not None:
        return orthonormal_span([*w.edge.mats, *orbit], shape=w.cone.shape,
                                complex_field=w.cone.complex_field)
    rng = np.random.default_rng(seed)
    na = max(1.0, fro(a_mat))
    phis = []
    for _ in range(face_samples):
        phi = _dual_face_project(w, a_mat, rng)
        n = fro(phi)
        if n <= tol:
            continue
        phi = phi / n
        if abs(inner(phi, a_mat)) <= _FACE_GUARD * na:
            phis.append(phi)
    face = orthonormal_span(phis, shape=w.cone.shape,
                            complex_field=w.cone.complex_field)
    return orthocomplement(face)


# ---------------------------------------------------------------------------
# rotation-orbit case analysis
# ---------------------------------------------------------------------------

def orbit_wedge(rates, hull_samples: int = 192, seed: int = 0,
                tol: float = 1e-8) -> Wedge:
    """Wedge so(3) + cone{R diag(rates) R^T} with its analytic orbit family."""
    rates = tuple(float(v) for v in rates)
    if len(rates) != 3 or min(rates) < 0:
        raise ValueError(f"rates must be three nonnegative reals, got {rates}")
    gamma = np.diag(np.sort(rates)[::-1])
    seeds = tuple(h / fro(h) for h in (H_X, H_Y, H_Z))
    edge = orthonormal_span([H_X, H_Y, H_Z], shape=(3, 3), complex_field=False)
    rng = np.random.default_rng(seed)
    fam = None
    gens = []
    if fro(gamma) > 0:
        fam = ConjugationFamily(seeds, gamma)
        gens = [gamma] + [g for _, g in fam.sweep(hull_samples, rng)]
    cone = Cone(generators=tuple(gens), shape=(3, 3), complex_field=False,
                analytic=fam, pointed=bool(fro(gamma) > 0) or None, tol=tol)
    return Wedge(edge=edge, cone=cone, drift=gamma)


def _case_setup(case_id: str, params: dict) -> tuple:
    """(rates, A, witness direction B or None) for the four rate patterns."""
    if case_id == "i":
        lam = float(params.get("lam", 1.0))
        if lam < 0:
            raise ValueError(f"case i needs lam >= 0, got {lam}")
        omega = np.asarray(params.get("omega", H_Z), dtype=float)
        return (lam, lam, lam), lam * np.eye(3) + omega, None
    if case_id == "ii":
        g = float(params.get("gamma", 1.0))
        if g <= 0:
            raise ValueError(f"case ii needs gamma > 0, got {g}")
        return (g, 0.0, 0.0), np.diag([g, 0.0, 0.0]) + H_Z, P_Z
    if case_id == "iii":
        g = float(params.get("gamma", 1.0))
        if g <= 0:
            raise ValueError(f"case iii needs gamma > 0, got {g}")
        return (g, g, 0.0), np.diag([g, g, 0.0]) + H_Y, P_Y
    rates = tuple(float(v) for v in params.get("rates", (3.0, 2.0, 1.0)))
    if not (rates[0] > rates[1] > rates[2] >= 0):
        raise ValueError(f"case iv needs rates a > b > c >= 0, got {rates}")
    return rates, np.diag(rates) + H_Z, P_Z


def expected_tangent(case_id: str, rates) -> Subspace:
    """Closed-form tangent space for the four rate patterns."""
    gamma = np.diag(np.sort([float(v) for v in rates])[::-1])
    mats = [H_X, H_Y, H_Z]
    if case_id == "i":
        lam = float(rates[0])
        if lam > 0:
            mats.append(np.eye(3))
    elif case_id == "ii":
        mats += [gamma, P_Y, P_Z]
    elif case_id == "iii":
        mats += [gamma, P_X, P_Y]
    else:
        mats += [gamma, P_X, P_Y, P_Z]
    return orthonormal_span(mats, shape=(3, 3), complex_field=False)


def semialgebra_case(case_id: str, params: dict = None) -> dict:
    """Tangent-space inclusion analysis for the rotation-orbit wedges.

    Cases select the relaxation-rate pattern: 'i' isotropic (the wedge is
    a Lie semialgebra), 'ii' rank-one, 'iii' degenerate pair, 'iv' generic
    distinct rates (all three fail, each with a commutator witness
    [A, B] outside T_A).  Returns a report with the tangent space, the
    verdict, and the witness data.  The verdict reads the invariance
    residual sigma_max((I - P_T) M) / sigma_max(M), where M stacks [A, t_k]
    over an orthonormal basis t_k of T_A (0 when M = 0); a change of basis
    rotates M's columns only, so the residual depends on T_A alone.
    """
    if case_id not in _CASE_IDS:
        raise ValueError(f"case_id must be one of {_CASE_IDS}, got {case_id!r}")
    params = {} if params is None else dict(params)
    rates, a_mat, b_dir = _case_setup(case_id, params)
    w = orbit_wedge(rates, hull_samples=int(params.get("hull_samples", 192)),
                    seed=int(params.get("seed", 0)))
    t_a = tangent_space(w, a_mat,
                        face_samples=int(params.get("face_samples", 192)),
                        seed=int(params.get("seed", 0)))
    expected = expected_tangent(case_id, rates)
    brackets = realify_stack([comm(a_mat, m) for m in t_a.mats], t_a.shape, t_a.complex_field)
    top = np.linalg.norm(brackets, 2)
    off = brackets - t_a.stack @ (t_a.stack.T @ brackets)
    inv = np.linalg.norm(off, 2) / top if top > 0.0 else 0.0
    report = {
        "case": case_id,
        "rates": rates,
        "A": a_mat,
        "tangent": t_a,
        "tangent_dim": t_a.dim,
        "expected_dim": expected.dim,
        "tangent_matches_closed_form": subspace_equal(t_a, expected, tol=1e-8),
        "invariance_residual": float(inv),
        "is_semialgebra": bool(inv <= 1e-8),
        "verdict": "semialgebra" if inv <= 1e-8 else "not-semialgebra",
        "witness_B": b_dir,
        "witness": None,
        "witness_residual": 0.0,
    }
    if b_dir is not None:
        witness = comm(a_mat, np.asarray(b_dir))
        report["witness"] = witness
        report["witness_residual"] = float(t_a.residual(witness) / fro(witness))
    return report
