"""Truncated BCH products and the Lie-semialgebra structure of wedges.

A wedge is BCH-closed (a Lie semialgebra) when small products
expm(tA)expm(tB) generate no direction outside it.  This module provides
the order-4 truncated product, a probe that certifies closure where every
bracket of the wedge's span falls in its edge (`Wedge.abelian_modulo_edge`,
the isotropic case) and elsewhere hunts for counterexample pairs at
random, tangent spaces T_A w = (A^perp ∩ w*)^perp (exact, from the closed
form that decides a cone, and None where none does), and the
rotation-orbit case analysis (isotropic, rank-one, degenerate-pair, and
generic relaxation rates).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import wedge
from .channels import H_X, H_Y, H_Z, P_X, P_Y, P_Z
from .liealg import subspace_equal
from .matcore import (Subspace, _checked_count, _checked_tol, comm, fro, orthonormal_span,
                      realify_stack, stacked_fro)
from .wedge import Cone, ConjugationFamily, Wedge, _cone_fit, _membership

BCH_MAX_ORDER = 4
# `wedge.nnls` under a second name, which bench/tracing.py wraps; nothing
# here calls it, so binding it loads no scipy
nnls = wedge.nnls
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


def _wedge_fit(w: Wedge, x: np.ndarray, target: float = None) -> tuple:
    """Best approximation of x inside edge + cone: (residual norm, fit)."""
    e = w.edge.project(x)
    rnorm, cfit = _cone_fit(w.cone, x - e, target=target)
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
                tol: float = 1e-8):
    """Tail test for a single ordered pair; see `semialgebra_probe`."""
    ts = _checked_grid(t_grid, tol)
    scale = max(1.0, fro(a) * fro(b))
    for t in ts:
        prod = bch(t * np.asarray(a), t * np.asarray(b), order=4)
        tail = prod - t * (np.asarray(a) + np.asarray(b))
        threshold = tol * t * t * scale
        rnorm, fit = _wedge_fit(w, tail, target=0.1 * threshold)
        if rnorm > threshold:
            return BchWitness(A=np.asarray(a), B=np.asarray(b), t=t,
                              product=prod, offending_component=tail - fit,
                              residual=float(rnorm / (t * t)))
    return None


def _wedge_samples(w: Wedge, count: int, rng: np.random.Generator) -> np.ndarray:
    """Unit-norm wedge members: generators, conic mixes, and edge offsets.

    Returns a (m, *shape) stack, m <= count: draws of norm <= 1e-12 are
    dropped.  Samples k = 0, 3, 6, ... take one generator; the others mix
    1-3 generators with weights in [0.2, 1); every third sample, and every
    sample of a wedge without generators, adds a Gaussian edge offset.

    The loop only draws from `rng`, into Python lists, with the cheapest
    call that gives the draws of one sample built alone:

    - `rng.integers(n)` once per generator index, which is bitwise
      `rng.integers(n, size=m)` and leaves the same generator state (both
      run one bounded draw on `next_uint32` per index);
    - `rng.uniform(0.2, 1.0, m)` for the weights.  `0.2 + 0.8 *
      rng.random(m)` gives the same floats only where the compiler does not
      fuse numpy's `lower + range * u` into one multiply-add, so it stays;
    - `rng.standard_normal(dim)` for the edge coefficients, which is
      bitwise `rng.normal(size=dim)` (numpy's normal is `0 + 1 * z`).

    The lists are scattered into index arrays once, and the stack is summed
    term by term, each masked add in the order one sample adds its terms (a
    lone generator is added with weight 1.0, which is exact).  The norms
    come from `matcore.stacked_fro`, bitwise `fro` of each sample.  So every
    sample is bitwise what building it alone gives.
    """
    gens = w.cone.generators
    n_gens, dim = len(gens), w.edge.dim
    rows, slots, picks, weights = [], [], [], []  # one entry per generator term
    coefs, offset = [], []
    for k in range(count):
        if n_gens:
            if k % 3 == 0:
                rows.append(k)
                slots.append(0)
                picks.append(rng.integers(n_gens))
                weights.append(1.0)
            else:
                m = int(rng.integers(1, 4))
                rows += [k] * m
                slots += range(m)
                picks += [rng.integers(n_gens) for _ in range(m)]
                weights += rng.uniform(0.2, 1.0, m).tolist()
        if dim and (k % 3 == 2 or not n_gens):
            coefs.append(rng.standard_normal(dim))
            offset.append(k)
    x = np.zeros((count, *w.cone.shape), dtype=complex if w.cone.complex_field else float)
    if n_gens:
        pick = np.zeros((count, 3), dtype=int)
        weight = np.zeros((count, 3))  # 0 marks an absent term
        pick[rows, slots] = picks
        weight[rows, slots] = weights
        g = np.asarray(gens)
        for j in range(3):
            on = weight[:, j] > 0
            x[on] = x[on] + weight[on, j, None, None] * g[pick[on, j]]
    if offset:
        e = 0
        for cf, mat in zip(np.array(coefs).T, w.edge.mats):
            e = e + cf[:, None, None] * mat
        x[offset] = x[offset] + e
    norms = stacked_fro(x)
    keep = norms > 1e-12
    return x[keep] / norms[keep, None, None]


def semialgebra_probe(w: Wedge, pair_samples: int = 200, t_grid=(1e-2,),
                      tol: float = 1e-8, seed: int = 0):
    """Randomized BCH-closure check on sampled pairs of wedge elements.

    Forms bch(tA, tB) for unit-norm wedge members A, B and tests whether
    the tail beyond the first-order part t(A+B) stays inside the wedge
    (the first-order part itself is a member by convexity).  Returns the
    first `BchWitness` whose tail misfit exceeds tol*t**2, else None.

    The settings are checked first.  A wedge whose span is abelian modulo
    its edge (`Wedge.abelian_modulo_edge`) is a Lie semialgebra: every tail
    lies in the edge, so None is returned without drawing a sample, and
    there it is a proof.  On any other wedge None means "no counterexample
    found at this sampling budget" on an inner-approximated membership
    oracle -- never a proof.

    Otherwise one batched pass: all samples are drawn first, every tail for
    each t comes from one stacked `bch` call, and one matmul projects all
    tails off the edge.  Zero lies in the cone, so a tail's fit residual is
    at most the norm of its edge-orthogonal part.  A tail whose
    edge-orthogonal norm, plus a 1e-12 allowance for the rounding by which
    this pass and the single-pair fit may differ, is at most half of
    `bch_witness`'s fit target 0.1*tol*t**2*scale can therefore not meet
    the witness threshold; it is skipped.  The remaining (pair, t) tails go, pair by pair in sample
    order, to `bch_witness`, whose fits are deterministic in (wedge, tail,
    tol), so the first witness is that of fitting every pair in turn.  Only
    the sample draws use `seed`, which must be an integer >= 0, and
    `pair_samples`, which must be an integer >= 1.
    """
    pair_samples = _checked_count("pairs", pair_samples, 1)
    ts = _checked_grid(t_grid, tol)
    seed = _checked_count("seed", seed)
    if w.abelian_modulo_edge:
        return None
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
                          tol=tol)
        if wit is not None:
            return wit
    return None


# ---------------------------------------------------------------------------
# tangent spaces
# ---------------------------------------------------------------------------

def tangent_space(w: Wedge, a_mat: np.ndarray, seed: int = 0):
    """Tangent space T_A w = (A^perp ∩ w*)^perp at a wedge member A, or None
    (undecided) where no closed form decides it.

    With x = A minus its edge part, taken from the projection of the
    membership pass that checks A (`wedge._membership`), T_A is the edge
    plus `exact.tangent(x, tol)` on a cone whose closed form decides it
    (`Cone.exact`), or plus x (if |x| > tol) on a cone of at most one
    generator and no family, tol being the cone's; other cones, which their
    generators only approximate, give None.  No number is drawn, but `seed`
    must be an integer >= 0; ValueError otherwise, when A is not one matrix
    of the carrier's shape, or when A is not a member.
    """
    _checked_count("seed", seed)
    _, (member,), (x,) = _membership(w.cone, a_mat, None, w.edge, stacked=False)
    if not member:
        raise ValueError("tangent_space requires a wedge member")
    cone, exact = w.cone, w.cone.exact
    if exact is not None:
        rays = exact.tangent(x, cone.tol)
    elif cone.analytic is None and cone.n_generators <= 1:
        rays = [x] if fro(x) > cone.tol else []
    else:
        return None
    return orthonormal_span([*w.edge.mats, *rays], shape=cone.shape,
                            complex_field=cone.complex_field)


# ---------------------------------------------------------------------------
# rotation-orbit case analysis
# ---------------------------------------------------------------------------

def orbit_wedge(rates, hull_samples: int = 192, seed: int = 0,
                tol: float = 1e-8) -> Wedge:
    """Wedge so(3) + cone{R diag(rates) R^T}, the cone held as its orbit
    family and `hull_samples` sweep rows drawn with `seed`.

    `rates` must be three nonnegative finite reals, `hull_samples` and
    `seed` integers >= 0 and `tol` positive and finite; else ValueError."""
    tol = _checked_tol(tol)
    rates = tuple(float(v) for v in rates)
    if len(rates) != 3 or not all(0 <= v < np.inf for v in rates):
        raise ValueError(f"rates must be three nonnegative finite reals, got {rates}")
    hull_samples = _checked_count("hull_samples", hull_samples)
    rng = np.random.default_rng(_checked_count("seed", seed))
    gamma = np.diag(np.sort(rates)[::-1])
    seeds = tuple(h / fro(h) for h in (H_X, H_Y, H_Z))
    edge = orthonormal_span([H_X, H_Y, H_Z], shape=(3, 3), complex_field=False)
    fam = ConjugationFamily(seeds, gamma) if fro(gamma) > 0 else None
    cone = Cone(shape=(3, 3), complex_field=False, analytic=fam, tol=tol,
                thetas=None if fam is None else fam.params(hull_samples, rng))
    return Wedge(edge=edge, cone=cone, drift=gamma)


def _checked_rates(case_id: str, rates) -> tuple:
    """`rates` as three floats, after checking that they fit the case's
    pattern: i (lam, lam, lam) with lam >= 0, ii (gamma, 0, 0) and iii
    (gamma, gamma, 0) with gamma > 0, iv a > b > c >= 0; else ValueError."""
    rates = tuple(float(v) for v in rates)
    if len(rates) != 3:
        raise ValueError(f"case {case_id} needs three rates, got {rates}")
    a, b, c = rates
    if case_id == "i":
        if a < 0:
            raise ValueError(f"case i needs lam >= 0, got {a}")
        if not a == b == c:
            raise ValueError(f"case i needs rates (lam, lam, lam), got {rates}")
    elif case_id in ("ii", "iii"):
        if a <= 0:
            raise ValueError(f"case {case_id} needs gamma > 0, got {a}")
        if rates != ((a, 0.0, 0.0) if case_id == "ii" else (a, a, 0.0)):
            pattern = "(gamma, 0, 0)" if case_id == "ii" else "(gamma, gamma, 0)"
            raise ValueError(f"case {case_id} needs rates {pattern}, got {rates}")
    elif not a > b > c >= 0:
        raise ValueError(f"case iv needs rates a > b > c >= 0, got {rates}")
    return rates


def _case_setup(case_id: str, params: dict) -> tuple:
    """(rates, A, witness direction B or None) for the four rate patterns."""
    if case_id == "i":
        lam = float(params.get("lam", 1.0))
        rates = _checked_rates("i", (lam, lam, lam))
        omega = np.asarray(params.get("omega", H_Z), dtype=float)
        return rates, lam * np.eye(3) + omega, None
    if case_id in ("ii", "iii"):
        g = float(params.get("gamma", 1.0))
        rates = _checked_rates(case_id, (g, 0.0, 0.0) if case_id == "ii" else (g, g, 0.0))
        h, b = (H_Z, P_Z) if case_id == "ii" else (H_Y, P_Y)
        return rates, np.diag(rates) + h, b
    rates = _checked_rates("iv", params.get("rates", (3.0, 2.0, 1.0)))
    return rates, np.diag(rates) + H_Z, P_Z


def _checked_case(case_id: str):
    if case_id not in _CASE_IDS:
        raise ValueError(f"case_id must be one of {_CASE_IDS}, got {case_id!r}")


def expected_tangent(case_id: str, rates) -> Subspace:
    """Closed-form tangent space for the four rate patterns; a case_id or
    rates that do not fit one (`_checked_rates`) raise ValueError."""
    _checked_case(case_id)
    rates = _checked_rates(case_id, rates)
    gamma = np.diag(rates)
    mats = [H_X, H_Y, H_Z]
    if case_id == "i":
        mats += [np.eye(3)] if rates[0] > 0 else []
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
    rotates M's columns only, so the residual depends on T_A alone.  The
    case wedge holds the base generator and its orbit family only: T_A
    comes from the family's closed form, which needs no sampled hull (case i
    at lam 0 has no cone, and T_A is the edge).  `params` may set the case's
    rates ('lam', 'omega', 'gamma', 'rates') and the `seed` of
    `tangent_space`, an integer >= 0.
    """
    _checked_case(case_id)
    params = {} if params is None else dict(params)
    rates, a_mat, b_dir = _case_setup(case_id, params)
    w = orbit_wedge(rates, hull_samples=0)
    t_a = tangent_space(w, a_mat, seed=params.get("seed", 0))
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
