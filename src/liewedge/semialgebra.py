"""Truncated BCH products and the Lie-semialgebra structure of wedges.

A wedge is BCH-closed (a Lie semialgebra) when small products
expm(tA)expm(tB) generate no direction outside it.  This module provides
the order-4 truncated product, a probe that certifies closure where every
bracket of the wedge's span falls in its edge (`Wedge.abelian_modulo_edge`,
the isotropic case) and elsewhere hunts for counterexample pairs at
random, tangent spaces T_A w = (A^perp ∩ w*)^perp (exact, from the closed
form that decides a cone, and None where none does), and the
rotation-orbit case analysis (isotropic, rank-one, degenerate-pair, and
generic relaxation rates).  Like the wedges they test, the probe and the
tangent spaces work on the real carrier: on a qubit or two qubits, the
Pauli transfer matrices of the generators (`lindblad.ptm_rep`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import wedge
from .channels import H_X, H_Y, H_Z, P_X, P_Y, P_Z
from .liealg import subspace_equal
from .matcore import (Subspace, _checked_count, _checked_tol, _columns, comm, fro,
                      orthonormal_span)
from .wedge import Cone, ConjugationFamily, Wedge, _cone_fit, _membership

BCH_MAX_ORDER = 4
# `wedge.nnls` under a second name, which bench/tracing.py wraps; nothing
# here calls it, so binding it loads no scipy
nnls = wedge.nnls
# least tol of the probe: below about 1e-13 the witness threshold tol * t**2
# falls under the rounding of the order-4 tail, which then reads as a witness
_TOL_FLOOR = 1e-12

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


def _checked_grid(t_grid, tol: float) -> tuple:
    """The t grid as floats, after rejecting an empty grid and a t or tol
    that is not positive and finite, any of which makes the probe vacuous,
    and a tol below `_TOL_FLOOR`, where it would report rounding noise as a
    witness."""
    ts = tuple(float(t) for t in t_grid)
    if not ts:
        raise ValueError("t_grid must hold at least one t, got ()")
    for name, v in [("t", t) for t in ts] + [("tol", tol)]:
        if not 0 < v < np.inf:
            raise ValueError(f"{name} must be positive and finite, got {v}")
    if tol < _TOL_FLOOR:
        raise ValueError(f"tol must be at least {_TOL_FLOOR:g}, where the witness threshold "
                         f"stays above the rounding of the order-4 tail, got {tol}")
    return ts


def bch_witness(w: Wedge, a: np.ndarray, b: np.ndarray, t_grid=(1e-2,),
                tol: float = 1e-8):
    """Tail test for a single ordered pair; see `semialgebra_probe`.

    For each t in turn, the tail beyond t(a+b) is split into its edge part
    e and the rest p, and p is fitted by the cone.  The first t whose fit
    residual exceeds tol*t**2*max(1, |a||b|) gives the witness.  Zero lies
    in every cone, so a fit leaves at most |p| (up to a relative 1e-12 of
    rounding); a p with |p|(1 + 1e-12) at most the threshold can never be a
    witness, and its fit is skipped.  Every result is that of fitting each t.
    """
    ts = _checked_grid(t_grid, tol)
    a, b = np.asarray(a), np.asarray(b)
    scale = max(1.0, fro(a) * fro(b))
    for t in ts:
        prod = bch(t * a, t * b, order=4)
        tail = prod - t * (a + b)
        threshold = tol * t * t * scale
        e = w.edge.project(tail)
        p = tail - e
        if fro(p) * (1 + 1e-12) <= threshold:
            continue
        rnorm, cfit = _cone_fit(w.cone, p, target=0.1 * threshold)
        if rnorm > threshold:
            return BchWitness(A=a, B=b, t=t, product=prod, offending_component=tail - (e + cfit),
                              residual=float(rnorm / (t * t)))
    return None


def _wedge_samples(w: Wedge, count: int, rng: np.random.Generator):
    """Yield unit-norm wedge members, one per draw, at most `count`.

    Draw k = 0, 3, 6, ... takes one generator; the others mix 1-3
    generators with weights in [0.2, 1); every third draw, and every draw
    of a wedge without generators, adds a Gaussian edge offset.  A draw of
    norm <= 1e-12 is skipped.  A draw is made only when its sample is asked
    for, so a probe that stops at its first witness draws no further.
    """
    gens, edge = w.cone.generators, w.edge.mats
    for k in range(count):
        x = np.zeros(w.cone.shape)
        if gens:
            if k % 3 == 0:
                x = x + gens[rng.integers(len(gens))]
            else:
                idx = rng.integers(len(gens), size=int(rng.integers(1, 4)))
                for i, lam in zip(idx, rng.uniform(0.2, 1.0, size=len(idx))):
                    x = x + lam * gens[i]
        if edge and (k % 3 == 2 or not gens):
            x = x + sum(cf * m for cf, m in zip(rng.normal(size=len(edge)), edge))
        n = fro(x)
        if n > 1e-12:
            yield x / n


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

    Otherwise the probe draws `2 * pair_samples` samples as it goes
    (`_wedge_samples`), takes them two at a time as (A, B), and hands each
    pair to `bch_witness`, every t of the grid for one pair before the
    next pair; the first witness ends the draws.  The fits are deterministic
    in (wedge, tail, tol).  Only the sample draws use `seed`, which must be
    an integer >= 0, and `pair_samples`, which must be an integer >= 1;
    `tol` must be at least 1e-12 (`_checked_grid`).
    """
    pair_samples = _checked_count("pairs", pair_samples, 1)
    ts = _checked_grid(t_grid, tol)
    seed = _checked_count("seed", seed)
    if w.abelian_modulo_edge:
        return None
    samples = _wedge_samples(w, 2 * pair_samples, np.random.default_rng(seed))
    for a, b in zip(samples, samples):
        wit = bch_witness(w, a, b, ts, tol=tol)
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
    return orthonormal_span([*w.edge.mats, *rays], shape=cone.shape)


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
    edge = orthonormal_span([H_X, H_Y, H_Z], shape=(3, 3))
    fam = ConjugationFamily(seeds, gamma) if fro(gamma) > 0 else None
    cone = Cone(shape=(3, 3), analytic=fam, tol=tol,
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
    return orthonormal_span(mats, shape=(3, 3))


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
    brackets = _columns(comm(a_mat, np.reshape(t_a.mats, (-1, *t_a.shape))))
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
