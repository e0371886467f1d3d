"""Truncated BCH products and the Lie-semialgebra structure of wedges.

A wedge is BCH-closed (a Lie semialgebra) when small products
expm(tA)expm(tB) generate no direction outside it.  This module provides
the order-4 truncated product, a randomized probe that hunts for
counterexample pairs, tangent spaces T_A w = (A^perp ∩ w*)^perp sampled
through the dual wedge, and the closed-form rotation-orbit case analysis
(isotropic, rank-one, degenerate-pair, and generic relaxation rates).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import nnls

from .channels import H_X, H_Y, H_Z, P_X, P_Y, P_Z
from .liealg import orthocomplement, subspace_equal
from .matcore import (Subspace, comm, eig_sym, fro, inner, orthonormal_span, realify,
                      unrealify)
from .wedge import Cone, ConjugationFamily, Wedge, _cone_fit, wedge_contains

BCH_MAX_ORDER = 4
_FACE_GUARD = 1e-8

_CASE_IDS = ("i", "ii", "iii", "iv")


# ---------------------------------------------------------------------------
# truncated BCH product
# ---------------------------------------------------------------------------

def bch(a: np.ndarray, b: np.ndarray, order: int = 4) -> np.ndarray:
    """Truncated product log a*b = a + b + [a,b]/2 + ... up to `order`."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape != b.shape:
        raise ValueError("bch needs two square matrices of the same shape")
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


def bch_witness(w: Wedge, a: np.ndarray, b: np.ndarray, t_grid=(1e-2,),
                tol: float = 1e-8, rng: np.random.Generator = None):
    """Tail test for a single ordered pair; see `semialgebra_probe`."""
    scale = max(1.0, fro(a) * fro(b))
    for t in t_grid:
        t = float(t)
        prod = bch(t * np.asarray(a), t * np.asarray(b), order=4)
        tail = prod - t * (np.asarray(a) + np.asarray(b))
        threshold = tol * t * t * scale
        rnorm, fit = _wedge_fit(w, tail, rng=rng, target=0.1 * threshold)
        if rnorm > threshold:
            return BchWitness(A=np.asarray(a), B=np.asarray(b), t=t,
                              product=prod, offending_component=tail - fit,
                              residual=float(rnorm / (t * t)))
    return None


def _wedge_samples(w: Wedge, count: int, rng: np.random.Generator) -> list:
    """Unit-norm wedge members: generators, conic mixes, and edge offsets."""
    gens = w.cone.generators
    dtype = complex if w.cone.complex_field else float
    out = []
    for k in range(count):
        x = np.zeros(w.cone.shape, dtype=dtype)
        if gens:
            if k % 3 == 0:
                x = x + gens[rng.integers(len(gens))]
            else:
                idx = rng.integers(len(gens), size=int(rng.integers(1, 4)))
                for i, lam in zip(idx, rng.uniform(0.2, 1.0, size=len(idx))):
                    x = x + lam * gens[i]
        if w.edge.dim and (k % 3 == 2 or not gens):
            coefs = rng.normal(size=w.edge.dim)
            x = x + sum(cf * np.asarray(m) for cf, m in zip(coefs, w.edge.mats))
        n = fro(x)
        if n > 1e-12:
            out.append(x / n)
    return out


def semialgebra_probe(w: Wedge, pair_samples: int = 200, t_grid=(1e-2,),
                      tol: float = 1e-8, seed: int = 0):
    """Randomized BCH-closure check on sampled pairs of wedge elements.

    Forms bch(tA, tB) for unit-norm wedge members A, B and tests whether
    the tail beyond the first-order part t(A+B) stays inside the wedge
    (the first-order part itself is a member by convexity).  Returns the
    first `BchWitness` whose tail misfit exceeds tol*t**2, else None.
    None means "no counterexample found at this sampling budget" on an
    inner-approximated membership oracle -- never a proof.
    """
    rng = np.random.default_rng(seed)
    elems = _wedge_samples(w, 2 * pair_samples, rng)
    for k in range(len(elems) // 2):
        wit = bch_witness(w, elems[2 * k], elems[2 * k + 1], t_grid,
                          tol=tol, rng=rng)
        if wit is not None:
            return wit
    return None


# ---------------------------------------------------------------------------
# tangent spaces via the dual wedge
# ---------------------------------------------------------------------------

def _eig_groups(vals: np.ndarray, tol: float = 1e-8) -> list:
    """Multiplicity pattern of a descending eigenvalue triple."""
    sizes = [1]
    for k in range(1, len(vals)):
        if vals[k - 1] - vals[k] <= tol:
            sizes[-1] += 1
        else:
            sizes.append(1)
    return sizes


def _face_block_sample(g: np.ndarray, groups: list,
                       rng: np.random.Generator):
    """Dual-face element (aligned basis) for the rotation-orbit cone.

    The dual cone is c*l1 + b*l2 + a*l3 >= 0 on descending eigenvalues
    l of the symmetric part, for rates g = (a >= b >= c >= 0); the face at
    the base requires equality attained in the aligned basis, which pins
    the eigenvalue pairing per multiplicity pattern of g.
    """
    a, b, c = (float(v) for v in g)
    if groups == [3]:
        s = rng.standard_normal((3, 3))
        s = (s + s.T) / 2.0
        return s - (np.trace(s) / 3.0) * np.eye(3)
    if groups == [1, 2]:
        # largest rate isolated: smallest functional eigenvalue sits on its
        # axis, the 2x2 block is free above it
        bmat = rng.standard_normal((2, 2))
        bmat = (bmat + bmat.T) / 2.0
        lam_min = float(np.linalg.eigvalsh(bmat)[0])
        mu = max(0.0, (-(b / a) * np.trace(bmat) - lam_min) / (1.0 + 2.0 * b / a))
        bmat = bmat + (mu + rng.exponential(0.3)) * np.eye(2)
        out = np.zeros((3, 3))
        out[0, 0] = -b * np.trace(bmat) / a
        out[1:, 1:] = bmat
        return out
    if groups == [2, 1]:
        bmat = rng.standard_normal((2, 2))
        bmat = (bmat + bmat.T) / 2.0
        if c <= 1e-12:
            bmat = bmat - (np.trace(bmat) / 2.0) * np.eye(2)
            s3 = float(np.linalg.eigvalsh(bmat)[1]) + rng.exponential(0.5)
        else:
            lam_max = float(np.linalg.eigvalsh(bmat)[1])
            s3 = -a * np.trace(bmat) / c
            mu = max(0.0, (lam_max - s3) / (1.0 + 2.0 * a / c))
            bmat = bmat - (mu + rng.exponential(0.3)) * np.eye(2)
            s3 = -a * np.trace(bmat) / c
        out = np.zeros((3, 3))
        out[:2, :2] = bmat
        out[2, 2] = s3
        return out
    # distinct rates: diagonal functionals with ascending entries on the
    # null plane of the rates vector (alternating projections)
    gv = np.array([a, b, c])
    gv = gv / np.linalg.norm(gv)
    d = rng.standard_normal(3)
    for _ in range(200):
        d = np.sort(d)
        d = d - np.dot(d, gv) * gv
        if np.all(np.diff(d) >= -1e-12) and abs(np.dot(d, gv)) < 1e-12:
            break
    if np.linalg.norm(d) < 1e-8 or np.any(np.diff(d) < -1e-12):
        return None
    return np.diag(d)


def _orbit_face_sampler(w: Wedge, a_mat: np.ndarray, tol: float):
    """Spectral dual-face sampler for full-rotation orbit cones, or None."""
    fam = w.cone.analytic
    if w.rep != "r3" or fam is None or fam.kind != "orbit" or w.edge.dim != 3:
        return None
    base = np.asarray(fam.base, dtype=float)
    base_sym = (base + base.T) / 2.0
    nb = fro(base_sym)
    if nb <= tol or fro(base - base_sym) > 1e-10 * max(1.0, fro(base)):
        return None
    a_sym = (np.asarray(a_mat, dtype=float) + np.asarray(a_mat, dtype=float).T) / 2.0
    na = fro(a_sym)
    if na <= tol * max(1.0, fro(a_mat)):
        return None
    w_b, _ = eig_sym(base_sym)
    w_a, v_a = eig_sym(a_sym)
    if np.linalg.norm(w_b / nb - w_a / na) > 1e-6:
        return None  # cone part of A is not on the orbit through the base
    g = w_b / nb
    groups = _eig_groups(g)

    def sampler(rng):
        d = _face_block_sample(g, groups, rng)
        return None if d is None else v_a @ d @ v_a.T

    return sampler


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
    """Tangent space T_A w: orthocomplement of the sampled dual face at A.

    The dual face (functionals nonnegative on the wedge and vanishing on
    A) is sampled constructively: through the dual-cone eigenvalue
    characterization for rotation-orbit cones, and through Moreau/NNLS
    projection onto the generator inequalities otherwise.  Samples with
    |<phi, A>| above a guard band are discarded.  Since the face can only
    be under-sampled, the returned tangent space can only over-estimate.
    """
    a_mat = np.asarray(a_mat)
    if not wedge_contains(w, a_mat):
        raise ValueError("tangent_space requires a wedge member")
    rng = np.random.default_rng(seed)
    sampler = _orbit_face_sampler(w, a_mat, tol)
    na = max(1.0, fro(a_mat))
    phis = []
    for _ in range(face_samples):
        phi = sampler(rng) if sampler is not None else \
            _dual_face_project(w, a_mat, rng)
        if phi is None:
            continue
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
        fam = ConjugationFamily(kind="orbit", seeds=seeds, base=gamma,
                                edge=edge, rep="r3")
        gens = [gamma] + [g for _, g in fam.sweep(hull_samples, rng)]
    cone = Cone(generators=tuple(gens), shape=(3, 3), complex_field=False,
                analytic=fam, pointed=bool(fro(gamma) > 0) or None, tol=tol)
    return Wedge(edge=edge, cone=cone, rep="r3", edge_seeds=tuple(seeds),
                 drift=gamma)


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
    [A, B] outside T_A).  Returns a report with the sampled tangent space,
    the verdict, and the witness data.
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
    inv = 0.0
    for m in t_a.mats:
        br = comm(a_mat, np.asarray(m))
        nb = fro(br)
        if nb > 1e-12:
            inv = max(inv, t_a.residual(br) / nb)
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
