"""Fixtures shared by the test modules: the per-pair references that the
batched BCH probe is checked against."""

from __future__ import annotations

import numpy as np
import pytest

from liewedge.matcore import fro
from liewedge.semialgebra import bch_witness


def _reference_samples(w, count: int, rng) -> list:
    """The sample loop the batched `_wedge_samples` replaced: one matrix at
    a time, in the same draws."""
    gens = w.cone.generators
    out = []
    for k in range(count):
        x = np.zeros(w.cone.shape)
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


def _reference_probe(w, pair_samples, t_grid, tol, seed):
    """The per-pair loop the batched probe replaced: every pair goes to
    `bch_witness` in turn.  Returns (first witness or None, calls made).
    It samples whatever the wedge's certificate says."""
    rng = np.random.default_rng(seed)
    elems = _reference_samples(w, 2 * pair_samples, rng)
    for k in range(len(elems) // 2):
        wit = bch_witness(w, elems[2 * k], elems[2 * k + 1], t_grid, tol=tol)
        if wit is not None:
            return wit, k + 1
    return None, len(elems) // 2


@pytest.fixture(scope="session")
def reference_samples():
    """`_reference_samples(w, count, rng)`."""
    return _reference_samples


@pytest.fixture(scope="session")
def reference_probe():
    """`_reference_probe(w, pair_samples, t_grid, tol, seed)`."""
    return _reference_probe
