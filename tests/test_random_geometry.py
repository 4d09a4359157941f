"""The exact sampler: every sample satisfies the Jacobi identity to
rounding, unimodular samples have tr ad = 0, and every dim reaches every
kind of algebra.  The Jacobi projection itself is tested in
test_projection.py."""

import numpy as np
import pytest

from torsiongeo.invariant_geometry import lie_jacobi_residual
from torsiongeo.random_geometry import random_geometry

SEEDS = 40


def _span(vectors, scale):
    """Orthonormal rows spanning the rows of ``vectors``."""
    if not vectors.size:
        return vectors
    _, s, vt = np.linalg.svd(vectors, full_matrices=False)
    return vt[s > 1e-9 * scale]


def _series_ends_at_zero(c, lower):
    """Whether the lower central series (g, [g, g^i]) or the derived
    series (g^i, [g^i, g^i]) of c reaches 0."""
    n, scale = c.shape[0], max(1.0, np.abs(c).max())
    g = np.eye(n)
    ideal = g
    for _ in range(n + 1):
        left = g if lower else ideal
        ideal = _span(np.einsum("abc,ib,jc->ija", c, left, ideal).reshape(-1, n), scale)
        if ideal.shape[0] == 0:
            return True
    return False


def kind(c):
    if _series_ends_at_zero(c, lower=True):
        return "nilpotent"
    return "solvable" if _series_ends_at_zero(c, lower=False) else "levi"


@pytest.mark.parametrize("unimodular", [True, False], ids=["unimodular", "general"])
@pytest.mark.parametrize("dim", range(3, 9))
def test_samples_are_exact_lie_algebras(dim, unimodular):
    for seed in range(SEEDS):
        c = random_geometry(np.random.default_rng(seed), dim, unimodular=unimodular).c
        sup = np.abs(c).max()
        assert 0.5 <= sup <= 1.5, seed
        assert lie_jacobi_residual(c) <= 1e-13 * sup ** 2, seed
        if unimodular:
            assert np.abs(np.einsum("aba->b", c)).max() <= 1e-13 * sup, seed


@pytest.mark.parametrize("dim", range(3, 9))
def test_every_dim_reaches_every_kind_of_algebra(dim):
    """Across seeds each dim gives nilpotent, solvable non-nilpotent and
    non-solvable (Levi factor) algebras under either flag, and
    non-unimodular ones unless unimodular is asked for."""
    for unimodular in (True, False):
        samples = [random_geometry(np.random.default_rng(seed), dim, unimodular=unimodular)
                   for seed in range(SEEDS)]
        assert {kind(g.c) for g in samples} == {"nilpotent", "solvable", "levi"}
        assert all(g.unimodular for g in samples) == unimodular
