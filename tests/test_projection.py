"""The sampler's Jacobi projection: the orthogonal projection of a
candidate datum onto the null space of its linear Jacobi map, that is
onto the derivations or the closed 2-forms, and the identity where that
map is zero."""

import math

import numpy as np

from torsiongeo.frame_algebra import FrameTensor, epsilon3, index_tuples
from torsiongeo.invariant_geometry import (
    LieFrameGeometry,
    _exterior_derivative,
    d_invariant,
)
from torsiongeo.random_geometry import _derivation_map, project_to_jacobi


def _is_derivation(c, D):
    """D [x, y] - [D x, y] - [x, D y] on every pair, as one array."""
    return (np.einsum("am,mxy->axy", D, c) - np.einsum("apy,px->axy", c, D)
            - np.einsum("axq,qy->axy", c, D))


def test_projection_keeps_only_derivations():
    """The derivations of su(2) are the antisymmetric matrices, so the
    projection removes exactly the symmetric part of a candidate, with or
    without the trace row; the result is a derivation and projects to
    itself."""
    rng = np.random.default_rng(3)
    c = epsilon3()
    M = rng.standard_normal((3, 3))
    for unimodular in (True, False):
        mat = _derivation_map(c, unimodular)
        D = project_to_jacobi(mat, M.ravel())
        assert np.abs(D - 0.5 * (M - M.T).ravel()).max() <= 1e-14
        assert np.abs(_is_derivation(c, D.reshape(3, 3))).max() <= 1e-14
        assert np.abs(project_to_jacobi(mat, D) - D).max() <= 1e-14


def test_projection_keeps_only_closed_2forms():
    """On the filiform n4 ([e0, e1] = e2, [e0, e2] = e3) the 2-forms e13
    and e23 are the only basis forms with d != 0, and their differentials
    are independent, so the projection onto the closed 2-forms zeroes
    exactly those two coefficients."""
    c = np.zeros((4, 4, 4))
    c[2, 0, 1], c[3, 0, 2] = 1.0, 1.0
    c = c - np.swapaxes(c, 1, 2)
    mat = _exterior_derivative(c, 2, np.eye(6)).T
    w = np.random.default_rng(4).standard_normal(6)
    closed = project_to_jacobi(mat, w)
    want = w.copy()
    pairs = [tuple(p) for p in index_tuples(4, 2)]
    want[[pairs.index((1, 3)), pairs.index((2, 3))]] = 0.0
    assert np.abs(closed - want).max() <= 1e-14
    geom = LieFrameGeometry(4, c, FrameTensor(4, 3, coeffs=np.zeros(math.comb(4, 3))))
    assert d_invariant(FrameTensor(4, 2, coeffs=closed), geom).sup_norm <= 1e-14
    assert np.abs(project_to_jacobi(mat, closed) - closed).max() <= 1e-14


def test_projection_keeps_the_candidate_of_an_abelian_algebra():
    """Every endomorphism of an abelian algebra is a derivation and every
    2-form is closed: the all-zero map returns the candidate unchanged."""
    rng = np.random.default_rng(5)
    c = np.zeros((4, 4, 4))
    M = rng.standard_normal(16)
    assert project_to_jacobi(_derivation_map(c, False), M) is M
    w = rng.standard_normal(6)
    assert project_to_jacobi(_exterior_derivative(c, 2, np.eye(6)).T, w) is w
