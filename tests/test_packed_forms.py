"""Packed exterior algebra against the dense oracle, and its identities.

Property tests over dims up to 8.  Comparisons that need dense arrays are
limited to at most DENSE_LIMIT entries; identities checked on packed
coefficients alone run at every degree.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import dense_oracle
from torsiongeo.frame_algebra import (
    EpsilonOrientation,
    FrameTensor,
    antisymmetrize,
    basis_form,
    form_inner,
    hodge_star,
    index_tuples,
    interior_product,
    wedge,
)
from torsiongeo.invariant_geometry import (
    LieFrameGeometry,
    bianchi_report,
    d_invariant,
)
from torsiongeo.random_geometry import (
    _seed_structure,
    closed_3form_kernel,
    random_closed_torsion,
    random_geometry,
    random_orthogonal,
    rotate_structure,
)

SETTINGS = settings(max_examples=40, deadline=None, derandomize=True)
DENSE_LIMIT = 40_000
TOL = 1e-12


@st.composite
def degrees(draw, count):
    """A dim in 1..8, `count` form degrees with sum at most dim, a seed."""
    n = draw(st.integers(1, 8))
    ps, budget = [], n
    for _ in range(count):
        p = draw(st.integers(0, budget))
        ps.append(p)
        budget -= p
    return n, ps, draw(st.integers(0, 2 ** 32 - 1))


def packed_form(rng, n, p):
    return FrameTensor(n, p, coeffs=rng.standard_normal(math.comb(n, p)))


def lie_algebra(rng, n):
    """Structure constants of a random (conjugated block-sum) Lie algebra,
    unimodular or not."""
    return _seed_structure(rng, n, unimodular=bool(rng.integers(2)))


def rotate(comp, O):
    """Components of a tensor in the frame e'_a = e_b O_{ba}."""
    for _ in range(comp.ndim):
        # contracting the leading slot and appending the new one cycles
        # every slot through once
        comp = np.tensordot(comp, O, axes=(0, 0))
    return comp


@SETTINGS
@given(degrees(1))
def test_packed_dense_round_trip(case):
    n, (p,), seed = case
    assume(n ** p <= DENSE_LIMIT)
    rng = np.random.default_rng(seed)
    dense = antisymmetrize(rng.standard_normal((n,) * p))
    T = FrameTensor(n, p, dense)
    assert np.array_equal(T.coeffs, dense.reshape((n,) * p)[tuple(index_tuples(n, p).T)]
                          .reshape(-1))
    assert np.abs(T.components - dense).max(initial=0.0) <= 1e-15
    again = FrameTensor(n, p, T.components)
    assert np.array_equal(again.coeffs, T.coeffs)
    assert not T.components.flags.writeable and not T.coeffs.flags.writeable
    assert T.sup_norm == pytest.approx(np.abs(T.components).max(initial=0.0), abs=0)


@SETTINGS
@given(degrees(2))
def test_packed_ops_match_dense_oracle(case):
    n, (p, q), seed = case
    rng = np.random.default_rng(seed)
    a, b = packed_form(rng, n, p), packed_form(rng, n, q)
    if n ** (p + q) <= DENSE_LIMIT:
        oracle = dense_oracle.wedge(a.components, b.components, n)
        assert np.abs(wedge(a, b).components - oracle).max(initial=0.0) < TOL
    if n ** max(p, n - p) <= DENSE_LIMIT:
        sign = int(rng.choice([-1, 1]))
        star = hodge_star(a, EpsilonOrientation(n, sign))
        oracle = dense_oracle.hodge_star(a.components, n, sign)
        assert np.abs(star.components - oracle).max(initial=0.0) == 0.0
    if p < n and n ** (p + 1) <= DENSE_LIMIT:
        c = lie_algebra(rng, n)
        geom = LieFrameGeometry(n, c, FrameTensor(n, 3, coeffs=np.zeros(math.comb(n, 3))))
        oracle = dense_oracle.d_invariant(a.components, c)
        assert np.abs(d_invariant(a, geom).components - oracle).max(initial=0.0) < TOL


@SETTINGS
@given(degrees(1), st.sampled_from([1, -1]))
def test_star_star_sign(case, sign):
    n, (p,), seed = case
    orient = EpsilonOrientation(n, sign)
    a = packed_form(np.random.default_rng(seed), n, p)
    twice = hodge_star(hodge_star(a, orient), orient)
    assert np.array_equal(twice.coeffs, (-1.0) ** (p * (n - p)) * a.coeffs)
    assert form_inner(hodge_star(a, orient), hodge_star(a, orient)) \
        == pytest.approx(form_inner(a, a), rel=1e-14)


@SETTINGS
@given(degrees(1))
def test_d_squared_vanishes_on_jacobi_algebras(case):
    n, (p,), seed = case
    rng = np.random.default_rng(seed)
    c = lie_algebra(rng, n)
    geom = LieFrameGeometry(n, c, FrameTensor(n, 3, coeffs=np.zeros(math.comb(n, 3))))
    a = packed_form(rng, n, p)
    dd = d_invariant(d_invariant(a, geom), geom)
    assert dd.rank == p + 2
    assert dd.sup_norm <= TOL * max(1.0, np.abs(c).max()) ** 2 * max(1.0, a.sup_norm)


@SETTINGS
@given(degrees(2))
def test_wedge_graded_commutative(case):
    n, (p, q), seed = case
    rng = np.random.default_rng(seed)
    a, b = packed_form(rng, n, p), packed_form(rng, n, q)
    ab, ba = wedge(a, b), wedge(b, a)
    assert np.abs(ab.coeffs - (-1.0) ** (p * q) * ba.coeffs).max(initial=0.0) < TOL


@SETTINGS
@given(degrees(2))
def test_interior_product_is_an_antiderivation(case):
    n, (p, q), seed = case
    assume(p >= 1 and q >= 1)
    rng = np.random.default_rng(seed)
    v = FrameTensor(n, 1, rng.standard_normal(n))
    a, b = packed_form(rng, n, p), packed_form(rng, n, q)
    lhs = interior_product(v, wedge(a, b))
    rhs = wedge(interior_product(v, a), b) \
        + (-1.0) ** p * wedge(a, interior_product(v, b))
    assert (lhs - rhs).sup_norm < TOL * 10
    assert interior_product(v, interior_product(v, wedge(a, b))).sup_norm < TOL * 10


@SETTINGS
@given(degrees(1))
def test_ops_commute_with_orthogonal_frame_change(case):
    n, (p,), seed = case
    assume(p < n and n ** (p + 1) <= DENSE_LIMIT)
    rng = np.random.default_rng(seed)
    c = lie_algebra(rng, n)
    a = packed_form(rng, n, p)
    O = random_orthogonal(rng, n)
    det = float(np.sign(np.linalg.det(O)))
    zero = FrameTensor(n, 3, coeffs=np.zeros(math.comb(n, 3)))
    geom = LieFrameGeometry(n, c, zero)
    c_rot = np.einsum("ma,pb,qc,mpq->abc", O, O, O, c)
    geom_rot = LieFrameGeometry(n, c_rot, zero)
    a_rot = FrameTensor(n, p, rotate(a.components, O))
    # d and * are natural: rotating then applying equals applying then
    # rotating (the star picks up det O)
    d_rot = d_invariant(a_rot, geom_rot)
    assert np.abs(d_rot.components
                  - rotate(d_invariant(a, geom).components, O)).max(initial=0.0) < TOL * 10
    orient = EpsilonOrientation(n)
    assert np.abs(hodge_star(a_rot, orient).components
                  - det * rotate(hodge_star(a, orient).components, O)).max(initial=0.0) \
        < TOL * 10
    # norms are frame-independent, and so is a vanishing residual
    assert form_inner(a_rot, a_rot) == pytest.approx(form_inner(a, a), rel=1e-12)
    assert d_invariant(d_rot, geom_rot).sup_norm < TOL * 10 * max(1.0, a.sup_norm)


@pytest.mark.parametrize("dim", [3, 4, 5, 6])
def test_bianchi_residuals_survive_frame_change(dim):
    rng = np.random.default_rng(600 + dim)
    c = lie_algebra(rng, dim)
    H = FrameTensor(dim, 3, antisymmetrize(rng.standard_normal((dim,) * 3)))
    O = random_orthogonal(rng, dim)
    for geom in (LieFrameGeometry(dim, c, H),
                 LieFrameGeometry(dim, *rotate_structure(c, H, O))):
        for which, row in (("first", "first_bianchi"), ("second", "second_bianchi")):
            assert bianchi_report(geom, which).row(row).value < 1e-12


def _dense_closed_kernel_dim(c) -> int:
    """Kernel dimension of d on 3-forms by the dense construction: one
    column of dense d(e^{ijk}) components per basis 3-form."""
    dim = c.shape[0]
    cols = [dense_oracle.d_invariant(basis_form(dim, combo).components, c).ravel()
            for combo in index_tuples(dim, 3)]
    s = np.linalg.svd(np.stack(cols, axis=1), compute_uv=False)
    return int(np.sum(np.concatenate([s, np.zeros(len(cols) - s.size)]) < 1e-10))


def _sampler_algebras():
    for seed in range(6):
        for dim in (3, 4, 5, 6):
            yield random_geometry(np.random.default_rng(seed), dim).c


def test_closed_kernel_dimension_matches_dense_construction(su3_built):
    algebras = list(_sampler_algebras()) + [su3_built[0].c]
    for k, c in enumerate(algebras):
        dim_old = _dense_closed_kernel_dim(c)
        assert closed_3form_kernel(c).shape[0] == dim_old
        # the sampler draws one normal per kernel direction, so the RNG
        # stream after it is the one the dense construction left
        rng = np.random.default_rng(k)
        H = random_closed_torsion(rng, c)
        expect = np.random.default_rng(k)
        expect.standard_normal(dim_old)
        assert rng.bit_generator.state == expect.bit_generator.state
        if H is not None:
            geom = LieFrameGeometry(c.shape[0], c, H)
            assert d_invariant(H, geom).sup_norm < 1e-10
