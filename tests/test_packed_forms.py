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
    FrameTensor,
    _rank,
    antisymmetrize,
    basis_form,
    form_inner,
    frame_change,
    hodge_star,
    index_tuples,
    interior_product,
    wedge,
)
from torsiongeo.invariant_geometry import (
    LieFrameGeometry,
    _exterior_derivative,
    bianchi_report,
    d_invariant,
    rotate as rotate_geometry,
)
from torsiongeo.random_geometry import (
    _jacobian,
    _jacobian_table,
    _seed_structure,
    _vec_index,
    _vec_to_c,
    closed_3form_kernel,
    random_closed_torsion,
    random_geometry,
    random_orthogonal,
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
    assert T.components is T.components          # expanded once
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
        star = hodge_star(a, sign)
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
    a = packed_form(np.random.default_rng(seed), n, p)
    twice = hodge_star(hodge_star(a, sign), sign)
    assert np.array_equal(twice.coeffs, (-1.0) ** (p * (n - p)) * a.coeffs)
    assert form_inner(hodge_star(a, sign), hodge_star(a, sign)) \
        == pytest.approx(form_inner(a, a), rel=1e-14)


def test_packed_ranks_exact_where_dense_positions_overflow():
    """Packed positions are exact where the dense flat position n**p
    exceeds intp (from dim 18): every packed tuple list ranks as arange
    up to dim 20, and ** = (-1)^{p(n-p)} at dim 18 for every degree."""
    for n in range(21):
        for p in range(n + 1):
            if math.comb(n, p) <= 300_000:
                # uncached, so the test leaves no large tables behind
                tuples = index_tuples.__wrapped__(n, p)
                assert np.array_equal(_rank(n, tuples), np.arange(math.comb(n, p)))
    rng = np.random.default_rng(18)
    for p in (1, 2, 16, 17):
        a = packed_form(rng, 18, p)
        twice = hodge_star(hodge_star(a))
        assert np.array_equal(twice.coeffs, (-1.0) ** (p * (18 - p)) * a.coeffs)


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
    assert np.abs(hodge_star(a_rot).components
                  - det * rotate(hodge_star(a).components, O)).max(initial=0.0) \
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
    base = LieFrameGeometry(dim, c, H)
    for geom in (base, rotate_geometry(base, {}, O)[0]):
        first, second, _, _ = bianchi_report(geom)
        for rep, row in ((first, "first_bianchi"), (second, "second_bianchi")):
            assert rep.row(row).value < 1e-12


def _dense_closed_kernel_dim(c) -> int:
    """Kernel dimension of d on 3-forms by the dense construction: one
    column of dense d(e^{ijk}) components per basis 3-form.  Packed, each
    column must be the matching column of the matrix closed_3form_kernel
    decomposes."""
    dim = c.shape[0]
    cols = [dense_oracle.d_invariant(basis_form(dim, combo).components, c)
            for combo in index_tuples(dim, 3)]
    packed = np.stack([FrameTensor(dim, 4, col).coeffs for col in cols], axis=1)
    mat = _exterior_derivative(c, 3, np.eye(len(cols))).T
    assert np.abs(mat - packed).max(initial=0.0) <= TOL * max(1.0, np.abs(c).max())
    s = np.linalg.svd(np.stack([col.ravel() for col in cols], axis=1), compute_uv=False)
    return int(np.sum(np.concatenate([s, np.zeros(len(cols) - s.size)]) < 1e-10))


@pytest.mark.parametrize("dim", range(3, 9))
def test_closed_kernel_matrix_is_d_of_each_basis_form(dim):
    """The matrix closed_3form_kernel decomposes, d of the identity batch,
    holds d_invariant of the j-th basis 3-form in column j, bit for bit."""
    for unimodular in (True, False):
        geom = random_geometry(np.random.default_rng(dim), dim, unimodular=unimodular)
        mat = _exterior_derivative(geom.c, 3, np.eye(math.comb(dim, 3))).T
        assert mat.shape == (math.comb(dim, 4), math.comb(dim, 3))
        for j, combo in enumerate(index_tuples(dim, 3)):
            assert np.array_equal(mat[:, j], d_invariant(basis_form(dim, combo), geom).coeffs)


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


@pytest.mark.parametrize("unimodular", [True, False], ids=["unimodular", "general"])
@pytest.mark.parametrize("dim", [2, 3, 4, 5, 6, 7, 8])
def test_lm_jacobian_matches_stacked_basis_oracle(dim, unimodular):
    """The projection's packed-row Jacobian is bit-identical to the
    derivative of the full Jacobi tensor along the stacked coordinate
    directions, restricted to the packed triples, and column-major like
    the dense path's transposed result (BLAS rounds the normal equations
    by layout, and the sample golden pins them)."""
    rng = np.random.default_rng(700 + dim)
    nvar = dim * math.comb(dim, 2)
    samples = [_vec_to_c(rng.standard_normal(nvar), dim) for _ in range(5)]
    if dim > (2 if unimodular else 1):  # smaller dims are refused as abelian
        samples.append(random_geometry(rng, dim, unimodular=unimodular).c)
    for c in samples:
        jac = _jacobian(c, unimodular)
        assert jac.shape == (dim * math.comb(dim, 3) + dim * unimodular, nvar)
        assert np.array_equal(jac, dense_oracle.lm_jacobian(c, unimodular))
        assert jac.flags.f_contiguous


@pytest.mark.parametrize("unimodular, shape", [(True, (1, 0)), (False, (0, 0))],
                         ids=["unimodular", "general"])
def test_lm_jacobian_without_triples_keeps_its_shape(unimodular, shape):
    """At dim 1 there are no triples and no variables: one trace row
    when unimodular, none otherwise."""
    assert _jacobian(np.zeros((1, 1, 1)), unimodular).shape == shape


@pytest.mark.parametrize("dim", range(1, 9))
def test_sampler_index_tables_are_read_only(dim):
    """Every caller shares the cached arrays, so none may write them."""
    for arr in _vec_index(dim) + _jacobian_table(dim):
        with pytest.raises(ValueError, match="read-only"):
            arr[...] = 0


@pytest.mark.parametrize("dim, unimodular", [(1, True), (2, True), (1, False)])
def test_sampler_refuses_dims_where_every_algebra_is_abelian(dim, unimodular):
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match="abelian"):
        random_geometry(rng, dim, unimodular=unimodular)
    assert rng.bit_generator.state == state


def test_sampler_serves_dim_2_general():
    """The non-unimodular r2 ([e1, e2] = e2) is the one non-abelian
    Lie algebra of dim 2."""
    for seed in range(3):
        geom = random_geometry(np.random.default_rng(seed), 2, unimodular=False)
        assert np.abs(geom.c).max() >= 0.05
        assert np.abs(np.einsum("aba->b", geom.c)).max() >= 0.05


@pytest.mark.parametrize("dim", [8, 16])
def test_frame_change_matches_unoptimized_einsum(dim):
    # c is antisymmetric in its lower pair only, not a Lie algebra
    rng = np.random.default_rng(800 + dim)
    c = rng.standard_normal((dim,) * 3)
    c = c - np.swapaxes(c, 1, 2)
    H = FrameTensor(dim, 3, antisymmetrize(rng.standard_normal((dim,) * 3)))
    O = random_orthogonal(rng, dim)
    for arr in (c, H.components):
        want = np.einsum("ma,pb,qc,mpq->abc", O, O, O, arr)
        assert np.abs(frame_change(arr, O) - want).max() <= 1e-13 * np.abs(want).max()


@pytest.mark.parametrize("rank", [1, 2, 3, 4])
def test_frame_change_matches_slotwise_rotation(rank):
    """frame_change against the independent slot-by-slot ``rotate``, on
    arbitrary (not antisymmetric) tensors and general matrices."""
    rng = np.random.default_rng(900 + rank)
    for dim in range(1, 9):
        T = rng.standard_normal((dim,) * rank)
        for O in (random_orthogonal(rng, dim), rng.standard_normal((dim, dim))):
            want = rotate(T, O)
            assert np.abs(frame_change(T, O) - want).max() <= TOL * max(1.0, np.abs(want).max())
