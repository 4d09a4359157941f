from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from torsiongeo.catalog import _flat, _su2
from torsiongeo.decomposition import (
    decompose,
    eigen_split,
    torsion_gram,
)
from torsiongeo.frame_algebra import (
    FrameTensor,
    antisymmetrize,
    basis_form,
    epsilon3,
    frame_change,
    zero_form,
)
from torsiongeo.invariant_geometry import (
    HypothesesNotMet,
    LieFrameGeometry,
    direct_sum,
    lie_jacobi_residual,
    rotate,
)
from torsiongeo.random_geometry import _block_library, random_orthogonal
from torsiongeo.special_structures import build_su3

RNG = np.random.default_rng(99)


def block_geometry(dim, scales=(1.0,)):
    """su(2) blocks with H equal to the scaled blocks, then flat up to dim."""
    factors = [_su2(s) for s in scales]
    if dim > 3 * len(scales):
        factors.append(_flat(dim - 3 * len(scales)))
    return direct_sum(*factors)


# ---------------------------------------------------------------- jacobi

def test_jacobi_epsilon_zero():
    assert lie_jacobi_residual(epsilon3()) == 0.0


def test_jacobi_block_sum_zero():
    assert lie_jacobi_residual(direct_sum(_su2(), _su2()).c) == 0.0


def test_jacobi_generic_three_form_positive():
    H = antisymmetrize(RNG.standard_normal((6, 6, 6)))
    assert lie_jacobi_residual(H) > 0.05


# ------------------------------------------------------------------- gram

def test_gram_epsilon_is_identity():
    gram = torsion_gram(FrameTensor(3, 3, epsilon3()))
    assert np.abs(gram - np.eye(3)).max() == 0.0
    with pytest.raises(ValueError, match="read-only"):
        gram[0, 0] = 2.0


def test_gram_brute_force_oracle():
    E = epsilon3()
    oracle = np.zeros((3, 3))
    for i in range(3):
        for j in range(3):
            oracle[i, j] = 0.5 * sum(E[i, p, q] * E[j, p, q]
                                     for p in range(3) for q in range(3))
    assert np.abs(torsion_gram(FrameTensor(3, 3, E)) - oracle).max() == 0.0


def test_gram_zero_torsion():
    assert np.abs(torsion_gram(zero_form(5, 3))).max() == 0.0


def test_gram_block_in_dim7():
    gram = torsion_gram(direct_sum(_su2(), _flat(4)).H)
    assert np.abs(gram - np.diag([1, 1, 1, 0, 0, 0, 0.0])).max() == 0.0


def test_gram_equals_interior_product_pairing():
    """h is the Gram matrix of the i_{e_i} H, hence symmetric positive
    semidefinite up to rounding, on random 3-forms at dims 3-8."""
    from torsiongeo.frame_algebra import basis_vector, form_inner, interior_product
    for n in range(3, 9):
        H = FrameTensor(n, 3, antisymmetrize(RNG.standard_normal((n, n, n))))
        gram = torsion_gram(H)
        scale = max(1.0, np.abs(gram).max())
        assert np.abs(gram - gram.T).max() <= 1e-12 * scale
        assert np.linalg.eigvalsh(gram).min() >= -1e-12 * scale
        for i in range(n):
            for j in range(n):
                pairing = form_inner(interior_product(basis_vector(n, i), H),
                                     interior_product(basis_vector(n, j), H))
                assert gram[i, j] == pytest.approx(pairing, abs=1e-12)


# ------------------------------------------------------------------ eigen

def test_eigen_split_block_diag():
    clusters = eigen_split(np.diag([1, 1, 1, 0, 0, 0, 0.0]))
    assert [(c.eigenvalue, c.multiplicity) for c in clusters] == [(0.0, 4), (1.0, 3)]


def test_eigen_split_identity_single_cluster():
    clusters = eigen_split(np.eye(5))
    assert len(clusters) == 1 and clusters[0].multiplicity == 5


def test_eigen_split_clustering_contract():
    clusters = eigen_split(np.diag([1.0, 1.0 + 1e-14]))
    assert len(clusters) == 1 and clusters[0].multiplicity == 2


def test_eigen_split_bases_orthonormal():
    clusters = eigen_split(np.diag([0.0, 0.0, 2.0, 2.0, 5.0]))
    full = np.concatenate([c.basis for c in clusters], axis=1)
    assert np.abs(full.T @ full - np.eye(5)).max() < 1e-12


# --------------------------------------------------------------- decompose

def test_decompose_su2_plus_abelian3():
    geom = block_geometry(6)
    res = decompose(geom)
    assert res.kernel_dim == 3
    assert res.block_names == ["su(2)"]
    assert res.diagnostics["kernel_transversality"] < 1e-12


def test_decompose_su3(su3_built):
    geom, _ = su3_built
    res = decompose(geom)
    assert res.kernel_dim == 0
    assert res.block_names == ["su(3)"]
    assert [(round(c.eigenvalue, 10), c.multiplicity) for c in res.clusters] \
        == [(3.0, 8)]
    assert max(res.diagnostics["block_jacobi"]) < 1e-12
    assert max(res.diagnostics["block_killing_vs_h"]) < 1e-12


def test_decompose_su2su2_plus_abelian2():
    geom = block_geometry(8, [1.0, 1.0])
    res = decompose(geom)
    assert res.kernel_dim == 2
    assert res.block_names == ["su(2)+su(2)"]
    assert res.flat_block_factors == ["su(2)", "su(2)"]
    assert "su(2)" in res.verdict()


def test_decompose_zero_torsion_all_kernel():
    geom = LieFrameGeometry(5, np.zeros((5, 5, 5)), zero_form(5, 3))
    res = decompose(geom)
    assert res.kernel_dim == 5 and res.block_names == []


def test_decompose_refuses_open_torsion():
    geom = LieFrameGeometry(6, direct_sum(_su2(), _su2()).c, basis_form(6, [0, 3, 4]))
    with pytest.raises(HypothesesNotMet):
        decompose(geom)


def test_decompose_unidentified_block_dimension():
    # scale the two blocks apart: two separate dim-3 clusters, both su(2)
    geom = block_geometry(8, [1.0, 2.0])
    res = decompose(geom)
    assert res.kernel_dim == 2
    assert res.block_names == ["su(2)", "su(2)"]
    eigs = sorted(round(c.eigenvalue, 9) for c in res.clusters)
    assert eigs == [0.0, 1.0, 4.0]


def test_decompose_dimension_outside_catalog():
    # three equal-scale blocks form one dim-9 cluster, outside the catalog
    geom = block_geometry(9, [1.0] * 3)
    res = decompose(geom)
    assert res.kernel_dim == 0
    assert res.block_names == ["semisimple (dim 9, unidentified)"]
    assert max(res.diagnostics["block_jacobi"]) < 1e-12


def test_decompose_orthogonal_invariance():
    geom = block_geometry(8, [1.0, 1.0])
    base = decompose(geom)
    for seed in range(3):
        O = random_orthogonal(np.random.default_rng(seed), 8)
        res = decompose(rotate(geom, {}, O)[0])
        assert res.kernel_dim == base.kernel_dim
        assert res.block_names == base.block_names
        assert np.allclose(
            sorted(c.eigenvalue for c in res.clusters),
            sorted(c.eigenvalue for c in base.clusters), atol=1e-10)


def test_decompose_scaling_scales_eigenvalues():
    geom = block_geometry(6)
    scaled = LieFrameGeometry(6, geom.c, 2.0 * geom.H)
    res1, res2 = decompose(geom), decompose(scaled)
    assert res2.kernel_dim == res1.kernel_dim
    assert res2.block_names == res1.block_names
    nz1 = [c.eigenvalue for c in res1.clusters if abs(c.eigenvalue) > 1e-9]
    nz2 = [c.eigenvalue for c in res2.clusters if abs(c.eigenvalue) > 1e-9]
    assert np.allclose(np.array(nz2), 4.0 * np.array(nz1), atol=1e-10)


def test_decompose_block_diagonality_of_torsion(parallel_torsion_suite):
    for geom in parallel_torsion_suite:
        res = decompose(geom)
        assert res.diagnostics["cross_block_mixing"] < 1e-10
        assert res.diagnostics["kernel_transversality"] < 1e-10


def test_result_roundtrips_to_dict():
    res = decompose(block_geometry(6))
    d = res.to_dict()
    assert d["kernel_dim"] == 3
    assert d["block_names"] == ["su(2)"]
    assert "verdict" in d


# ------------------------------------------------- splitting theorem on N + G

# non-abelian factors of N (H = 0 on them): heis, e(1,1), n4
_, _HEIS, _, _E11, _N4 = _block_library(True)
N_BLOCKS = {"heis": _HEIS, "e11": _E11, "n4": _N4}


@lru_cache(maxsize=None)
def su3_factor(sign):
    """su(3) at scale 1 with torsion sign * sigma, sigma(X,Y,Z) = g([X,Y],Z)
    (build_su3's torsion is -sigma).  Its Gram eigenvalue 3 * 1**2 lies
    apart from every su(2) eigenvalue s**2, s in {1, 1.7, 2.5}."""
    geom = build_su3()[0]
    return LieFrameGeometry(8, geom.c, FrameTensor(8, 3, coeffs=-sign * geom.H.coeffs))


def split_product(n_names, su2_scales, su3_signs, order, seed, perturb=0.0):
    """N (the named blocks, H = 0) plus su(2) factors at the given scales
    (torsion +-s epsilon) and su(3) factors with the given torsion signs,
    in the given order, conjugated by a random O(n) frame.  ``perturb``
    adds perturb * e^{ijk} with i in N and j, k in the first su(2)
    factor, before the frame change."""
    factors = [LieFrameGeometry(N_BLOCKS[n].shape[0], N_BLOCKS[n],
                                zero_form(N_BLOCKS[n].shape[0], 3)) for n in n_names]
    factors += [LieFrameGeometry(3, abs(s) * epsilon3(), FrameTensor(3, 3, s * epsilon3()))
                for s in su2_scales]
    factors += [su3_factor(sign) for sign in su3_signs]
    factors = [factors[k] for k in order]
    geom = direct_sum(*factors)
    starts = np.cumsum([0] + [f.dim for f in factors])
    i = starts[order.index(0)]
    j = starts[order.index(len(n_names))]
    H = geom.H + perturb * basis_form(geom.dim, (i, j, j + 1))
    O = random_orthogonal(np.random.default_rng(seed), geom.dim)
    return rotate(LieFrameGeometry(geom.dim, geom.c, H), {}, O)[0]


@st.composite
def split_cases(draw):
    n_names = draw(st.lists(st.sampled_from(sorted(N_BLOCKS)), min_size=1, max_size=3,
                            unique=True))
    scales = draw(st.lists(st.sampled_from([1.0, 1.7, 2.5]), min_size=1, max_size=2,
                           unique=True))
    scales = [s * draw(st.sampled_from([1.0, -1.0])) for s in scales]
    su3_signs = draw(st.lists(st.sampled_from([1.0, -1.0]), max_size=1))
    order = draw(st.permutations(range(len(n_names) + len(scales) + len(su3_signs))))
    return n_names, scales, su3_signs, list(order), draw(st.integers(0, 2**32 - 1))


@settings(max_examples=15, deadline=None, derandomize=True)
@given(split_cases())
def test_decompose_recovers_product_split(case):
    n_names, scales, su3_signs, order, seed = case
    res = decompose(split_product(n_names, scales, su3_signs, order, seed))
    assert res.kernel_dim == sum(N_BLOCKS[n].shape[0] for n in n_names)
    # blocks come in ascending Gram eigenvalue: s**2 for su(2), 3 for su(3)
    blocks = sorted([(s * s, "su(2)") for s in scales] + [(3.0, "su(3)")] * len(su3_signs))
    assert res.block_names == [name for _, name in blocks]


@settings(max_examples=10, deadline=None, derandomize=True)
@given(split_cases())
def test_decompose_refuses_torsion_across_n_and_g(case):
    # 1e-6 e^{ijk} with i in N and j, k in G breaks dH = 0 or nabla^ H = 0
    with pytest.raises(HypothesesNotMet):
        decompose(split_product(*case, perturb=1e-6))


def test_frame_change_gives_the_bytes_of_optimized_einsum():
    # decompose moves H into its eigenbasis by frame_change, whose cached
    # contraction order is the one einsum(optimize=True) picks
    rng = np.random.default_rng(5)
    for dim in range(1, 10):
        B = rng.standard_normal((dim, dim))
        H = rng.standard_normal((dim,) * 3)
        ref = np.einsum("pa,qb,rc,pqr->abc", B, B, B, H, optimize=True)
        assert frame_change(H, B).tobytes() == ref.tobytes(), dim
