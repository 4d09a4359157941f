import math

import numpy as np
import pytest

from dense_oracle import epsilon
from torsiongeo.frame_algebra import (
    FrameTensor,
    antisymmetrize,
    basis_form,
    basis_vector,
    form_inner,
    hodge_star,
    interior_product,
    top_coefficient,
    volume_form,
    wedge,
    wedge_top_coefficient,
    zero_form,
)

RNG = np.random.default_rng(20240511)


def rand_form(dim, rank, rng=RNG):
    if rank == 0:
        return FrameTensor(dim, 0, np.array(rng.standard_normal()))
    return FrameTensor(dim, rank, antisymmetrize(rng.standard_normal((dim,) * rank)))


def test_frametensor_rejects_non_antisymmetric():
    with pytest.raises(ValueError):
        FrameTensor(3, 2, np.ones((3, 3)))


def test_frametensor_rejects_non_finite():
    comp = np.zeros((3, 3))
    comp[0, 1], comp[1, 0] = np.inf, -np.inf
    with pytest.raises(ValueError):
        FrameTensor(3, 2, comp)


def test_wedge_basis_case():
    w = wedge(basis_form(4, [0]), basis_form(4, [1]))
    assert w.components[0, 1] == 1.0
    assert w.components[1, 0] == -1.0
    assert np.count_nonzero(w.components) == 2


def test_wedge_one_two_is_cyclic_sum():
    # (chi ^ psi)_{abc} = chi_a psi_bc + chi_b psi_ca + chi_c psi_ab
    chi = rand_form(5, 1)
    psi = rand_form(5, 2)
    w = wedge(chi, psi)
    a, b, c = 0, 2, 4
    expected = (chi.components[a] * psi.components[b, c]
                + chi.components[b] * psi.components[c, a]
                + chi.components[c] * psi.components[a, b])
    assert w.components[a, b, c] == pytest.approx(expected, abs=1e-13)


def test_wedge_odd_self_product_vanishes():
    chi = rand_form(6, 1)
    assert wedge(chi, chi).sup_norm < 1e-13


def test_wedge_degree_overflow_is_zero_form():
    """Over the top the product is the zero form of rank p + q, with no
    coefficients, as d of a top form is."""
    a = rand_form(4, 2)
    b = rand_form(4, 3)
    out = wedge(a, b)
    assert out.rank == 5 and out.coeffs.shape == (0,) and out.sup_norm == 0.0


def test_wedge_against_full_antisymmetrization_oracle():
    for p, q in ((1, 2), (2, 2), (1, 3), (2, 3)):
        a, b = rand_form(5, p), rand_form(5, q)
        outer = np.multiply.outer(a.components, b.components)
        oracle = antisymmetrize(outer) * math.factorial(p + q) / (
            math.factorial(p) * math.factorial(q))
        assert np.abs(wedge(a, b).components - oracle).max() < 1e-12


def test_wedge_graded_commutative_and_bilinear():
    for dim in (4, 6, 8):
        for p in range(0, 4):
            for q in range(0, 4):
                if p + q > dim:
                    continue
                a, b = rand_form(dim, p), rand_form(dim, q)
                ab = wedge(a, b).components
                ba = wedge(b, a).components
                assert np.abs(ab - (-1.0) ** (p * q) * ba).max() < 1e-12
        a, b = rand_form(dim, 1), rand_form(dim, 1)
        c = rand_form(dim, 2)
        lin = wedge(a + b, c).components - wedge(a, c).components \
            - wedge(b, c).components
        assert np.abs(lin).max() < 1e-12


def test_interior_product_basis_case():
    out = interior_product(basis_vector(4, 0),
                           wedge(basis_form(4, [0]), basis_form(4, [1])))
    assert np.abs(out.components - basis_form(4, [1]).components).max() == 0.0


def test_interior_product_squares_to_zero():
    for _ in range(5):
        v = FrameTensor(6, 1, RNG.standard_normal(6))
        chi = rand_form(6, 3)
        assert interior_product(v, interior_product(v, chi)).sup_norm < 1e-13


def test_interior_product_rejects_scalars():
    with pytest.raises(ValueError):
        interior_product(basis_vector(3, 0), rand_form(3, 0))


def test_interior_product_antiderivation():
    v = FrameTensor(6, 1, RNG.standard_normal(6))
    for p in (1, 2):
        for q in (1, 2):
            a, b = rand_form(6, p), rand_form(6, q)
            lhs = interior_product(v, wedge(a, b))
            rhs = wedge(interior_product(v, a), b) \
                + (-1.0) ** p * wedge(a, interior_product(v, b))
            assert np.abs(lhs.components - rhs.components).max() < 1e-11


def test_form_inner_normalization():
    e12 = wedge(basis_form(4, [0]), basis_form(4, [1]))
    assert form_inner(e12, e12) == pytest.approx(1.0)


def test_form_inner_epsilon_dim3():
    H = volume_form(3)
    assert form_inner(H, H) == pytest.approx(1.0)


def test_form_inner_zero():
    chi = rand_form(5, 2)
    assert form_inner(chi, zero_form(5, 2)) == 0.0


def test_form_inner_rank_mismatch():
    with pytest.raises(ValueError):
        form_inner(rand_form(4, 2), rand_form(4, 3))


def test_hodge_star_dim4_basis():
    out = hodge_star(wedge(basis_form(4, [0]), basis_form(4, [1])))
    assert np.abs(out.components - basis_form(4, [2, 3]).components).max() == 0.0


@pytest.mark.parametrize("dim", [3, 4, 5, 6])
def test_hodge_star_involution_sign(dim):
    for p in range(0, dim + 1):
        chi = rand_form(dim, p)
        ss = hodge_star(hodge_star(chi))
        sign = (-1.0) ** (p * (dim - p))
        assert np.abs(ss.components - sign * chi.components).max() < 1e-12


@pytest.mark.parametrize("dim", [4, 5])
def test_hodge_star_matches_dense_epsilon_oracle(dim):
    eps = epsilon(dim)
    for p in (1, 2, 3):
        chi = rand_form(dim, p)
        axes = list(range(p))
        oracle = np.tensordot(chi.components, eps, axes=(axes, axes)) \
            / math.factorial(p)
        assert np.abs(hodge_star(chi).components - oracle).max() < 1e-12


def test_hodge_star_isometry():
    for dim in (4, 5, 6):
        for p in range(0, dim + 1):
            a, b = rand_form(dim, p), rand_form(dim, p)
            assert form_inner(hodge_star(a), hodge_star(b)) \
                == pytest.approx(form_inner(a, b), abs=1e-11)


def test_orientation_sign_flips_star():
    chi = rand_form(5, 2)
    plus = hodge_star(chi, 1)
    minus = hodge_star(chi, -1)
    assert np.abs(plus.components + minus.components).max() == 0.0


def test_epsilon_leading_entry_is_sign():
    for sign in (1, -1):
        assert volume_form(4, sign).components[0, 1, 2, 3] == sign
        assert top_coefficient(volume_form(4, sign), sign) == 1.0


@pytest.mark.parametrize("sign", [0, 2, -2, 0.5])
def test_orientation_sign_must_be_unit(sign):
    chi = rand_form(4, 2)
    for call in (lambda: hodge_star(chi, sign), lambda: volume_form(4, sign),
                 lambda: wedge_top_coefficient(chi, chi, sign),
                 lambda: top_coefficient(volume_form(4), sign)):
        with pytest.raises(ValueError, match="orientation sign"):
            call()


def test_wedge_top_coefficient_matches_dense_path():
    a, b = rand_form(6, 2), rand_form(6, 4)
    c1 = wedge_top_coefficient(a, b)
    c2 = top_coefficient(wedge(a, b))
    assert c1 == pytest.approx(c2, abs=1e-12)


def test_operations_round_to_unit_scale():
    # on unit-scale inputs chained operations stay exact below 1e-12
    a, b = rand_form(6, 2), rand_form(6, 2)
    assert np.abs(wedge(a, b).components - wedge(b, a).components).max() < 1e-12
    assert abs(form_inner(hodge_star(a), hodge_star(b)) - form_inner(a, b)) < 1e-12
    back = hodge_star(hodge_star(wedge(a, b)))
    assert np.abs(back.components - wedge(a, b).components).max() < 1e-12
