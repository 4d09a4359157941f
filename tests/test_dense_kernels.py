"""The verifier's matmul and packed kernels against their dense einsum
and wedge-loop formulas in ``dense_oracle``.

Every kernel is compared on random_geometry samples at dims 3-8 (open
and closed torsion), on every catalog geometry, and on each of those in
a random SO(n) frame from ``rotate``, within 1e-13 * max(1, scale) with
scale the sup of the oracle's result.  The codifferential is also
compared on non-unimodular samples.
"""

from functools import lru_cache

import numpy as np
import pytest

import dense_oracle
from torsiongeo.catalog import CATALOG, _flat, _su2
from torsiongeo.frame_algebra import FrameTensor, index_tuples
from torsiongeo.invariant_geometry import (
    _rough_laplacian,
    bianchi_report,
    bochner_term,
    codifferential,
    d_invariant,
    direct_sum,
    nabla_invariant,
    parallel_residual,
    rotate,
)
from torsiongeo.random_geometry import random_geometry, random_orthogonal
from torsiongeo.special_structures import (
    bryant_positivity,
    kt_report,
    nijenhuis,
    standard_quaternion_triple,
    type_3_0_projection,
)

TOL = 1e-13
SAMPLES = [f"random-{dim}-{kind}" for dim in range(3, 9) for kind in ("open", "closed")]
ENTRIES = [name for name, entry in CATALOG.items() if entry.kind != "fibration"]
CASES = [f"{base}{frame}" for base in SAMPLES + ENTRIES for frame in ("", "@SO(n)")]
GENERAL = [f"random-{dim}-general" for dim in range(3, 9)]


@lru_cache(maxsize=None)
def case(label):
    """(geometry, structures) of a sample or catalog entry, optionally
    moved to a seeded random SO(n) frame."""
    base, rotated = label.removesuffix("@SO(n)"), label.endswith("@SO(n)")
    if base in CATALOG:
        geom, structures = CATALOG[base].build()
    else:
        _, dim, kind = base.split("-")
        geom = random_geometry(np.random.default_rng(int(dim)), int(dim),
                               unimodular=kind != "general",
                               closed_torsion=kind == "closed")
        structures = {}
    if rotated:
        O = random_orthogonal(np.random.default_rng(len(label)), geom.dim)
        O[:, 0] *= np.sign(np.linalg.det(O))
        geom, structures = rotate(geom, structures, O)
    return geom, structures


def assert_close(value, oracle):
    scale = max(1.0, float(np.abs(oracle).max()) if np.size(oracle) else 0.0)
    assert np.abs(np.asarray(value) - oracle).max(initial=0.0) <= TOL * scale


def random_form(rng, dim, rank):
    return FrameTensor(dim, rank, coeffs=rng.standard_normal(len(index_tuples(dim, rank))))


@pytest.mark.parametrize("label", CASES)
def test_curvature_matches_einsum(label):
    geom, _ = case(label)
    for sign, gamma in geom.connections.items():
        assert_close(geom.curvatures[sign], dense_oracle.curvature(geom.c, gamma))


@pytest.mark.parametrize("label", CASES)
def test_weitzenboeck_terms_match_dense(label):
    """The rough term equals the trace of the (dim,)^5 Hessian, and the
    curvature term the einsum cyclic sum on its packed entries a < b < c
    (the only ones it evaluates)."""
    geom, _ = case(label)
    H = geom.H.components
    assert_close(_rough_laplacian(geom), dense_oracle.rough_laplacian(H, geom.connections[0]))
    a, b, c = index_tuples(geom.dim, 3).T
    assert_close(bochner_term(geom).coeffs,
                 dense_oracle.bochner_term(geom.curvatures[0], H)[a, b, c])


@pytest.mark.parametrize("label", CASES)
def test_parallel_residual_of_a_form_is_the_dense_sup(label):
    """On the packed coefficients of H, of the entry's phi or Phi and of
    random forms of degree 1..4, for all three connections: the packed
    nabla_invariant holds the dense array's packed entries, and the
    array path takes (dim, dim) arrays, antisymmetric or not."""
    geom, structures = case(label)
    n = geom.dim
    rng = np.random.default_rng(len(label))
    forms = [geom.H] + [structures[k] for k in ("phi", "Phi") if k in structures]
    forms += [random_form(rng, n, p) for p in range(1, min(n, 4) + 1)]
    for form in forms:
        packed_entries = (slice(None),) + tuple(index_tuples(n, form.rank).T)
        for sign, gamma in geom.connections.items():
            oracle = dense_oracle.nabla(form.components, gamma)
            dense = np.abs(oracle).max()
            assert_close(nabla_invariant(form, gamma), oracle[packed_entries].T)
            packed = parallel_residual(form, geom, sign)
            assert abs(packed - dense) <= TOL * max(1.0, dense)
            if form.rank == 2:
                assert abs(parallel_residual(form.components, geom, sign) - dense) \
                    <= TOL * max(1.0, dense)
    for M in rng.standard_normal((2, n, n)):
        for gamma in geom.connections.values():
            assert_close(nabla_invariant(M, gamma), dense_oracle.nabla(M, gamma))


def test_nabla_invariant_refuses_other_arrays():
    geom, _ = case("random-4-open")
    gamma = geom.connections[1]
    for shape in ((), (4,), (4, 5), (3, 3), (4, 4, 4), (4, 4, 4, 4)):
        with pytest.raises(ValueError, match="nabla_invariant"):
            nabla_invariant(np.zeros(shape), gamma)
    with pytest.raises(ValueError, match="dimension"):
        nabla_invariant(random_form(np.random.default_rng(0), 5, 2), gamma)


@pytest.mark.parametrize("label", CASES + GENERAL)
def test_codifferential_matches_star_d_star(label):
    """-sum_a iota_a nabla_a against +-*d* at every degree 1..dim, on a
    random form and (degree 3) on H."""
    geom, _ = case(label)
    n = geom.dim
    rng = np.random.default_rng(len(label))
    for p in range(1, n + 1):
        forms = [random_form(rng, n, p)] + ([geom.H] if p == 3 else [])
        for chi in forms:
            oracle = dense_oracle.codifferential(chi.components, geom.c)
            assert_close(codifferential(chi, geom).components, oracle)


@pytest.mark.parametrize("label", CASES + GENERAL)
def test_codifferential_squares_to_zero(label):
    """delta delta = 0 at every degree 2..dim, within TOL times the
    size n^2 sup|Gamma|^2 sup|chi| of the sums delta delta adds up."""
    geom, _ = case(label)
    n = geom.dim
    rng = np.random.default_rng(len(label))
    gamma = max(1.0, np.abs(geom.connections[0]).max())
    for p in range(2, n + 1):
        chi = random_form(rng, n, p)
        twice = codifferential(codifferential(chi, geom), geom)
        assert twice.sup_norm <= TOL * n * n * gamma ** 2 * max(1.0, chi.sup_norm)


def test_d_and_codifferential_on_su2_to_the_eighth():
    """On su(2)^8 (dim 24, beyond what a geometry file may declare): d of a
    2-form against the dense oracle, d d = 0 and delta delta = 0, and
    (d alpha, beta) = (alpha, delta beta), the algebra being unimodular."""
    geom = direct_sum(*[_su2()] * 8)
    n = geom.dim
    rng = np.random.default_rng(24)
    alpha, beta = random_form(rng, n, 2), random_form(rng, n, 3)
    d_alpha = d_invariant(alpha, geom)
    assert_close(d_alpha.components, dense_oracle.d_invariant(alpha.components, geom.c))
    gamma = max(1.0, np.abs(geom.connections[0]).max())
    assert d_invariant(d_alpha, geom).sup_norm <= TOL * n * n * alpha.sup_norm
    twice = codifferential(codifferential(beta, geom), geom)
    assert twice.sup_norm <= TOL * n * n * gamma ** 2 * beta.sup_norm
    lhs = float(d_alpha.coeffs @ beta.coeffs)
    rhs = float(alpha.coeffs @ codifferential(beta, geom).coeffs)
    assert abs(lhs - rhs) <= TOL * n * max(1.0, abs(lhs))


@pytest.mark.parametrize("label", CASES)
def test_bianchi_rows_match_dense(label):
    """first_bianchi, second_bianchi and nabla_hat_H are the sups of the
    dense residual arrays."""
    geom, _ = case(label)
    gamma = geom.connections[1]
    rhat = dense_oracle.curvature(geom.c, gamma)
    nhatH = dense_oracle.nabla(geom.H.components, gamma)
    dH = dense_oracle.d_invariant(geom.H.components, geom.c)
    first, second, _, lccc = bianchi_report(geom)
    rows = {"first_bianchi": (first, dense_oracle.first_bianchi(rhat, nhatH, dH)),
            "second_bianchi": (second, dense_oracle.second_bianchi(rhat, nhatH, dH)),
            "nabla_hat_H": (lccc, nhatH)}
    for name, (report, oracle) in rows.items():
        value = report.row(name).value
        assert abs(value - np.abs(oracle).max()) <= TOL * max(1.0, np.abs(rhat).max())


@pytest.mark.parametrize("label", CASES)
def test_nijenhuis_and_type_3_0_match_einsums(label):
    """On the entry's complex structures and on two random matrices (the
    formulas hold for any J)."""
    geom, structures = case(label)
    rng = np.random.default_rng(len(label))
    Js = list(structures.get("triple", ())) + list(rng.standard_normal((2, geom.dim, geom.dim)))
    for J in Js:
        assert_close(nijenhuis(J, geom), dense_oracle.nijenhuis(J, geom.c))
        assert_close(type_3_0_projection(geom.H, J).components,
                     dense_oracle.type_3_0_projection(geom.H.components, J))


@pytest.mark.parametrize("label", [label for label in CASES if label.split("@")[0] in (
    "random-7-open", "random-7-closed", "g2-standard", "g2-su2-product")])
def test_bryant_positivity_matches_wedge_loop(label):
    """On the entry's phi (if any) and two random 3-forms, both
    orientations."""
    geom, structures = case(label)
    rng = np.random.default_rng(len(label))
    phis = [structures["phi"]] if "phi" in structures else []
    phis += [random_form(rng, 7, 3) for _ in range(2)]
    for phi in phis:
        oracle = dense_oracle.bryant_positivity(phi.components)
        for sign in (1, -1):
            assert_close(bryant_positivity(phi, sign), sign * oracle)


def test_u2_with_the_other_torsion_sign_fails_nabla_hat_J():
    """u(2) = R + su(2) is HKT with H = -epsilon; with H = +epsilon each
    complex structure of the triple has sup |nabla^ J| = 1."""
    geom = direct_sum(_flat(1), _su2(1.0))
    for J in standard_quaternion_triple():
        report = kt_report(geom, J)
        row = report.row("nabla_hat_J")
        assert abs(row.value - 1.0) <= TOL and not row.passed and not report.passed
