"""The verifier's matmul and packed kernels against their dense einsum
and wedge-loop formulas in ``dense_oracle``.

Every kernel is compared on random_geometry samples at dims 3-8 (open
and closed torsion), on every catalog geometry, and on each of those in
a random SO(n) frame from ``rotate``, within 1e-13 * max(1, scale) with
scale the sup of the oracle's result.
"""

from functools import lru_cache

import numpy as np
import pytest

import dense_oracle
from torsiongeo.catalog import CATALOG, _flat, _su2
from torsiongeo.frame_algebra import FrameTensor, index_tuples
from torsiongeo.invariant_geometry import (
    _rough_laplacian,
    bochner_term,
    direct_sum,
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
    random forms of degree 1..4, for all three connections."""
    geom, structures = case(label)
    rng = np.random.default_rng(len(label))
    forms = [geom.H] + [structures[k] for k in ("phi", "Phi") if k in structures]
    forms += [random_form(rng, geom.dim, p) for p in range(1, min(geom.dim, 4) + 1)]
    for form in forms:
        for sign, gamma in geom.connections.items():
            dense = np.abs(dense_oracle.nabla(form.components, gamma)).max()
            packed = parallel_residual(form, geom, sign)
            assert abs(packed - dense) <= TOL * max(1.0, dense)
            assert abs(parallel_residual(form.components, geom, sign) - dense) \
                <= TOL * max(1.0, dense)


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
