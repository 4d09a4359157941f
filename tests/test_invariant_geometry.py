import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import dense_oracle
import torsiongeo.invariant_geometry as invariant_geometry
from torsiongeo.catalog import CATALOG, _flat, _su2 as su2, catalog_entry
from torsiongeo.cli import _geometry_reports, main
from torsiongeo.decomposition import decompose
from torsiongeo.frame_algebra import (
    FrameTensor,
    antisymmetrize,
    basis_form,
    epsilon3,
    form_inner,
    wedge,
    zero_form,
)
from torsiongeo.invariant_geometry import (
    HypothesesNotMet,
    LieFrameGeometry,
    bianchi_report,
    bochner_report,
    bochner_term,
    codifferential,
    curvature,
    d_invariant,
    direct_sum,
    lee_form,
    levi_civita,
    lie_jacobi_residual,
    nabla_invariant,
    ricci,
    rotate,
    soliton_report,
    torsion_hypotheses,
    with_torsion,
)
from torsiongeo.random_geometry import random_orthogonal
from torsiongeo.special_structures import (
    build_g2,
    build_spin7,
    hkt_report,
    standard_quaternion_triple,
    structure_reports,
)

RNG = np.random.default_rng(618)


def su2_plus_abelian():
    return direct_sum(su2(0.0), _flat(3))


# ---------------------------------------------------------------- connections

def test_levi_civita_abelian_is_zero():
    geom = LieFrameGeometry(4, np.zeros((4, 4, 4)), zero_form(4, 3))
    assert np.abs(levi_civita(geom)).max() == 0.0


def test_levi_civita_su2_is_half_epsilon():
    # Koszul by hand over all 27 entries: bi-invariant metric halves the bracket
    geom = su2()
    assert np.abs(levi_civita(geom) - 0.5 * epsilon3()).max() == 0.0


def test_levi_civita_blockwise():
    geom = su2_plus_abelian()
    gamma = levi_civita(geom)
    assert np.abs(gamma - 0.5 * geom.c).max() == 0.0


def test_levi_civita_torsion_free_on_random_samples(open_torsion_suite):
    for geom in open_torsion_suite[:10]:
        gamma = levi_civita(geom)
        tf = gamma - np.swapaxes(gamma, 1, 2) - geom.c
        assert np.abs(tf).max() < 1e-12
        for sign in (0, 1, -1):
            # every cached connection is metric: the lowered coefficients
            # are antisymmetric in the outer pair (i, k)
            g = geom.connections[sign]
            outer = np.abs(g + np.transpose(g, (2, 1, 0))).max()
            assert outer <= 1e-12 * max(1.0, np.abs(g).max())
            assert np.array_equal(geom.curvatures[sign], curvature(geom, g))


def test_with_torsion_zero_H_is_levi_civita():
    geom = su2_plus_abelian()
    assert np.abs(with_torsion(geom, 1) - levi_civita(geom)).max() == 0.0


def test_with_torsion_flat_sign_su2():
    # under these conventions the minus sign parallelizes: gamma^ == 0
    geom = su2()
    assert np.abs(with_torsion(geom, -1)).max() == 0.0
    assert np.abs(with_torsion(geom, +1) - epsilon3()).max() == 0.0


def test_with_torsion_blockwise_su2su2():
    geom = direct_sum(su2(), su2())
    assert np.abs(with_torsion(geom, -1)).max() == 0.0


# ----------------------------------------------------------------- curvature

def test_curvature_abelian_zero():
    geom = LieFrameGeometry(5, np.zeros((5, 5, 5)), zero_form(5, 3))
    assert np.abs(curvature(geom, levi_civita(geom))).max() == 0.0


def test_curvature_su2_flat_at_parallelizing_sign():
    geom = su2()
    for sign in (1, -1):
        assert np.abs(curvature(geom, with_torsion(geom, sign))).max() < 1e-12


def test_curvature_round_sphere_scalar():
    """Independent loop-based oracle for the bi-invariant round metric."""
    geom = su2(H_scale=0.0)
    geom = LieFrameGeometry(3, epsilon3(), zero_form(3, 3))
    gamma = levi_civita(geom)
    c = geom.c
    oracle = np.zeros((3, 3, 3, 3))
    for a in range(3):
        for b in range(3):
            for k in range(3):
                for d in range(3):
                    acc = 0.0
                    for e in range(3):
                        acc += gamma[k, a, e] * gamma[e, b, d]
                        acc -= gamma[k, b, e] * gamma[e, a, d]
                        acc -= c[e, a, b] * gamma[k, e, d]
                    oracle[a, b, k, d] = acc
    R = curvature(geom, levi_civita(geom))
    assert np.abs(R - oracle).max() == 0.0
    assert np.trace(ricci(R)) == pytest.approx(1.5)
    assert np.abs(ricci(R) - 0.5 * np.eye(3)).max() < 1e-13


def test_levi_civita_curvature_symmetries(open_torsion_suite):
    from torsiongeo.frame_algebra import _antisym_over
    for geom in open_torsion_suite[:15]:
        R = curvature(geom, levi_civita(geom))
        assert np.abs(R - np.transpose(R, (2, 3, 0, 1))).max() < 1e-10
        assert np.abs(_antisym_over(R, [0, 1, 2])).max() < 1e-10


def test_torsion_ricci_scaling_witness():
    # frozen from the closed form Ric^ = -2 g (g - 1) delta, g = (1+s)/2
    geom = su2(H_scale=2.0)
    ric = ricci(curvature(geom, with_torsion(geom, +1)))
    assert np.abs(ric + 1.5 * np.eye(3)).max() < 1e-13


# ---------------------------------------------------------- exterior calculus

def test_maurer_cartan_su2():
    geom = su2()
    d0 = d_invariant(basis_form(3, [0]), geom)
    assert np.abs(d0.components + basis_form(3, [1, 2]).components).max() == 0.0


def test_cartan_three_form_closed():
    geom = su2()
    assert d_invariant(geom.H, geom).sup_norm == 0.0


def test_d_abelian_zero():
    geom = LieFrameGeometry(5, np.zeros((5, 5, 5)), zero_form(5, 3))
    chi = FrameTensor(5, 2, antisymmetrize(RNG.standard_normal((5, 5))))
    assert d_invariant(chi, geom).sup_norm == 0.0


def test_d_squared_zero(open_torsion_suite):
    for geom in open_torsion_suite[:10]:
        for rank in (1, 2):
            chi = FrameTensor(geom.dim, rank,
                              antisymmetrize(RNG.standard_normal((geom.dim,) * rank)))
            assert d_invariant(d_invariant(chi, geom), geom).sup_norm < 1e-11


def test_d_leibniz(open_torsion_suite):
    geom = open_torsion_suite[0]
    n = geom.dim
    a = FrameTensor(n, 1, RNG.standard_normal(n))
    b = FrameTensor(n, 2, antisymmetrize(RNG.standard_normal((n, n))))
    lhs = d_invariant(wedge(a, b), geom)
    rhs = wedge(d_invariant(a, geom), b) + (-1.0) * wedge(a, d_invariant(b, geom))
    assert np.abs(lhs.components - rhs.components).max() < 1e-11


@pytest.mark.parametrize("left, right", [((0, 1, 2), (3, 4, 5)), ((0, 3), (1, 2, 4, 5))])
def test_d_leibniz_at_top_degree(left, right):
    """d(a ^ b) = da ^ b + (-1)^p a ^ db where a ^ b is a top form and
    da ^ b lies over the top: every term is a form of rank p + q + 1."""
    geom = catalog_entry("su2-plus-abelian3").build()[0]
    a, b = basis_form(6, left), basis_form(6, right)
    sign = (-1.0) ** len(left)
    diff = (d_invariant(wedge(a, b), geom)
            - (wedge(d_invariant(a, geom), b) + sign * wedge(a, d_invariant(b, geom))))
    assert diff.rank == len(left) + len(right) + 1
    assert diff.sup_norm < 1e-13


def test_codifferential_su2_examples():
    geom = su2()
    v = FrameTensor(3, 1, RNG.standard_normal(3))
    assert codifferential(v, geom).sup_norm < 1e-13
    assert codifferential(geom.H, geom).sup_norm < 1e-13


def test_codifferential_is_orientation_free(open_torsion_suite):
    # +-*d* applies * twice, so both orientations give the one delta
    for geom in open_torsion_suite[:4]:
        n = geom.dim
        for p in range(1, n + 1):
            beta = FrameTensor(n, p, antisymmetrize(RNG.standard_normal((n,) * p)))
            delta = codifferential(beta, geom).components
            for sign in (1, -1):
                oracle = dense_oracle.codifferential(beta.components, geom.c, sign)
                assert np.abs(delta - oracle).max() <= 1e-13 * max(1.0, np.abs(oracle).max())


def test_codifferential_abelian_zero():
    geom = LieFrameGeometry(4, np.zeros((4, 4, 4)), zero_form(4, 3))
    chi = FrameTensor(4, 2, antisymmetrize(RNG.standard_normal((4, 4))))
    assert codifferential(chi, geom).sup_norm == 0.0


def test_codifferential_adjoint_on_unimodular(open_torsion_suite):
    for geom in open_torsion_suite[:8]:
        n = geom.dim
        for p in range(1, min(n, 4) + 1):
            alpha = (FrameTensor(n, 0, np.array(RNG.standard_normal()))
                     if p == 1 else
                     FrameTensor(n, p - 1,
                                 antisymmetrize(RNG.standard_normal((n,) * (p - 1)))))
            beta = FrameTensor(n, p,
                               antisymmetrize(RNG.standard_normal((n,) * p)))
            lhs = form_inner(d_invariant(alpha, geom), beta)
            rhs = form_inner(alpha, codifferential(beta, geom))
            assert abs(lhs - rhs) < 1e-10


def test_codifferential_flags_non_unimodular():
    # [e1, e3] = e1, [e2, e3] = -e2 is unimodular; tilt it to break the trace
    c = np.zeros((3, 3, 3))
    c[0, 2, 0], c[0, 0, 2] = 1.0, -1.0
    c[1, 2, 1], c[1, 1, 2] = -0.5, 0.5
    geom = LieFrameGeometry(3, c, zero_form(3, 3))
    assert not geom.unimodular
    notes = bochner_report(geom).notes
    assert len(notes) == 1 and "unimodular" in notes[0]
    # below dim 3, H is over-top and there is nothing to flag
    c2 = np.zeros((2, 2, 2))
    c2[0, 0, 1], c2[0, 1, 0] = 1.0, -1.0
    geom2 = LieFrameGeometry(2, c2, zero_form(2, 3))
    assert not geom2.unimodular
    assert bochner_report(geom2).notes == []


# ------------------------------------------------------- covariant derivative

def test_nabla_metric_is_parallel(open_torsion_suite):
    for geom in open_torsion_suite[:5]:
        delta = np.eye(geom.dim)
        for sign in (0, 1, -1):
            conn = levi_civita(geom) if sign == 0 else with_torsion(geom, sign)
            assert np.abs(nabla_invariant(delta, conn)).max() < 1e-12


def test_nabla_biinvariant_torsion_parallel():
    geom = su2()
    H = geom.H
    assert np.abs(nabla_invariant(H, with_torsion(geom, 1))).max() < 1e-13
    assert np.abs(nabla_invariant(H, with_torsion(geom, -1))).max() < 1e-13
    assert np.abs(nabla_invariant(H, levi_civita(geom))).max() < 1e-13


def test_nabla_su3_complex_structure(su3_built):
    geom, triple = su3_built
    I = triple[0]
    assert np.abs(nabla_invariant(I, with_torsion(geom, 1))).max() < 1e-13
    # under the Levi-Civita connection the structure is not parallel
    assert np.abs(nabla_invariant(I, levi_civita(geom))).max() > 0.1


# ------------------------------------------------------------------- bianchi

def test_bianchi_identities_su2():
    geom = su2()
    for rep in bianchi_report(geom):
        assert rep.passed


def test_bianchi_identities_generic_torsion(open_torsion_suite):
    for geom in open_torsion_suite:
        first, second, _, _ = bianchi_report(geom)
        assert first.row("first_bianchi").value < 1e-10
        assert second.row("second_bianchi").value < 1e-10


def test_pair_symmetry_requires_closed_torsion():
    # witness: two group blocks with H = e^{145} has dH != 0 and the
    # exchange symmetry visibly fails
    geom = LieFrameGeometry(6, direct_sum(su2(), su2()).c, basis_form(6, [0, 3, 4]))
    rep = bianchi_report(geom)[2]
    assert rep.row("dH").value > 0.5
    assert rep.row("pair_symmetry").value > 0.1
    assert not rep.row("pair_symmetry").asserted


def test_lccc_hypotheses_not_met_path():
    geom = LieFrameGeometry(6, direct_sum(su2(), su2()).c, basis_form(6, [0, 3, 4]))
    rep = bianchi_report(geom)[3]
    assert not rep.hypotheses_met
    assert all(not row.asserted for row in rep.rows)


def test_lccc_scaled_torsion():
    # doubling the bi-invariant torsion keeps closure/parallelism and the
    # Jacobi identity (bilinearity)
    geom = su2(H_scale=2.0)
    rep = bianchi_report(geom)[3]
    assert rep.hypotheses_met and rep.passed


def test_lccc_chain_on_parallel_suite(parallel_torsion_suite):
    for geom in parallel_torsion_suite:
        rep = bianchi_report(geom)[3]
        assert rep.hypotheses_met
        assert rep.row("nabla_H").value < 1e-10
        assert rep.row("jacobi_H").value < 1e-10


def test_bianchi_term_by_term_oracle():
    """Loop-based reassembly of the first identity, independent of the
    einsum path, on one randomized sample."""
    from torsiongeo.random_geometry import random_geometry
    geom = random_geometry(np.random.default_rng(5), 4)
    n = geom.dim
    hat = with_torsion(geom, +1)
    R = curvature(geom, hat)
    dH = d_invariant(geom.H, geom).components
    nH = dense_oracle.nabla(geom.H.components, hat)
    worst = 0.0
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for m in range(n):
                    anti = (R[i, j, k, m] - R[i, j, m, k] + R[i, k, m, j]
                            - R[i, k, j, m] + R[i, m, j, k] - R[i, m, k, j]) / 6.0
                    worst = max(worst, abs(3.0 * anti + nH[i, j, k, m]
                                           + 0.5 * dH[i, j, k, m]))
    assert worst < 1e-10


# ------------------------------------------------------------------ lee form

def test_lee_form_flat_case_zero():
    geom = LieFrameGeometry(4, np.zeros((4, 4, 4)), zero_form(4, 3))
    J = np.array([[0., 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]])
    theta = lee_form(geom, J)
    assert theta.rank == 1 and theta.sup_norm == 0.0


def test_lee_form_parallel_su3(su3_built):
    geom, triple = su3_built
    theta = lee_form(geom, triple[0])
    assert np.abs(nabla_invariant(theta, with_torsion(geom, 1))).max() < 1e-13


def test_lee_form_su3_is_2_sqrt2_e1(su3_built):
    geom, triple = su3_built
    for J in triple:
        theta = lee_form(geom, J)
        assert np.abs(theta.coeffs - 2 * np.sqrt(2) * np.eye(8)[1]).max() < 1e-14


def test_lee_form_u2_is_e0():
    # u(2) = R + su(2) with H = -epsilon: the Hopf surface, theta = e^0
    geom = direct_sum(_flat(1), su2(-1.0))
    for J in standard_quaternion_triple():
        theta = lee_form(geom, J)
        assert np.array_equal(theta.coeffs, [1.0, 0.0, 0.0, 0.0])


@pytest.mark.parametrize("case", ["su3-hkt", "hopf-u2"])
@settings(max_examples=10, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1))
def test_lee_form_frame_covariant(su3_built, case, seed):
    """Under a frame change e'_a = e_b O_ba of (c, H) and the triple,
    each Lee form turns into O^T theta, and every HKT row that passed
    still passes."""
    if case == "su3-hkt":
        geom, triple = su3_built
    else:
        geom, triple = direct_sum(_flat(1), su2(-1.0)), standard_quaternion_triple()
    O = random_orthogonal(np.random.default_rng(seed), geom.dim)
    rotated, structures = rotate(geom, {"triple": triple}, O)
    triple_rot = structures["triple"]
    for J, J_rot in zip(triple, triple_rot):
        theta = lee_form(geom, J).coeffs
        assert np.abs(lee_form(rotated, J_rot).coeffs - O.T @ theta).max() < 1e-12
    before, after = hkt_report(geom, triple), hkt_report(rotated, triple_rot)
    assert [r.name for r in after.rows] == [r.name for r in before.rows]
    assert all(r1.passed for r0, r1 in zip(before.rows, after.rows) if r0.passed)


# -------------------------------------------------------------- frame change

def special_orthogonal(seed, dim):
    """A random frame with det O = +1, which keeps every orientation."""
    O = random_orthogonal(np.random.default_rng(seed), dim)
    O[:, 0] *= np.sign(np.linalg.det(O))
    return O


def _with_every_structure(name):
    """A catalog entry's geometry and structures, plus whichever of J,
    the triple and Phi fit its dim (rotate does not read the keys)."""
    geom, structures = catalog_entry(name).build()
    if geom.dim == 8:
        triple = structures.get("triple", standard_quaternion_triple(8))
        structures = {"J": triple[0], "triple": triple,
                      "Phi": build_spin7(build_g2()), **structures}
    return geom, structures


@pytest.mark.parametrize("name", ["su3-hkt", "g2-su2-product", "spin7-standard"])
def test_rotate_then_transpose_returns_the_input(name):
    geom, structures = _with_every_structure(name)
    O = random_orthogonal(np.random.default_rng(3), geom.dim)
    back, back_structures = rotate(*rotate(geom, structures, O), O.T)
    assert back.name == geom.name
    pairs = [(back.c, geom.c), (back.H.components, geom.H.components)]
    for key, x in structures.items():
        y = back_structures[key]
        assert type(y) is type(x)
        pairs.append((y.components, x.components) if isinstance(x, FrameTensor) else (y, x))
    assert len(pairs) == 2 + len(structures)
    for got, want in pairs:
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


@pytest.mark.parametrize("O", [np.eye(4), np.eye(3, 2), np.eye(3)[:, :, None],
                               2.0 * np.eye(3), np.diag([1.0, 1.0, np.nan]),
                               np.diag([1.0, 1.0, np.inf]), np.eye(3) + 1e-9],
                         ids=["4x4", "3x2", "3x3x1", "2I", "nan", "inf", "near-I"])
def test_rotate_refuses_a_frame_that_is_not_orthogonal(O):
    with pytest.raises(ValueError, match="orthogonal"):
        rotate(su2(), {}, O)


def _verdicts(geom, structures):
    rows = [(rep.title, row.name, row.passed)
            for rep in _geometry_reports(geom, 1e-10)
            + structure_reports(geom, structures, 1e-10)
            for row in rep.rows]
    try:
        res = decompose(geom)
    except HypothesesNotMet:
        return rows, None
    return rows, (res.kernel_dim, res.block_names)


GEOMETRY_ENTRIES = [name for name, entry in CATALOG.items() if entry.kind != "fibration"]


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("name", GEOMETRY_ENTRIES)
def test_catalog_entries_keep_their_verdicts_in_a_rotated_frame(name, seed):
    """Every report row keeps its pass/fail, and decompose its kernel and
    blocks (or its refusal), when an entry and its structures move to an
    oriented frame."""
    geom, structures = catalog_entry(name).build()
    rows, split = _verdicts(geom, structures)
    rotated = rotate(geom, structures, special_orthogonal(seed, geom.dim))
    assert _verdicts(*rotated) == (rows, split)


def _hypothesis_inputs(closed_suite, open_suite):
    """Every catalog geometry, su3-hkt at scale 1e3 (dH = 4.7e-10 from
    rounding), and random samples with closed and with open torsion."""
    su3 = catalog_entry("su3-hkt").build()[0]
    return ([catalog_entry(name).build()[0] for name in GEOMETRY_ENTRIES]
            + [LieFrameGeometry(8, 1e3 * su3.c, FrameTensor(8, 3, coeffs=1e3 * su3.H.coeffs))]
            + closed_suite[:8] + open_suite[:8])


def test_nabla_hat_H_is_cached_read_only_and_exact(closed_torsion_suite, open_torsion_suite):
    for geom in _hypothesis_inputs(closed_torsion_suite, open_torsion_suite):
        nhatH = geom.nabla_hat_H
        assert nhatH is geom.nabla_hat_H
        ref = nabla_invariant(geom.H, geom.connections[1])
        assert nhatH.shape == ref.shape and nhatH.tobytes() == ref.tobytes()
        with pytest.raises(ValueError, match="read-only"):
            nhatH[...] = 0.0


def test_torsion_hypotheses_decide_every_report(closed_torsion_suite, open_torsion_suite):
    """bianchi_report's dH and nabla_hat_H rows, its pair_symmetry
    assert and lccc gate, and soliton_report's refusal all read
    torsion_hypotheses, whose gates are sup <= tol."""
    tol = 1e-10
    seen = set()
    for geom in _hypothesis_inputs(closed_torsion_suite, open_torsion_suite):
        dH, nhatH, closed, parallel = torsion_hypotheses(geom, tol)
        assert (closed, parallel) == (dH <= tol, nhatH <= tol)
        seen.add((closed, parallel))
        _, _, pair, lccc = bianchi_report(geom, tol)
        assert (lccc.row("dH").value, lccc.row("nabla_hat_H").value) == (dH, nhatH)
        assert pair.row("pair_symmetry").asserted == closed
        assert lccc.hypotheses_met == (closed and parallel)
        if closed:
            assert soliton_report(geom, tol).row("dH").value == dH
        else:
            with pytest.raises(HypothesesNotMet):
                soliton_report(geom, tol)
    assert {(True, True), (True, False), (False, False)} <= seen


# ------------------------------------------------------------------- soliton

def test_soliton_su2_flat_scale():
    geom = su2()
    rep = soliton_report(geom)
    assert rep.passed
    assert rep.row("soliton_residual").value < 1e-13


def test_soliton_flat_abelian():
    geom = LieFrameGeometry(4, np.zeros((4, 4, 4)), zero_form(4, 3))
    rep = soliton_report(geom)
    assert rep.passed


def test_soliton_blockwise_su2su2():
    geom = direct_sum(su2(), su2())
    rep = soliton_report(geom)
    assert rep.passed


def test_soliton_scaled_torsion_residual_value():
    # doubling the bi-invariant torsion gives Ric^ = -(3/2) delta, so the
    # soliton residual with V = 0 is exactly 3/2 and the report fails
    geom = su2(H_scale=2.0)
    rep = soliton_report(geom)
    assert rep.row("soliton_residual").value == pytest.approx(1.5, abs=1e-12)
    assert not rep.passed


def test_soliton_refuses_open_torsion():
    geom = LieFrameGeometry(6, direct_sum(su2(), su2()).c, basis_form(6, [0, 3, 4]))
    with pytest.raises(HypothesesNotMet):
        soliton_report(geom)


# ------------------------------------------------------------------- bochner

def test_bochner_flat_abelian_zero():
    geom = LieFrameGeometry(4, np.zeros((4, 4, 4)), zero_form(4, 3))
    assert bochner_term(geom).sup_norm == 0.0


def test_bochner_identity_su2():
    geom = su2()
    assert bochner_report(geom).row("bwf_residual").value < 1e-10


def test_bochner_identity_random(open_torsion_suite):
    for geom in open_torsion_suite[:15]:
        assert bochner_report(geom).row("bwf_residual").value < 1e-9


def test_bochner_linearity():
    geom = su2()
    tripled = LieFrameGeometry(3, geom.c, 3.0 * geom.H)
    assert np.abs(bochner_term(tripled).components
                  - 3.0 * bochner_term(geom).components).max() < 1e-12


# ------------------------------------------------------ cached derivations

def test_verify_derives_torsion_geometry_once(su3_built, monkeypatch, capsys):
    """`tg verify --example su3-hkt` reads dH, the three connections and
    their curvatures from the geometry's cache: one Levi-Civita
    derivation, one curvature per connection and one d(H), however many
    reports use them.  The cached
    arrays are read-only, so no report can alter what the next reads."""
    calls = {"curvature": 0, "dH": 0, "levi_civita": 0}
    curvature_fn = invariant_geometry.curvature
    d_fn = invariant_geometry.d_invariant
    lc_fn = invariant_geometry.levi_civita

    def counted_curvature(geom, conn):
        calls["curvature"] += 1
        return curvature_fn(geom, conn)

    def counted_d(chi, geom):
        calls["dH"] += chi is geom.H
        return d_fn(chi, geom)

    def counted_lc(geom):
        calls["levi_civita"] += 1
        return lc_fn(geom)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] != "torsiongeo":
            continue
        for attr, orig, counted in (("curvature", curvature_fn, counted_curvature),
                                    ("d_invariant", d_fn, counted_d),
                                    ("levi_civita", lc_fn, counted_lc)):
            if getattr(module, attr, None) is orig:
                monkeypatch.setattr(module, attr, counted)
    assert main(["verify", "--example", "su3-hkt", "--format", "json"]) == 0
    capsys.readouterr()
    assert calls == {"curvature": 3, "dH": 1, "levi_civita": 1}

    geom = su3_built[0]
    assert geom.dH is geom.dH
    for sign in (0, 1, -1):
        assert geom.curvatures[sign] is geom.curvatures[sign]
        for arr in (geom.connections[sign], geom.curvatures[sign]):
            with pytest.raises(ValueError, match="read-only"):
                arr[(0,) * arr.ndim] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        geom.dH.coeffs[0] = 1.0
    with pytest.raises(TypeError):
        geom.connections[1] = geom.connections[0]


# --------------------------------------------------------------- validation

def test_geometry_rejects_non_jacobi():
    c = np.zeros((4, 4, 4))
    c[0, 1, 2], c[0, 2, 1] = 1.0, -1.0
    c[1, 2, 3], c[1, 3, 2] = 1.0, -1.0
    c[2, 0, 3], c[2, 3, 0] = 1.0, -1.0   # generic: fails Jacobi
    assert lie_jacobi_residual(c) > 0.1
    # at 1e160 the residual of c itself overflows; the gate reads c / sup|c|
    for scale in (1.0, 1e160):
        with pytest.raises(ValueError, match="Jacobi"):
            LieFrameGeometry(4, scale * c, zero_form(4, 3))


@pytest.mark.parametrize("scale", [1e3, 1e100, 1e160, 8e307])
def test_geometry_accepts_scaled_su2_bit_for_bit(scale):
    c = scale * epsilon3()
    assert LieFrameGeometry(3, c, zero_form(3, 3)).c.tobytes() == c.tobytes()


def test_geometry_refuses_c_whose_transpose_difference_overflows():
    with pytest.raises(ValueError, match="above"):
        LieFrameGeometry(3, 1e308 * epsilon3(), zero_form(3, 3))


def test_geometry_stores_the_antisymmetric_part():
    c = epsilon3()
    c[0, 1, 2] += 1e-13                   # antisymmetric to roundoff only
    stored = LieFrameGeometry(3, c, zero_form(3, 3)).c
    assert stored[0, 1, 2] == -stored[0, 2, 1] == 0.5 * (c[0, 1, 2] - c[0, 2, 1])
