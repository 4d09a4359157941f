import sys

import numpy as np
import pytest

import torsiongeo.invariant_geometry as invariant_geometry
from torsiongeo.catalog import _flat, _su2 as su2, epsilon3
from torsiongeo.cli import main
from torsiongeo.frame_algebra import (
    FrameTensor,
    antisymmetrize,
    basis_form,
    form_inner,
    hodge_star,
    zero_form,
)
from torsiongeo.invariant_geometry import (
    ConnectionCoeffs,
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
    soliton_report,
    with_torsion,
)

RNG = np.random.default_rng(618)


def su2_plus_abelian():
    return direct_sum(su2(0.0), _flat(3))


# ---------------------------------------------------------------- connections

def test_levi_civita_abelian_is_zero():
    geom = LieFrameGeometry(4, np.zeros((4, 4, 4)), zero_form(4, 3))
    assert np.abs(levi_civita(geom).gamma).max() == 0.0


def test_levi_civita_su2_is_half_epsilon():
    # Koszul by hand over all 27 entries: bi-invariant metric halves the bracket
    geom = su2()
    assert np.abs(levi_civita(geom).gamma - 0.5 * epsilon3()).max() == 0.0


def test_levi_civita_blockwise():
    geom = su2_plus_abelian()
    gamma = levi_civita(geom).gamma
    assert np.abs(gamma - 0.5 * geom.c).max() == 0.0


def test_levi_civita_torsion_free_on_random_samples(open_torsion_suite):
    for geom in open_torsion_suite[:10]:
        gamma = levi_civita(geom).gamma
        tf = gamma - np.swapaxes(gamma, 1, 2) - geom.c
        assert np.abs(tf).max() < 1e-12


def test_metric_compatibility_validated():
    bad = np.zeros((3, 3, 3))
    bad[0, 0, 0] = 1.0
    with pytest.raises(ValueError):
        ConnectionCoeffs(bad)


def test_with_torsion_zero_H_is_levi_civita():
    geom = su2_plus_abelian()
    assert np.abs(with_torsion(geom, 1).gamma - levi_civita(geom).gamma).max() == 0.0


def test_with_torsion_flat_sign_su2():
    # under these conventions the minus sign parallelizes: gamma^ == 0
    geom = su2()
    assert np.abs(with_torsion(geom, -1).gamma).max() == 0.0
    assert np.abs(with_torsion(geom, +1).gamma - epsilon3()).max() == 0.0


def test_with_torsion_blockwise_su2su2():
    geom = direct_sum(su2(), su2())
    assert np.abs(with_torsion(geom, -1).gamma).max() == 0.0


# ----------------------------------------------------------------- curvature

def test_curvature_abelian_zero():
    geom = LieFrameGeometry(5, np.zeros((5, 5, 5)), zero_form(5, 3))
    cur = curvature(geom, levi_civita(geom))
    assert np.abs(cur.riemann).max() == 0.0 and cur.scalar == 0.0


def test_curvature_su2_flat_at_parallelizing_sign():
    geom = su2()
    for sign in (1, -1):
        cur = curvature(geom, with_torsion(geom, sign))
        assert np.abs(cur.riemann).max() < 1e-12


def test_curvature_round_sphere_scalar():
    """Independent loop-based oracle for the bi-invariant round metric."""
    geom = su2(H_scale=0.0)
    geom = LieFrameGeometry(3, epsilon3(), zero_form(3, 3))
    gamma = levi_civita(geom).gamma
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
    cur = curvature(geom, levi_civita(geom))
    assert np.abs(cur.riemann - oracle).max() == 0.0
    assert cur.scalar == pytest.approx(1.5)
    assert np.abs(cur.ricci - 0.5 * np.eye(3)).max() < 1e-13


def test_levi_civita_curvature_symmetries(open_torsion_suite):
    from torsiongeo.invariant_geometry import _antisym_over
    for geom in open_torsion_suite[:15]:
        R = curvature(geom, levi_civita(geom)).riemann
        assert np.abs(R - np.transpose(R, (2, 3, 0, 1))).max() < 1e-10
        assert np.abs(_antisym_over(R, [0, 1, 2])).max() < 1e-10


def test_torsion_ricci_scaling_witness():
    # frozen from the closed form Ric^ = -2 g (g - 1) delta, g = (1+s)/2
    geom = su2(H_scale=2.0)
    ric = curvature(geom, with_torsion(geom, +1)).ricci
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
    from torsiongeo.frame_algebra import wedge
    lhs = d_invariant(wedge(a, b), geom)
    rhs = wedge(d_invariant(a, geom), b) + (-1.0) * wedge(a, d_invariant(b, geom))
    assert np.abs(lhs.components - rhs.components).max() < 1e-11


def test_codifferential_su2_examples():
    geom = su2()
    v = FrameTensor(3, 1, RNG.standard_normal(3))
    assert codifferential(v, geom).sup_norm < 1e-13
    assert codifferential(geom.H, geom).sup_norm < 1e-13


def test_codifferential_is_orientation_free(open_torsion_suite):
    # delta applies * twice, so the opposite orientation gives the same bits
    for geom in open_torsion_suite[:4]:
        n = geom.dim
        for p in range(1, n + 1):
            beta = FrameTensor(n, p, antisymmetrize(RNG.standard_normal((n,) * p)))
            flipped = (-1.0) ** (n * (p + 1) + 1) * hodge_star(
                d_invariant(hodge_star(beta, -1), geom), -1)
            assert np.array_equal(codifferential(beta, geom).coeffs, flipped.coeffs)


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
    H = geom.H.components
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
    R = curvature(geom, hat).riemann
    dH = d_invariant(geom.H, geom).components
    nH = nabla_invariant(geom.H.components, hat)
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
    omega = FrameTensor(4, 2, np.array([[0., 1, 0, 0], [-1, 0, 0, 0],
                                        [0, 0, 0, 1], [0, 0, -1, 0]]))
    theta = lee_form(geom, omega)
    assert theta.rank == 1 and theta.sup_norm == 0.0


def test_lee_form_parallel_su3(su3_built):
    geom, triple = su3_built
    I = triple[0]
    theta = lee_form(geom, FrameTensor(8, 2, 0.5 * (I - I.T)))
    assert np.abs(nabla_invariant(theta.components, with_torsion(geom, 1))).max() < 1e-13


def test_lee_form_su3_is_2_sqrt2_e1(su3_built):
    geom, triple = su3_built
    for J in triple:
        theta = lee_form(geom, FrameTensor(8, 2, 0.5 * (J - J.T)))
        assert np.abs(theta.coeffs - 2 * np.sqrt(2) * np.eye(8)[1]).max() < 1e-14


def test_lee_form_u2_is_e0():
    # u(2) = R + su(2) with H = -epsilon: the Hopf surface, theta = e^0
    from torsiongeo.special_structures import standard_quaternion_triple
    geom = direct_sum(_flat(1), su2(-1.0))
    for J in standard_quaternion_triple():
        theta = lee_form(geom, FrameTensor(4, 2, J))
        assert np.array_equal(theta.coeffs, [1.0, 0.0, 0.0, 0.0])


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
        for arr in (geom.connections[sign].gamma, geom.curvatures[sign].riemann,
                    geom.curvatures[sign].ricci):
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
    with pytest.raises(ValueError):
        LieFrameGeometry(4, c, zero_form(4, 3))
