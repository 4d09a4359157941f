import numpy as np
import pytest

from torsiongeo.catalog import _flat, _su2, catalog_entry
from torsiongeo.decomposition import decompose
from torsiongeo.frame_algebra import (
    FrameTensor,
    antisymmetrize,
    basis_form,
    basis_vector,
    epsilon3,
    form_inner,
    hodge_star,
    interior_product,
    wedge,
    zero_form,
)
from torsiongeo.invariant_geometry import (
    LieFrameGeometry,
    d_invariant,
    direct_sum,
    levi_civita,
    lie_jacobi_residual,
    nabla_invariant,
    rotate,
    with_torsion,
)
from torsiongeo.special_structures import (
    _su3_real_form,
    bryant_positivity,
    build_g2,
    build_spin7,
    build_su3,
    g2_report,
    hkt_report,
    kt_report,
    nijenhuis,
    parallel_residual,
    spin7_report,
    standard_quaternion_triple,
    structure_reports,
    type_3_0_projection,
)
from torsiongeo.random_geometry import random_orthogonal

RNG = np.random.default_rng(31)


def flat_geometry(dim):
    return LieFrameGeometry(dim, np.zeros((dim,) * 3), zero_form(dim, 3))


def standard_block_J(dim):
    J = np.zeros((dim, dim))
    for k in range(0, dim, 2):
        J[k, k + 1], J[k + 1, k] = 1.0, -1.0
    return J


# --------------------------------------------------------------- nijenhuis

def test_nijenhuis_abelian_always_zero():
    geom = flat_geometry(6)
    for _ in range(3):
        q, _ = np.linalg.qr(RNG.standard_normal((6, 6)))
        J = q @ standard_block_J(6) @ q.T
        assert np.abs(nijenhuis(J, geom)).max() < 1e-12


def test_build_su3_hands_out_no_writable_constant():
    _, triple = build_su3()
    triple[...] = 0.0
    assert not any(arr.flags.writeable for arr in _su3_real_form())
    assert np.abs(build_su3()[1]).max() == 1.0


def test_nijenhuis_su3_structures(su3_built):
    geom, triple = su3_built
    for J in triple:
        assert np.abs(nijenhuis(J, geom)).max() < 1e-12


def test_nijenhuis_generic_witness():
    # a generic orthogonal complex structure on two group blocks plus a
    # flat plane is not integrable
    geom = LieFrameGeometry(8, direct_sum(_su2(), _su2(), _flat(2)).c, zero_form(8, 3))
    q, _ = np.linalg.qr(np.random.default_rng(12).standard_normal((8, 8)))
    J = q @ standard_block_J(8) @ q.T
    assert np.abs(nijenhuis(J, geom)).max() > 0.05


# ------------------------------------------------------------ type projector

def test_type_projector_vs_complex_frame_oracle(su3_built):
    """Brute-force complex-frame decomposition validates the projector."""
    _, triple = su3_built
    J = triple[0]
    X = FrameTensor(8, 3, antisymmetrize(RNG.standard_normal((8, 8, 8))))
    evals, evecs = np.linalg.eig(J.astype(complex))
    order = np.argsort(-evals.imag)
    W = evecs[:, order]  # first four holomorphic, last four antiholomorphic
    Xc = np.einsum("pa,qb,rc,pqr->abc", W.conj(), W.conj(), W.conj(),
                   X.components.astype(complex))
    Pc = np.einsum("pa,qb,rc,pqr->abc", W.conj(), W.conj(), W.conj(),
                   type_3_0_projection(X, J).components.astype(complex))
    mask = np.zeros((8, 8, 8), dtype=bool)
    mask[:4, :4, :4] = True
    mask[4:, 4:, 4:] = True
    assert np.abs(Pc[mask] - Xc[mask]).max() < 1e-12
    assert np.abs(Pc[~mask]).max() < 1e-12


def test_type_projector_idempotent(su3_built):
    _, triple = su3_built
    X = FrameTensor(8, 3, antisymmetrize(RNG.standard_normal((8, 8, 8))))
    P1 = type_3_0_projection(X, triple[1])
    P2 = type_3_0_projection(P1, triple[1])
    assert np.abs(P1.components - P2.components).max() < 1e-12


# ---------------------------------------------------------------- kt report

def test_kt_flat_kahler_r4():
    geom = flat_geometry(4)
    rep = kt_report(geom, standard_block_J(4))
    assert rep.passed


def test_kt_su3(su3_built):
    geom, triple = su3_built
    rep = kt_report(geom, triple[0])
    assert rep.passed
    assert max(r.value for r in rep.rows) < 1e-10


def test_kt_su3_without_torsion_not_parallel(su3_built):
    geom, triple = su3_built
    bare = LieFrameGeometry(8, geom.c, zero_form(8, 3))
    rep = kt_report(bare, triple[0])
    assert rep.row("nabla_hat_J").value > 0.1
    assert not rep.passed


def test_kt_rejects_odd_dimension():
    with pytest.raises(ValueError):
        kt_report(flat_geometry(3), np.zeros((3, 3)))


def test_kt_invariant_under_conjugation(su3_built):
    geom, triple = su3_built
    rep0 = kt_report(geom, triple[0])
    O = random_orthogonal(np.random.default_rng(7), 8)
    geom_rot, rotated = rotate(geom, {"J": triple[0], "triple": triple}, O)
    rep1 = kt_report(geom_rot, rotated["J"])
    for r0, r1 in zip(rep0.rows, rep1.rows):
        assert abs(r0.value - r1.value) < 1e-10
    # the whole triple conjugates along with the frame, as one stack
    hkt0 = hkt_report(geom, triple)
    hkt1 = hkt_report(geom_rot, rotated["triple"])
    assert [r.name for r in hkt0.rows] == [r.name for r in hkt1.rows]
    for r0, r1 in zip(hkt0.rows, hkt1.rows):
        assert abs(r0.value - r1.value) < 1e-10
    assert hkt1.passed


@pytest.mark.parametrize("shape", [(8, 6), (6, 8), (4, 4), (8,), (1, 8, 8)])
def test_kt_rejects_wrong_shape(su3_built, shape):
    geom, _ = su3_built
    with pytest.raises(ValueError):
        kt_report(geom, np.zeros(shape))


@pytest.mark.parametrize("shape", [(8, 8), (2, 8, 8), (4, 8, 8), (3, 4, 4), (3, 8, 6)])
def test_hkt_rejects_wrong_shape(su3_built, shape):
    geom, _ = su3_built
    with pytest.raises(ValueError):
        hkt_report(geom, np.zeros(shape))


# --------------------------------------------------------------- hkt report

def test_hkt_su3(su3_built):
    geom, triple = su3_built
    rep = hkt_report(geom, triple)
    assert rep.passed
    assert max(r.value for r in rep.rows) < 1e-10


def test_hkt_flat_r4():
    rep = hkt_report(flat_geometry(4), standard_quaternion_triple())
    assert rep.passed


def test_hkt_non_anticommuting_fails():
    tq = standard_quaternion_triple()
    broken = tq[[0, 0, 2]]
    rep = hkt_report(flat_geometry(4), broken)
    assert rep.row("quaternion_relations").value == pytest.approx(2.0)
    assert not rep.passed


def test_hkt_rejects_dim_not_multiple_of_four():
    with pytest.raises(ValueError):
        hkt_report(flat_geometry(6), standard_quaternion_triple())


def test_hkt_unequal_lee_forms_fail(su3_built):
    # the triple rotated against an unrotated frame: each I_r is still
    # parallel, but the three Lee forms differ
    geom, triple = su3_built
    O = random_orthogonal(np.random.default_rng(0), 8)
    rep = hkt_report(geom, O.T @ triple @ O)
    assert rep.row("lee_equal_12").value == pytest.approx(2.3455, abs=1e-4)
    assert rep.row("lee_equal_13").value == pytest.approx(0.8128, abs=1e-4)
    assert not rep.row("lee_equal_12").passed and not rep.row("lee_equal_13").passed


# --------------------------------------------------------- structure dispatch

def test_structure_reports_one_per_key_in_fixed_order():
    geom = flat_geometry(8)
    structures = {"Phi": build_spin7(build_g2()),
                  "triple": np.kron(np.eye(2), standard_quaternion_triple())}
    assert [r.title for r in structure_reports(geom, structures)] == ["hkt", "spin7"]
    assert structure_reports(geom, {}) == []


def test_structure_reports_refuses_unknown_key():
    with pytest.raises(ValueError, match="unknown structure keys"):
        structure_reports(flat_geometry(4), {"I1": standard_block_J(4)})


def test_g2_report_gates_closure_only_on_non_abelian_algebras():
    phi = build_g2()
    flat = g2_report(flat_geometry(7), phi)
    assert [r.name for r in flat.rows] == ["bryant_min_eig_positive", "nabla_hat_phi"]
    assert flat.passed
    rep = g2_report(direct_sum(_su2(-1.0), _flat(4)), phi)
    assert [r.name for r in rep.rows] == ["bryant_min_eig_positive", "dH", "nabla_hat_phi"]


def test_g2_report_rejects_wrong_dimension():
    with pytest.raises(ValueError, match="7-dim geometry"):
        g2_report(flat_geometry(8), build_g2())


# ----------------------------------------------------------------- su3 build

def test_su3_killing_normalization(su3_built):
    # the Cartan direction dual to the root difference has squared length 6
    s2 = np.sqrt(2.0)
    alpha = np.array([1.0 / s2, np.sqrt(1.5)])
    beta = np.array([1.0 / s2, -np.sqrt(1.5)])
    diff = alpha - beta
    assert diff @ diff == pytest.approx(6.0, abs=1e-12)
    geom, _ = su3_built
    # frame is orthonormal, so the corresponding frame vector realizes it
    vec = np.zeros(8)
    vec[:2] = diff
    assert vec @ vec == pytest.approx(6.0, abs=1e-12)


def test_su3_structure_constants_jacobi(su3_built):
    geom, _ = su3_built
    assert lie_jacobi_residual(geom.c) < 1e-12


def test_su3_torsion_is_minus_canonical_form(su3_built):
    geom, _ = su3_built
    sigma = np.transpose(geom.c, (1, 2, 0))
    assert np.abs(geom.H.components + sigma).max() < 1e-13
    # totally antisymmetric (bi-invariance)
    assert np.abs(sigma + np.swapaxes(sigma, 0, 1)).max() < 1e-13


def test_su3_plus_connection_parallelizes(su3_built):
    geom, _ = su3_built
    assert np.abs(with_torsion(geom, +1)).max() < 1e-13


def test_su3_full_hypothesis_set(su3_built):
    geom, _ = su3_built
    assert d_invariant(geom.H, geom).sup_norm < 1e-12
    assert np.abs(nabla_invariant(geom.H, with_torsion(geom, 1))).max() < 1e-12
    assert lie_jacobi_residual(geom.H.components) < 1e-12
    res = decompose(geom)
    assert res.kernel_dim == 0 and res.block_names == ["su(3)"]


# ------------------------------------------------------------------ g2 forms

def test_g2_standard_norm_squared():
    phi = build_g2()
    assert form_inner(phi, phi) == pytest.approx(7.0)


def test_g2_default_is_the_normal_form():
    """e123 + e145 + e167 + e247 + e256 + e346 - e357 (1-based), summed
    from unit basis forms."""
    lines = ((1, 2, 3), (1, 4, 5), (1, 6, 7), (2, 4, 7), (2, 5, 6), (3, 4, 6), (3, 5, 7))
    signs = (1, 1, 1, 1, 1, 1, -1)
    expect = zero_form(7, 3)
    for line, sign in zip(lines, signs):
        expect = expect + sign * basis_form(7, [i - 1 for i in line])
    assert build_g2().coeffs.tobytes() == expect.coeffs.tobytes()


def test_g2_standard_interior_contraction():
    phi = build_g2()
    expect = (basis_form(7, [1, 2]) + basis_form(7, [3, 4])
              + basis_form(7, [5, 6])).components
    out = interior_product(basis_vector(7, 0), phi)
    assert np.abs(out.components - expect).max() == 0.0


def test_bryant_standard_is_identity():
    B = bryant_positivity(build_g2())
    assert np.abs(B - np.eye(7)).max() < 1e-12


def test_g2_standard_double_dual():
    phi = build_g2()
    back = hodge_star(hodge_star(phi))
    assert np.abs(back.components - phi.components).max() < 1e-13


def test_bryant_sign_flips():
    phi = build_g2()
    B = bryant_positivity(phi)
    assert np.abs(bryant_positivity(-1.0 * phi) + B).max() < 1e-12
    assert np.abs(bryant_positivity(phi, -1) + B).max() < 1e-12


def test_bryant_definite_never_indefinite():
    phi = build_g2()
    for sign in (1, -1):
        eigs = np.linalg.eigvalsh(bryant_positivity(phi, sign))
        assert (eigs > 0).all() or (eigs < 0).all()


def test_g2_product_mode_positive_exactly_one_orientation():
    phi = build_g2(standard_quaternion_triple(7, (3, 4, 5, 6)))
    plus = np.linalg.eigvalsh(bryant_positivity(phi))
    minus = np.linalg.eigvalsh(bryant_positivity(phi, -1))
    assert (plus > 0).all() and (minus < 0).all()


def test_g2_product_mode_duality_dichotomy():
    phi = build_g2(standard_quaternion_triple(7, (3, 4, 5, 6), anti=True))
    plus = np.linalg.eigvalsh(bryant_positivity(phi))
    minus = np.linalg.eigvalsh(bryant_positivity(phi, -1))
    # the opposite duality flips the positive orientation
    assert (plus < 0).all() and (minus > 0).all()


def test_g2_product_mode_span_violation():
    bad = np.stack([basis_form(7, pair).components
                    for pair in ((0, 4), (3, 4), (5, 6))])
    with pytest.raises(ValueError):
        build_g2(bad)
    with pytest.raises(ValueError):
        build_g2(standard_quaternion_triple(7, (3, 4, 5, 6))[:2])


def _g2_bad_inputs():
    oms = standard_quaternion_triple(7, (3, 4, 5, 6))
    non_finite = oms.copy()
    non_finite[0, 4, 3] = np.nan     # below the diagonal: phi never reads it
    lopsided = oms.copy()
    lopsided[1, 5, 3] += 1e-9
    on_the_frame = oms + basis_form(7, (2, 5)).components
    return {"shape": oms[:, :6, :6], "finite": non_finite,
            "antisymmetric": lopsided, "vanish": on_the_frame}


@pytest.mark.parametrize("check", sorted(_g2_bad_inputs()))
def test_g2_rejects_each_bad_input(check):
    with pytest.raises(ValueError, match=check):
        build_g2(_g2_bad_inputs()[check])


def test_g2_keeps_tolerated_rounding():
    """Asymmetry within FrameTensor's relative 1e-12 and entries on the
    directions 0, 1, 2 below 1e-12 are accepted."""
    oms = 10.0 * standard_quaternion_triple(7, (3, 4, 5, 6))
    oms[0, 4, 3] += 5e-12
    oms[2, 1, 6] = 5e-13
    oms[2, 6, 1] = -5e-13
    phi = build_g2(oms)
    assert phi.coeffs[0] == 1.0 and phi.sup_norm == 10.0


def test_g2_negative_zero_entries_give_the_same_bytes():
    oms = standard_quaternion_triple(7, (3, 4, 5, 6))
    signed = oms.copy()
    signed[signed == 0] = -0.0
    assert build_g2(signed).coeffs.tobytes() == build_g2(oms).coeffs.tobytes()


def test_g2_product_desk_model_structure():
    """Flat 4-space times the group 3-sphere: torsion closed and the
    product fundamental form parallel for the plus connection."""
    geom = direct_sum(_su2(-1.0), _flat(4))
    phi = build_g2(standard_quaternion_triple(7, (3, 4, 5, 6)))
    assert d_invariant(geom.H, geom).sup_norm < 1e-12
    assert parallel_residual(phi, geom, 1) < 1e-12
    assert np.abs(nabla_invariant(geom.H, with_torsion(geom, 1))).max() < 1e-12


# -------------------------------------------------------------------- spin7

def test_spin7_standard_identities():
    report = spin7_report(direct_sum(_flat(8)), build_spin7(build_g2()))
    assert report.row("self_duality").value < 1e-12
    assert report.row("wedge_square_vs_14vol").value < 1e-12
    assert report.row("nabla_hat_Phi").value == 0.0


def test_spin7_self_duality_against_dense_star():
    Phi = build_spin7(build_g2())
    star = hodge_star(Phi)
    assert np.abs(star.components - Phi.components).max() < 1e-12


def test_spin7_triple_contraction_unit_length():
    x = build_spin7(build_g2())
    for idx in (3, 2, 1):
        x = interior_product(basis_vector(8, idx), x)
    assert np.sqrt(form_inner(x, x)) == pytest.approx(1.0, abs=1e-12)
    # supported along the extra direction only
    assert np.abs(x.components[1:]).max() < 1e-13


@pytest.mark.parametrize("sign", [1, -1])
def test_spin7_packed_lift_matches_dense_embedding(sign):
    """build_spin7 lifts packed forms; the reference embeds dense
    components in the last seven slots of an 8-dim frame."""
    rng = np.random.default_rng(11 + sign)
    for phi in (build_g2(), FrameTensor(7, 3, coeffs=rng.standard_normal(35))):
        star8 = np.zeros((8,) * 4)
        star8[1:, 1:, 1:, 1:] = hodge_star(phi, sign).components
        phi8 = np.zeros((8,) * 3)
        phi8[1:, 1:, 1:] = phi.components
        dense = FrameTensor(8, 4, star8) + wedge(basis_vector(8, 0), FrameTensor(8, 3, phi8))
        assert build_spin7(phi, sign).coeffs.tobytes() == dense.coeffs.tobytes()


def test_spin7_orientation_and_shape():
    # Phi built and checked in the opposite orientation passes the same
    # identities; forms of the wrong degree or dimension are refused
    flat = direct_sum(_flat(8))
    report = spin7_report(flat, build_spin7(build_g2(), -1), sign=-1)
    assert report.passed
    assert not spin7_report(flat, build_spin7(build_g2(), -1)).passed
    with pytest.raises(ValueError):
        build_spin7(basis_form(8, (0, 1, 2)))
    with pytest.raises(ValueError):
        bryant_positivity(basis_form(7, (0, 1, 2, 3)))
    with pytest.raises(ValueError):
        spin7_report(flat, build_g2())
    with pytest.raises(ValueError):
        spin7_report(_flat(7), build_spin7(build_g2()))


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("name, failing", [
    ("g2-standard", {"bryant_min_eig_positive"}),
    ("g2-su2-product", {"bryant_min_eig_positive"}),
    ("spin7-standard", {"self_duality", "wedge_square_vs_14vol"}),
])
def test_reflected_frame_reverses_the_orientation(name, failing, seed):
    """In a frame with det O = -1, phi is positive and Phi self-dual in
    the reversed orientation (sign -1); in the old one, only the
    orientation rows fail."""
    geom, structures = catalog_entry(name).build()
    O = random_orthogonal(np.random.default_rng(seed), geom.dim)
    O[:, 0] *= -np.sign(np.linalg.det(O))
    geom, structures = rotate(geom, structures, O)
    if "phi" in structures:
        assert np.linalg.eigvalsh(bryant_positivity(structures["phi"], -1)).min() > 0.1
        report = g2_report(geom, structures["phi"])
    else:
        assert spin7_report(geom, structures["Phi"], sign=-1).passed
        report = spin7_report(geom, structures["Phi"])
    assert {row.name for row in report.rows if not row.passed} == failing


# --------------------------------------------------------- parallel residual

def test_parallel_residual_metric():
    geom = LieFrameGeometry(3, epsilon3(), FrameTensor(3, 3, epsilon3()))
    delta = np.eye(3)
    assert parallel_residual(delta, geom, 1) < 1e-13
    assert parallel_residual(delta, geom, -1) < 1e-13


def test_parallel_residual_su3_dichotomy(su3_built):
    geom, triple = su3_built
    I = triple[0]
    assert parallel_residual(I, geom, 1) < 1e-13
    lc = np.abs(nabla_invariant(I, levi_civita(geom))).max()
    assert lc > 0.1
