"""Complex, hypercomplex, G2 and Spin(7) structures with torsion.

Contains the explicit bi-invariant torsion geometry on the compact
group with 8-dimensional root system A2 (su(3)) together with its
hypercomplex pair, the 7-dimensional positive 3-form builders, and the
Cayley 4-form, plus one verification report per structure: KT
(Hermitian with torsion), HKT (hyper-Hermitian with torsion), G2 and
Spin(7), each taking ``(geom, structure, tol)``.  ``structure_reports``
dispatches a structures dict to them.  A complex structure is a
dim x dim matrix, a triple the (3, dim, dim) stack (I1, I2, I3 = I1 I2).
"""

from __future__ import annotations

import math

import numpy as np

from .frame_algebra import (
    FrameTensor,
    basis_form,
    basis_vector,
    form_inner,
    interior_product,
    wedge,
    wedge_top_coefficient,
    hodge_star,
    zero_form,
)
from .invariant_geometry import (
    LieFrameGeometry,
    lee_form,
    parallel_residual,
    DEFAULT_TOL,
)
from .reporting import StructureReport

__all__ = [
    "nijenhuis",
    "kt_report",
    "hkt_report",
    "g2_report",
    "structure_reports",
    "build_su3",
    "build_g2",
    "bryant_positivity",
    "build_spin7",
    "spin7_report",
    "parallel_residual",
    "type_3_0_projection",
    "standard_quaternion_triple",
    "hyperkahler_two_forms",
]


def nijenhuis(J: np.ndarray, geom: LieFrameGeometry) -> np.ndarray:
    """Frame components of N(X,Y) = [JX,JY] - J[JX,Y] - J[X,JY] - [X,Y],
    evaluated on left-invariant vector fields via structure constants."""
    if np.shape(J) != (geom.dim, geom.dim):
        raise ValueError("dimension mismatch")
    c = geom.c
    return (np.einsum("pa,qb,mpq->mab", J, J, c)
            - np.einsum("mq,pa,qpb->mab", J, J, c)
            - np.einsum("mq,pb,qap->mab", J, J, c)
            - c)


def type_3_0_projection(H: FrameTensor, J: np.ndarray) -> FrameTensor:
    """(3,0)+(0,3) part of a 3-form with respect to J:

    P(H)(X,Y,Z) = (1/4)(H(X,Y,Z) - H(JX,JY,Z) - H(JX,Y,JZ) - H(X,JY,JZ)).
    """
    comp = H.components
    jjh = np.einsum("pa,qb,pqc->abc", J, J, comp)
    jhj = np.einsum("pa,rc,pbr->abc", J, J, comp)
    hjj = np.einsum("qb,rc,aqr->abc", J, J, comp)
    return FrameTensor(H.dim, 3, 0.25 * (comp - jjh - jhj - hjj))


def kt_report(geom: LieFrameGeometry, J: np.ndarray,
              tol: float = DEFAULT_TOL) -> StructureReport:
    """Hermitian-with-torsion conditions for one complex structure:
    compatibility with the metric, parallelism under the torsion
    connection, integrability, closure of H, and the pure
    (2,1)+(1,2) type of H."""
    if geom.dim % 2 != 0:
        raise ValueError("KT structures need an even-dimensional frame")
    if np.shape(J) != (geom.dim, geom.dim):
        raise ValueError(f"J must have shape {(geom.dim,) * 2}, not {np.shape(J)}")
    one = np.eye(geom.dim)
    report = StructureReport("kt")
    report.add("hermitian_metric", float(np.abs(J.T @ J - one).max()), tol,
               identity="metric-compatibility")
    report.add("almost_complex", float(np.abs(J @ J + one).max()), tol,
               identity="square-minus-one")
    report.add("nabla_hat_J", parallel_residual(J, geom, 1), tol,
               identity="torsion-parallelism")
    report.add("nijenhuis", float(np.abs(nijenhuis(J, geom)).max()), tol,
               identity="integrability")
    report.add("dH", geom.dH.sup_norm, tol, identity="torsion-closure")
    report.add("H_type_3_0", type_3_0_projection(geom.H, J).sup_norm, tol,
               identity="torsion-type-(2,1)+(1,2)")
    return report


def hkt_report(geom: LieFrameGeometry, triple: np.ndarray,
               tol: float = DEFAULT_TOL) -> StructureReport:
    """Quaternion relations of the stacked triple (I1, I2, I3), closure
    of H (gated once), the other KT conditions for each of the three
    complex structures, and equality of the three Lee forms."""
    if geom.dim % 4 != 0:
        raise ValueError("HKT structures need dim divisible by 4")
    if np.shape(triple) != (3, geom.dim, geom.dim):
        raise ValueError(f"a triple must be a 3 x {geom.dim} x {geom.dim} "
                         f"array, not {np.shape(triple)}")
    I1, I2, I3 = triple
    report = StructureReport("hkt")
    report.add("quaternion_relations",
               float(max(np.abs(I1 @ I2 + I2 @ I1).max(), np.abs(I3 - I1 @ I2).max())),
               tol, identity="quaternion-algebra")
    report.add("dH", geom.dH.sup_norm, tol, identity="torsion-closure")
    lee = []
    for r, J in enumerate(triple, start=1):
        sub = kt_report(geom, J, tol)
        for row in sub.rows:
            if row.name != "dH":
                report.add(f"{row.name}_I{r}", row.value, row.tol, row.identity)
        lee.append(lee_form(geom, FrameTensor(geom.dim, 2, 0.5 * (J - J.T))))
    report.add("lee_equal_12", (lee[0] - lee[1]).sup_norm, tol,
               identity="equal-lee-forms")
    report.add("lee_equal_13", (lee[0] - lee[2]).sup_norm, tol,
               identity="equal-lee-forms")
    return report


# ---------------------------------------------------------------------------
# explicit builders


def _su3_complex_table():
    """Bracket table and pairing of the complexified rank-2 algebra in a
    root basis {h1, h2, e_a, e_b, e_g, e_-a, e_-b, e_-g}, g = a + b.

    The positive roots have squared length 2 with a.b = -1; the highest
    root is aligned with the first Cartan axis so the explicit second
    complex structure below closes on a subalgebra (any realization
    differs from this one by a rotation of the Cartan plane).
    """
    s2 = np.sqrt(2.0)
    alpha = np.array([1.0 / s2, np.sqrt(1.5)])
    beta = np.array([1.0 / s2, -np.sqrt(1.5)])
    top = alpha + beta
    table = np.zeros((8, 8, 8), dtype=complex)

    def setbr(x, y, vec):
        table[x, y, :] = vec
        table[y, x, :] = -np.asarray(vec)

    def unit(i, s=1.0):
        v = np.zeros(8, dtype=complex)
        v[i] = s
        return v

    roots = {2: alpha, 3: beta, 4: top, 5: -alpha, 6: -beta, 7: -top}
    for p in (0, 1):
        for idx, root in roots.items():
            setbr(p, idx, unit(idx, root[p]))
    setbr(2, 5, np.concatenate([alpha, np.zeros(6)]))
    setbr(3, 6, np.concatenate([beta, np.zeros(6)]))
    setbr(4, 7, np.concatenate([top, np.zeros(6)]))
    setbr(2, 3, unit(4, 1.0))    # [e_a, e_b] = e_g
    setbr(5, 6, unit(7, -1.0))   # [e_-a, e_-b] = -e_-g
    setbr(2, 7, unit(6, -1.0))   # [e_a, e_-g] = -e_-b
    setbr(3, 7, unit(5, 1.0))    # [e_b, e_-g] = e_-a
    setbr(5, 4, unit(3, 1.0))    # [e_-a, e_g] = e_b
    setbr(6, 4, unit(2, -1.0))   # [e_-b, e_g] = -e_a
    pairing = np.zeros((8, 8), dtype=complex)
    pairing[0, 0] = pairing[1, 1] = 1.0
    for gi, mi in ((2, 5), (3, 6), (4, 7)):
        pairing[gi, mi] = pairing[mi, gi] = 1.0
    return table, pairing, alpha, beta


def _su3_real_frame():
    """Real orthonormal frame of the compact form, as complex coordinates.

    Order: E1, E2 (Cartan), then (u, v) pairs for the roots a, b, a+b,
    where u realizes the symmetric and v the antisymmetric combination
    of e_g and e_-g (normalized by 1/sqrt(2))."""
    s2 = np.sqrt(2.0)
    T = np.zeros((8, 8), dtype=complex)
    T[0, 0] = 1j
    T[1, 1] = 1j
    for k, (gi, mi) in enumerate(((2, 5), (3, 6), (4, 7))):
        u, v = 2 + 2 * k, 3 + 2 * k
        T[u, gi] = 1j / s2
        T[u, mi] = 1j / s2
        T[v, gi] = 1.0 / s2
        T[v, mi] = -1.0 / s2
    return T


def _real_matrix(M_complex: np.ndarray, T: np.ndarray) -> np.ndarray:
    cols = np.linalg.solve(T.T, M_complex @ T.T)
    if np.abs(cols.imag).max() > 1e-12:
        raise AssertionError("complex-linear map does not preserve the real form")
    return cols.real


def build_su3():
    """The bi-invariant torsion geometry on the 8-dimensional compact
    simple group of rank 2 with its hypercomplex pair (I, J).

    The torsion 3-form is minus the canonical 3-form sigma(X,Y,Z) =
    g([X,Y],Z), so that the plus-torsion connection has vanishing
    coefficients on left-invariant data and parallelizes I and J.
    Returns (geometry, triple) with the triple stacked as (I, J, IJ).
    """
    s2 = np.sqrt(2.0)
    table, pairing, alpha, beta = _su3_complex_table()
    T = _su3_real_frame()

    metric = -(T @ pairing @ T.T)
    if np.abs(metric - np.eye(8)).max() > 1e-12:
        raise AssertionError("real frame is not orthonormal for the pairing")

    w = np.einsum("ax,by,xym->abm", T, T, table)
    coef = np.linalg.solve(T.T, w.reshape(-1, 8).T).T.reshape(8, 8, 8)
    if np.abs(coef.imag).max() > 1e-12:
        raise AssertionError("real frame is not closed under the bracket")
    c = np.transpose(coef.real, (2, 0, 1))  # c[m, a, b]

    sigma = np.transpose(c, (1, 2, 0))      # sigma_{abm} = c^m_{ab}
    H = FrameTensor(8, 3, -sigma)
    geom = LieFrameGeometry(8, c, H, name="su3-hkt")

    MI = np.zeros((8, 8), dtype=complex)
    MI[1, 0] = -1.0   # I(h1) = -h2
    MI[0, 1] = 1.0    # I(h2) = h1
    for gi, mi in ((2, 5), (3, 6), (4, 7)):
        MI[gi, gi] = 1j
        MI[mi, mi] = -1j
    I = _real_matrix(MI, T)

    # second structure: swaps the a and b root planes and pairs the
    # highest-root plane with the Cartan plane, normalized to an isometry
    MJ = np.zeros((8, 8), dtype=complex)
    MJ[6, 2] = -1.0              # J(e_a) = -e_-b
    MJ[3, 5] = -1.0              # J(e_-a) = -e_b
    MJ[5, 3] = 1.0               # J(e_b) = e_-a
    MJ[2, 6] = 1.0               # J(e_-b) = e_a
    MJ[0, 4] = 1.0 / s2          # J(e_g) = (h1 - i h2)/sqrt(2)
    MJ[1, 4] = -1j / s2
    MJ[0, 7] = 1.0 / s2          # J(e_-g) = (h1 + i h2)/sqrt(2)
    MJ[1, 7] = 1j / s2
    MJ[4, 0] = -1.0 / s2         # J(h1) = -(e_g + e_-g)/sqrt(2)
    MJ[7, 0] = -1.0 / s2
    MJ[4, 1] = -1j / s2          # J(h2) = -i(e_g - e_-g)/sqrt(2)
    MJ[7, 1] = 1j / s2
    J = _real_matrix(MJ, T)
    return geom, np.stack([I, J, I @ J])


# signed index triples (0-based) of the standard positive 3-form; the
# first five follow the bi-invariant-geometry literature normal form,
# the last two carry the signs that make the positivity matrix exactly
# the identity in the positive orientation
_G2_LINES = (
    ((0, 1, 2), 1.0),
    ((0, 3, 4), 1.0),
    ((0, 5, 6), 1.0),
    ((1, 3, 6), 1.0),
    ((1, 4, 5), 1.0),
    ((2, 3, 5), 1.0),
    ((2, 4, 6), -1.0),
)


def build_g2(mode: str = "standard", lambda_coframe=None, omegas=None) -> FrameTensor:
    """Positive 3-form builders in 7 dimensions.

    mode="standard": the adapted-coframe normal form
        phi = e123 + e145 + e167 + e247 + e256 + e346 - e357
    (1-based indices), whose positivity matrix is the identity for the
    positive orientation.

    mode="product": phi = l1^l2^l3 + sum_r l^r ^ omega_r from a 3-frame
    of 1-forms and three 2-forms annihilated by the frame's duals.
    """
    if mode == "standard":
        phi = zero_form(7, 3)
        for line, sign in _G2_LINES:
            phi = phi + sign * basis_form(7, line)
        return phi
    if mode == "product":
        if lambda_coframe is None or omegas is None:
            raise ValueError("product mode needs lambda_coframe and omegas")
        lams = list(lambda_coframe)
        oms = list(omegas)
        if len(lams) != 3 or len(oms) != 3:
            raise ValueError("product mode needs three 1-forms and three 2-forms")
        for lam in lams:
            if lam.rank != 1 or lam.dim != 7:
                raise ValueError("lambda coframe entries must be 1-forms on dim 7")
        for om in oms:
            if om.rank != 2 or om.dim != 7:
                raise ValueError("omegas must be 2-forms on dim 7")
            for lam in lams:
                if interior_product(lam, om).sup_norm > 1e-12:
                    raise ValueError("omegas must be transversal to the "
                                     "lambda frame span")
        phi = wedge(wedge(lams[0], lams[1]), lams[2])
        for lam, om in zip(lams, oms):
            phi = phi + wedge(lam, om)
        return phi
    raise ValueError(f"unknown mode {mode!r}")


def bryant_positivity(phi: FrameTensor, sign: int = 1) -> np.ndarray:
    """B(X,Y) dvol = (1/6) iota_X phi ^ iota_Y phi ^ phi, extracted
    against the volume form of orientation ``sign``; symmetric by
    construction."""
    if phi.dim != 7 or phi.rank != 3:
        raise ValueError("G2 positivity needs a 3-form on a 7-dim frame")
    contractions = [interior_product(basis_vector(7, i), phi) for i in range(7)]
    B = np.zeros((7, 7))
    for i in range(7):
        for j in range(i, 7):
            top = wedge_top_coefficient(wedge(contractions[i], contractions[j]),
                                        phi, sign)
            B[i, j] = B[j, i] = top / 6.0
    return B


def g2_report(geom: LieFrameGeometry, phi: FrameTensor,
              tol: float = DEFAULT_TOL) -> StructureReport:
    """Positivity of phi (smallest eigenvalue of ``bryant_positivity``),
    closure of H when the algebra is not abelian, and parallelism of phi
    under the plus torsion connection of ``geom``."""
    if geom.dim != 7:
        raise ValueError(f"phi needs a 7-dim geometry, not dim {geom.dim}")
    report = StructureReport("g2-positivity")
    eigs = np.linalg.eigvalsh(bryant_positivity(phi))
    report.add("bryant_min_eig_positive", min(0.0, float(eigs.min())), tol,
               identity="positivity-of-the-3-form",
               note=f"eigenvalues in [{eigs.min():.3f}, {eigs.max():.3f}]")
    if np.abs(geom.c).max() > 0:
        report.add("dH", geom.dH.sup_norm, tol, identity="torsion-closure")
    report.add("nabla_hat_phi", parallel_residual(phi.components, geom, 1), tol,
               identity="torsion-parallelism")
    return report


def build_spin7(phi: FrameTensor, sign: int = 1) -> FrameTensor:
    """Cayley 4-form Phi = e0 ^ phi + *phi on an 8-dim frame with the
    new index 0 prepended; ``sign`` orients the 7-dim frame and with it
    the 8-dim one.

    Prepending index 0 shifts every index tuple by one, onto the last
    C(7, p) tuples of the 8-dim packing order (all others start with 0),
    so a 7-dim form lifts by zero-padding its packed coefficients."""
    if phi.dim != 7 or phi.rank != 3:
        raise ValueError("the Cayley form needs a 3-form on a 7-dim frame")

    def lift(form: FrameTensor) -> FrameTensor:
        pad = np.zeros(math.comb(7, form.rank - 1))
        return FrameTensor(8, form.rank, coeffs=np.concatenate([pad, form.coeffs]))

    e0phi = wedge(basis_vector(8, 0), lift(phi))
    return lift(hodge_star(phi, sign)) + e0phi


def spin7_report(geom: LieFrameGeometry, Phi: FrameTensor,
                 tol: float = DEFAULT_TOL, sign: int = 1) -> StructureReport:
    """Cayley-form identities of Phi in orientation ``sign``:
    self-duality, Phi ^ Phi = 14 vol (both gated at no less than
    1e-12), unit length of the triple contraction
    iota_1 iota_2 iota_3 Phi, and parallelism of Phi under the plus
    torsion connection of ``geom``."""
    if Phi.dim != 8 or Phi.rank != 4:
        raise ValueError("the Cayley identities need a 4-form on an 8-dim frame")
    if geom.dim != 8:
        raise ValueError(f"Phi needs an 8-dim geometry, not dim {geom.dim}")
    report = StructureReport("spin7")
    report.add("self_duality", (hodge_star(Phi, sign) - Phi).sup_norm,
               max(1e-12, tol), identity="cayley-self-duality")
    report.add("wedge_square_vs_14vol",
               wedge_top_coefficient(Phi, Phi, sign) - 14.0, max(1e-12, tol),
               identity="cayley-wedge-square")
    x = Phi
    for idx in (3, 2, 1):
        x = interior_product(basis_vector(8, idx), x)
    report.add("triple_contraction_length_minus_1",
               float(np.sqrt(form_inner(x, x))) - 1.0, tol,
               identity="associative-triple-contraction")
    report.add("nabla_hat_Phi", parallel_residual(Phi.components, geom, 1), tol,
               identity="torsion-parallelism")
    return report


def structure_reports(geom: LieFrameGeometry, structures: dict,
                      tol: float = DEFAULT_TOL) -> list[StructureReport]:
    """One report per structure in ``structures`` (keyed like
    ``geometry_io.structures_from_dict``), in the order triple, J, phi,
    Phi; any other key raises ``ValueError``."""
    # built per call, so that it holds whatever the module attributes are
    # bound to now (perfbench/tracing.py wraps them by rebinding)
    reports = {"triple": hkt_report, "J": kt_report, "phi": g2_report,
               "Phi": spin7_report}
    unknown = set(structures) - set(reports)
    if unknown:
        raise ValueError(f"unknown structure keys {sorted(unknown)}")
    return [report(geom, structures[key], tol)
            for key, report in reports.items() if key in structures]


def standard_quaternion_triple() -> np.ndarray:
    """Flat quaternion triple on a 4-dim frame, stacked as (I1, I2, I1 I2),
    the matrices of the self-dual forms e01 + e23, e02 - e13, e03 + e12."""
    I1 = np.zeros((4, 4))
    I2 = np.zeros((4, 4))
    I1[0, 1], I1[1, 0], I1[2, 3], I1[3, 2] = 1.0, -1.0, 1.0, -1.0
    I2[0, 2], I2[2, 0], I2[1, 3], I2[3, 1] = 1.0, -1.0, -1.0, 1.0
    return np.stack([I1, I2, I1 @ I2])


def hyperkahler_two_forms(dim: int, indices, anti: bool = False):
    """The three quaternionic 2-forms on four chosen frame directions,
    self-dual in the (indices)-orientation by default, anti-self-dual
    with ``anti=True``.  The handedness matches the matrix convention
    I3 = I1 I2 of standard_quaternion_triple."""
    a, b, c, d = indices
    s = -1.0 if anti else 1.0
    om1 = basis_form(dim, (a, b)) + s * basis_form(dim, (c, d))
    om2 = basis_form(dim, (a, c)) - s * basis_form(dim, (b, d))
    om3 = -s * basis_form(dim, (a, d)) - basis_form(dim, (b, c))
    return [om1, om2, om3]
