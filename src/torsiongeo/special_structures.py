"""Complex, hypercomplex, G2 and Spin(7) structures with torsion.

Contains the explicit bi-invariant torsion geometry on the compact
group with 8-dimensional root system A2 (su(3)) together with its
hypercomplex pair, the 7-dimensional positive 3-form builder, and the
Cayley 4-form, plus one verification report per structure: KT
(Hermitian with torsion), HKT (hyper-Hermitian with torsion), G2 and
Spin(7), each taking ``(geom, structure, tol)``.  ``structure_reports``
dispatches a structures dict to them.  A complex structure is a
dim x dim matrix, a triple the (3, dim, dim) stack (I1, I2, I3 = I1 I2).
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .frame_algebra import (
    FrameTensor,
    _frozen,
    _interior_matrix,
    _orientation,
    _shuffles,
    basis_vector,
    form_inner,
    index_tuples,
    interior_product,
    wedge,
    wedge_top_coefficient,
    hodge_star,
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
    "type_3_0_projection",
    "standard_quaternion_triple",
]


def nijenhuis(J: np.ndarray, geom: LieFrameGeometry) -> np.ndarray:
    """Frame components of N(X,Y) = [JX,JY] - J[JX,Y] - J[X,JY] - [X,Y],
    evaluated on left-invariant vector fields via structure constants:

    N^m_{ab} = J^p_a J^q_b c^m_{pq} - J^m_q J^p_a c^q_{pb}
               - J^m_q J^p_b c^q_{ap} - c^m_{ab},

    each term one (dim^2, dim^2) matmul against c.  The J J products are
    formed before they meet c, the association the formula is written
    in; su3-hkt's recorded ``nijenhuis_I2``/``_I3`` rows depend on that
    rounding (J^T c J reads 2.2e-16 there, not 4.4e-16)."""
    n = geom.dim
    if np.shape(J) != (n, n):
        raise ValueError("dimension mismatch")
    c = geom.c
    # JJ[(p, q), (a, b)] = J^p_a J^q_b; JJt[(m, a), (q, p)] = J^m_q J^p_a
    JJ = (J[:, None, :, None] * J[None, :, None, :]).reshape(n * n, n * n)
    JJt = (J[:, None, :, None] * J.T[None, :, None, :]).reshape(n * n, n * n)
    t3 = (JJt @ np.swapaxes(c, 1, 2).reshape(n * n, n)).reshape(c.shape)
    return ((c.reshape(n, n * n) @ JJ).reshape(c.shape)
            - (JJt @ c.reshape(n * n, n)).reshape(c.shape)
            - np.swapaxes(t3, 1, 2)
            - c)


def type_3_0_projection(H: FrameTensor, J: np.ndarray) -> FrameTensor:
    """(3,0)+(0,3) part of a 3-form with respect to J:

    P(H)(X,Y,Z) = (1/4)(H(X,Y,Z) - H(JX,JY,Z) - H(JX,Y,JZ) - H(X,JY,JZ)),

    with J applied to a slot of the dense components by one matmul.
    """
    n, comp = H.dim, H.components
    jh = (J.T @ comp.reshape(n, n * n)).reshape(comp.shape)   # H(JX, Y, Z)
    jjh = np.matmul(J.T, jh)
    jhj = np.matmul(jh, J)
    hjj = np.matmul(np.matmul(J.T, comp), J)
    return FrameTensor(n, 3, 0.25 * (comp - jjh - jhj - hjj))


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
    for r, J in enumerate(triple, start=1):
        sub = kt_report(geom, J, tol)
        for row in sub.rows:
            if row.name != "dH":
                report.add(f"{row.name}_I{r}", row.value, row.tol, row.identity)
    lee = [lee_form(geom, J) for J in triple]
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
    return table, pairing


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


@lru_cache(maxsize=None)
def _su3_real_form():
    """Read-only structure constants ``c[m, a, b]`` and the matrices of
    the hypercomplex pair (I, J) of the 8-dim compact simple algebra in
    the real frame of ``_su3_real_frame``.  Constants of the algebra:
    built and checked once per process, from the complex bracket table,
    the frame and the complex-linear (I, J) below."""
    s2 = np.sqrt(2.0)
    table, pairing = _su3_complex_table()
    T = _su3_real_frame()

    metric = -(T @ pairing @ T.T)
    if np.abs(metric - np.eye(8)).max() > 1e-12:
        raise AssertionError("real frame is not orthonormal for the pairing")

    w = np.einsum("ax,by,xym->abm", T, T, table)
    coef = np.linalg.solve(T.T, w.reshape(-1, 8).T).T.reshape(8, 8, 8)
    if np.abs(coef.imag).max() > 1e-12:
        raise AssertionError("real frame is not closed under the bracket")
    c = np.transpose(coef.real, (2, 0, 1))  # c[m, a, b]

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
    return _frozen(c), _frozen(I), _frozen(J)


def build_su3():
    """The bi-invariant torsion geometry on the 8-dimensional compact
    simple group of rank 2 with its hypercomplex pair (I, J).

    The torsion 3-form is minus the canonical 3-form sigma(X,Y,Z) =
    g([X,Y],Z), so that the plus-torsion connection has vanishing
    coefficients on left-invariant data and parallelizes I and J.
    Returns a freshly built and validated (geometry, triple), with the
    triple stacked as (I, J, IJ).
    """
    c, I, J = _su3_real_form()
    sigma = np.transpose(c, (1, 2, 0))      # sigma_{abm} = c^m_{ab}
    H = FrameTensor(8, 3, -sigma)
    geom = LieFrameGeometry(8, c, H, name="su3-hkt")
    return geom, np.stack([I, J, I @ J])


def build_g2(omegas=None) -> FrameTensor:
    """The positive 3-form phi = e012 + sum_r e^r ^ omega_r (0-based) of
    a 3-dim factor times a quaternionic 4-dim one, from the (3, 7, 7)
    stack of the matrices of three 2-forms on the last four directions.

    The default stack, ``standard_quaternion_triple(7, (3, 4, 6, 5),
    anti=True)``, gives the normal form
        phi = e123 + e145 + e167 + e247 + e256 + e346 - e357
    (1-based indices), whose positivity matrix is the identity for the
    positive orientation.
    """
    if omegas is None:
        om = _G2_OMEGAS
    else:
        om = np.asarray(omegas, dtype=np.float64)
        if om.shape != (3, 7, 7):
            raise ValueError(f"omegas must have shape (3, 7, 7), not {om.shape}")
        if not np.isfinite(om).all():
            raise ValueError("omegas must be finite")
        # FrameTensor's antisymmetry rule, per matrix: relative, floored at 1
        scale = np.maximum(np.abs(om).max(axis=(1, 2)), 1.0)
        if (np.abs(om + np.swapaxes(om, 1, 2)).max(axis=(1, 2)) > 1e-12 * scale).any():
            raise ValueError("omegas must be antisymmetric")
        if np.abs(om[:, :3]).max() > 1e-12:
            raise ValueError("omegas must vanish on the directions 0, 1, 2")
    tuples = index_tuples(7, 3)
    mixed = (tuples[:, 0] < 3) & (tuples[:, 1] >= 3)
    r, a, b = tuples[mixed].T
    coeffs = np.zeros(len(tuples))
    coeffs[0] = 1.0                     # e012, the first packed tuple
    # added into zeros, so that a -0.0 entry of omegas gives +0.0
    coeffs[mixed] += om[r, a, b]
    return FrameTensor(7, 3, coeffs=coeffs)


def bryant_positivity(phi: FrameTensor, sign: int = 1) -> np.ndarray:
    """B(X,Y) dvol = (1/6) iota_X phi ^ iota_Y phi ^ phi, extracted
    against the volume form of orientation ``sign``; symmetric by
    construction.  The 28 entries i <= j are evaluated together on the
    packed tables of ``interior_product``, ``wedge`` and
    ``wedge_top_coefficient``."""
    if phi.dim != 7 or phi.rank != 3:
        raise ValueError("G2 positivity needs a 3-form on a 7-dim frame")
    orientation = _orientation(sign)
    iota = _interior_matrix(7, 3, phi.coeffs).T      # row i: iota_{e_i} phi
    left, right, shuffle = _shuffles(7, 2, 2)
    _, rest, top_parity = _shuffles(7, 4, 3)
    i, j = np.triu_indices(7)
    pairs = (iota[i][:, left] * iota[j][:, right]) @ shuffle     # (28, C(7, 4))
    B = np.zeros((7, 7))
    B[i, j] = B[j, i] = ((top_parity * pairs) @ phi.coeffs[rest[0]]) * orientation / 6.0
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
    report.add("nabla_hat_phi", parallel_residual(phi, geom, 1), tol,
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
    report.add("nabla_hat_Phi", parallel_residual(Phi, geom, 1), tol,
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


def standard_quaternion_triple(dim: int = 4, indices=(0, 1, 2, 3),
                               anti: bool = False) -> np.ndarray:
    """The quaternionic triple on four frame directions (a, b, c, d) of a
    ``dim``-dim frame, stacked as (I1, I2, I3 = I1 I2): the matrices of
    the 2-forms e_ab + e_cd, e_ac - e_bd, -(e_ad + e_bc), self-dual in
    the (a, b, c, d)-orientation, or of e_ab - e_cd, e_ac + e_bd,
    e_ad - e_bc, anti-self-dual, with ``anti=True``."""
    a, b, c, d = np.arange(dim)[list(indices)]
    if len({a, b, c, d}) != 4:
        raise ValueError("the four frame directions must be distinct")
    s = -1.0 if anti else 1.0
    half = np.zeros((3, dim, dim))
    half[[0, 0, 1, 1, 2, 2], [a, c, a, b, a, b], [b, d, c, d, d, c]] = [1, s, 1, -s, -s, -1]
    return half - np.swapaxes(half, 1, 2)


# build_g2's default stack: a read-only constant, built once per process
_G2_OMEGAS = _frozen(standard_quaternion_triple(7, (3, 4, 6, 5), anti=True))
