"""Connections, curvature and residual verifiers on left-invariant data.

A geometry is a Lie algebra given by structure constants ``c^a_{bc}`` in
an orthonormal left-invariant frame together with an invariant torsion
3-form H.  Everything reduces to finite-dimensional multilinear algebra:
exterior derivatives come from the Maurer-Cartan equation, covariant
derivatives of invariant tensors are pure connection action.

Conventions.  The metric is the identity.  Connection coefficients are
stored as ``gamma[i, j, k]`` with j the derivative slot, so the torsion
connection reads ``nabla^_j X^i = nabla_j X^i + (1/2) H^i_{jk} X^k`` and
metric compatibility is antisymmetry of the lowered array in its outer
pair (i, k).  Curvature in the invariant frame is

    R_{ab}{}^c{}_d = G^c_{ae} G^e_{bd} - G^c_{be} G^e_{ad} - c^e_{ab} G^c_{ed}

with Ricci the trace Ric_{ij} = R_{ki}{}^k{}_j.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .frame_algebra import (
    FrameTensor,
    EpsilonOrientation,
    _signed_permutations,
    antisymmetrize,
    derivation_matrix,
    hodge_star,
    wedge,
    zero_form,
)
from .reporting import StructureReport

__all__ = [
    "LieFrameGeometry",
    "ConnectionCoeffs",
    "CurvatureData",
    "HypothesesNotMet",
    "lie_jacobi_residual",
    "levi_civita",
    "with_torsion",
    "curvature",
    "d_invariant",
    "codifferential",
    "nabla_invariant",
    "bianchi_report",
    "lee_form",
    "soliton_report",
    "bochner_term",
    "DEFAULT_TOL",
]

DEFAULT_TOL = 1e-10


class HypothesesNotMet(ValueError):
    """A verifier was asked to assert a conclusion whose hypotheses fail."""


def lie_jacobi_residual(c: np.ndarray) -> float:
    """Sup-norm of the Jacobi identity for structure constants.

    Uses the bracket-composition form sum_cyc(i,j,k) c^p_{ij} c^m_{pk},
    which coincides entrywise with the 3-form expression
    H^p_{ij} H_{pkm} + cyclic when the input is totally antisymmetric.
    """
    c = np.asarray(c, dtype=np.float64)
    t = np.einsum("pij,mpk->mijk", c, c)
    res = t + np.einsum("mijk->mjki", t) + np.einsum("mijk->mkij", t)
    return float(np.abs(res).max()) if res.size else 0.0


@dataclass(frozen=True)
class LieFrameGeometry:
    """Structure constants and invariant torsion in an orthonormal frame."""

    dim: int
    c: np.ndarray
    H: FrameTensor
    name: str = ""
    jacobi_tol: float = 1e-9

    def __post_init__(self):
        c = np.asarray(self.c, dtype=np.float64)
        if c.shape != (self.dim,) * 3:
            raise ValueError("structure constants must have shape (dim, dim, dim)")
        if np.abs(c + np.swapaxes(c, 1, 2)).max() > 1e-12 * max(1.0, np.abs(c).max()):
            raise ValueError("structure constants not antisymmetric in the lower pair")
        jac = lie_jacobi_residual(c)
        if jac > self.jacobi_tol * max(1.0, np.abs(c).max() ** 2):
            raise ValueError(f"Jacobi residual {jac:.3e} above tolerance")
        if self.H.dim != self.dim or self.H.rank != 3:
            raise ValueError("torsion must be a 3-form on the same frame")
        c = c.copy()
        c.setflags(write=False)
        object.__setattr__(self, "c", c)

    @property
    def unimodular(self) -> bool:
        return bool(np.abs(np.einsum("aba->b", self.c)).max()
                    <= 1e-10 * max(1.0, np.abs(self.c).max()))

    def with_torsion_form(self, H: FrameTensor, name: str = "") -> "LieFrameGeometry":
        return LieFrameGeometry(self.dim, self.c, H, name or self.name,
                                self.jacobi_tol)


@dataclass(frozen=True)
class ConnectionCoeffs:
    """Frame connection coefficients gamma[i, j, k], derivative slot j.

    torsion_sign: 0 for the Levi-Civita connection, +1/-1 for the
    connections with torsion +H / -H.
    """

    gamma: np.ndarray
    torsion_sign: int = 0

    def __post_init__(self):
        g = np.asarray(self.gamma, dtype=np.float64)
        if g.ndim != 3 or len(set(g.shape)) != 1:
            raise ValueError("gamma must be a cubic rank-3 array")
        # metric compatibility: lowered gamma antisymmetric in the outer pair
        if np.abs(g + np.transpose(g, (2, 1, 0))).max() > 1e-10 * max(1.0, np.abs(g).max()):
            raise ValueError("connection is not metric (outer-pair antisymmetry fails)")
        g = g.copy()
        g.setflags(write=False)
        object.__setattr__(self, "gamma", g)

    @property
    def dim(self) -> int:
        return self.gamma.shape[0]


@dataclass(frozen=True)
class CurvatureData:
    riemann: np.ndarray  # R_{ij}{}^k{}_m, all lowered by delta
    ricci: np.ndarray    # Ric_{ij} = R_{ki}{}^k{}_j
    scalar: float

    def __post_init__(self):
        ric = np.einsum("kikj->ij", self.riemann)
        if np.abs(ric - self.ricci).max() > 1e-10 * max(1.0, np.abs(ric).max()):
            raise ValueError("ricci is not the stated trace of riemann")


def levi_civita(geom: LieFrameGeometry) -> ConnectionCoeffs:
    """Koszul formula for a left-invariant metric:

    2 Gamma_{ijk} = c_{ijk} - c_{jki} + c_{kij}  (all indices lowered).

    Torsion-freeness Gamma^i_{jk} - Gamma^i_{kj} = c^i_{jk} is checked.
    """
    c = geom.c
    # transpose(c, (2,0,1))[i,j,k] = c[j,k,i]; transpose(c, (1,2,0))[i,j,k] = c[k,i,j]
    gamma = 0.5 * (c - np.transpose(c, (2, 0, 1)) + np.transpose(c, (1, 2, 0)))
    tf = gamma - np.swapaxes(gamma, 1, 2) - c
    if np.abs(tf).max() > 1e-12 * max(1.0, np.abs(c).max()):
        raise AssertionError("Koszul output failed the torsion-free check")
    return ConnectionCoeffs(gamma, torsion_sign=0)


def with_torsion(geom: LieFrameGeometry, sign: int) -> ConnectionCoeffs:
    """Gamma^_i{}_{jk} = Gamma^i_{jk} + (sign/2) H^i_{jk}."""
    if sign not in (1, -1):
        raise ValueError("torsion sign must be +1 or -1")
    base = levi_civita(geom)
    return ConnectionCoeffs(base.gamma + 0.5 * sign * geom.H.components,
                            torsion_sign=sign)


def curvature(geom: LieFrameGeometry, conn: ConnectionCoeffs) -> CurvatureData:
    g, c = conn.gamma, geom.c
    riem = (np.einsum("cae,ebd->abcd", g, g)
            - np.einsum("cbe,ead->abcd", g, g)
            - np.einsum("eab,ced->abcd", c, g))
    ricci = np.einsum("kikj->ij", riem)
    return CurvatureData(riem, ricci, float(np.trace(ricci)))


def d_invariant(chi: FrameTensor, geom: LieFrameGeometry) -> FrameTensor:
    """Exterior derivative of an invariant form.

    Maurer-Cartan d lambda^a = -(1/2) c^a_{bc} lambda^b ^ lambda^c
    extended as a derivation (``derivation_matrix``); in components

    (d chi)_{b0..bp} = sum_{i<j} (-1)^{i+j} c^e_{bi bj} chi_{e, rest}.

    The derivative of a top (or over-top) form is the zero form of rank
    p+1, so residual formulas can subtract it shape-safely."""
    if chi.dim != geom.dim:
        raise ValueError("dimension mismatch")
    if not chi.antisymmetric:
        raise ValueError("d_invariant requires an antisymmetric input")
    return FrameTensor(geom.dim, chi.rank + 1,
                       coeffs=derivation_matrix(geom.c, chi.rank) @ chi.coeffs)


def codifferential(chi: FrameTensor, geom: LieFrameGeometry,
                   orient: EpsilonOrientation | None = None,
                   warn: list | None = None) -> FrameTensor:
    """Codifferential delta = (-1)^{n(p+1)+1} * d * on invariant p-forms.

    The sign makes (d alpha, beta) = (alpha, delta beta) hold as
    constants on unimodular algebras; non-unimodular input is flagged
    through ``warn`` (a list collecting messages) but still computed.
    """
    if chi.rank < 1:
        raise ValueError("codifferential of a 0-form is undefined")
    n, p = geom.dim, chi.rank
    if p > n:
        # over-top forms are identically zero (they arise as d of a top form)
        return zero_form(n, p - 1)
    if orient is None:
        orient = EpsilonOrientation(n)
    if not geom.unimodular and warn is not None:
        warn.append("non-unimodular algebra: codifferential adjointness "
                    "only holds pointwise, not by parts")
    sgn = (-1.0) ** (n * (p + 1) + 1)
    return sgn * hodge_star(d_invariant(hodge_star(chi, orient), geom), orient)


def nabla_invariant(T: FrameTensor, conn: ConnectionCoeffs) -> FrameTensor:
    """Covariant derivative of an invariant tensor, derivative slot first:

    (nabla_a T)_{b1..bk} = - sum_s Gamma^e_{a b_s} T_{b1.. e ..bk}.
    """
    comp = np.zeros((conn.dim,) * (T.rank + 1))
    g = conn.gamma
    for s in range(T.rank):
        term = np.tensordot(g, T.components, axes=(0, s))
        # term has indices (a, b_s, b1..b_{s-1}, b_{s+1}..bk); move b_s home
        order = [0] + list(range(2, 2 + s)) + [1] + list(range(2 + s, T.rank + 1))
        comp -= np.transpose(term, order)
    return FrameTensor(conn.dim, T.rank + 1, comp, antisymmetric=False)


def _antisym_over(arr: np.ndarray, slots) -> np.ndarray:
    """Weight-one antisymmetrization of selected slots."""
    slots = list(slots)
    perms, signs = _signed_permutations(len(slots))
    out = np.zeros_like(arr)
    for perm, sign in zip(perms, signs):
        order = list(range(arr.ndim))
        for pos, k in enumerate(perm):
            order[slots[pos]] = slots[k]
        out += sign * np.transpose(arr, order)
    return out / math.factorial(len(slots))


def bianchi_report(geom: LieFrameGeometry, which: str,
                   tol: float = DEFAULT_TOL) -> StructureReport:
    """Residuals of the curvature identities of the torsion connection.

    which = "first":  3 R^_{i[jkm]} + nabla^_i H_{jkm} - (1/2) dH_{ijkm}
    which = "second": 3 R^_{[ijk]m} + (3/2) nabla^_{[i} H_{jk]m}
                      + (1/2) nabla^_m H_{ijk} + (1/2) dH_{ijkm}
    which = "pair_symmetry": R^_{ijkm} - Rv_{kmij}, asserted when dH = 0
    which = "lccc": with dH = 0 and nabla^ H = 0 established numerically,
                    asserts nabla H = 0 and the Jacobi identity of H.
    """
    n = geom.dim
    hat = with_torsion(geom, +1)
    rhat = curvature(geom, hat).riemann
    dH = d_invariant(geom.H, geom).components
    nhatH = nabla_invariant(geom.H, hat).components
    report = StructureReport(f"bianchi:{which}")

    if which == "first":
        # the dH coefficient is the one that makes this an identity for
        # arbitrary (also non-closed) H under the standard exterior
        # derivative; both conventions agree once dH = 0
        res = 3.0 * _antisym_over(rhat, [1, 2, 3]) + nhatH + 0.5 * dH
        report.add("first_bianchi", np.abs(res).max(), tol,
                   identity="first-bianchi-with-torsion")
    elif which == "second":
        # transpose (1,2,3,0) realizes nabla^_m H_{ijk} in slot order ijkm
        res = (3.0 * _antisym_over(rhat, [0, 1, 2])
               + 1.5 * _antisym_over(nhatH, [0, 1, 2])
               + 0.5 * np.transpose(nhatH, (1, 2, 3, 0))
               + 0.5 * dH)
        report.add("second_bianchi", np.abs(res).max(), tol,
                   identity="second-bianchi-with-torsion")
    elif which == "pair_symmetry":
        rchk = curvature(geom, with_torsion(geom, -1)).riemann
        res = rhat - np.transpose(rchk, (2, 3, 0, 1))
        closed = np.abs(dH).max() <= tol
        report.add("dH", np.abs(dH).max(), tol,
                   identity="torsion-closure", asserted=False)
        report.add("pair_symmetry", np.abs(res).max(), tol,
                   identity="curvature-pair-exchange-closed-torsion",
                   asserted=closed,
                   note="" if closed else "dH != 0: not asserted")
    elif which == "lccc":
        closed = np.abs(dH).max() <= tol
        parallel = np.abs(nhatH).max() <= tol
        report.add("dH", np.abs(dH).max(), tol, identity="torsion-closure",
                   asserted=False)
        report.add("nabla_hat_H", np.abs(nhatH).max(), tol,
                   identity="torsion-parallelism", asserted=False)
        if not (closed and parallel):
            report.hypotheses_met = False
            report.notes.append("hypotheses not met: dH = 0 and "
                                "nabla^ H = 0 are required")
            return report
        lc = levi_civita(geom)
        nH = nabla_invariant(geom.H, lc).sup_norm
        report.add("nabla_H", nH, tol, identity="levi-civita-parallelism")
        report.add("jacobi_H", lie_jacobi_residual(geom.H.components), tol,
                   identity="jacobi-identity")
    else:
        raise ValueError(f"unknown identity selector: {which!r}")
    return report


def lee_form(geom: LieFrameGeometry, phi: FrameTensor, c_norm: float = 1.0,
             orient: EpsilonOrientation | None = None) -> FrameTensor:
    """Lee form c * *(phi ^ *(delta phi)).

    The wedge degree p + (n - p + 1) always exceeds the top degree, so
    the product - and with it the returned form - is identically zero;
    the overflow is resolved to the zero form by construction rather
    than an error.  Kept literal so scaling/parallelism statements about
    the Lee form remain checkable in degenerate form.
    """
    if orient is None:
        orient = EpsilonOrientation(geom.dim)
    delta_phi = codifferential(phi, geom, orient)
    inner = hodge_star(delta_phi, orient)
    product = wedge(phi, inner)  # degree overflow -> zero 0-form
    if product.rank == 0 and geom.dim > 1:
        return zero_form(geom.dim, 1)
    return c_norm * hodge_star(product, orient)


def soliton_report(geom: LieFrameGeometry, V: FrameTensor,
                   tol: float = DEFAULT_TOL) -> StructureReport:
    """Steady-soliton residual Ric^_{ij} - nabla^_i V_j plus the scalar
    monotonicity identity specialized to invariant data.

    On invariant geometry every scalar (R^, H^2) is constant, so the
    left side of the identity vanishes and, whenever the soliton
    equation holds, |Ric^|^2 must vanish with it.
    """
    if V.rank != 1 or V.dim != geom.dim:
        raise ValueError("V must be a vector on the same frame")
    dH = d_invariant(geom.H, geom).sup_norm
    if dH > tol:
        raise HypothesesNotMet(f"soliton residuals need dH = 0 "
                               f"(sup |dH| = {dH:.3e})")
    hat = with_torsion(geom, +1)
    ric = curvature(geom, hat).ricci
    nv = nabla_invariant(V, hat).components  # (nabla^_i V)_j
    res = ric - nv
    report = StructureReport("steady-soliton")
    report.add("dH", dH, tol, identity="torsion-closure", asserted=False)
    soliton = float(np.abs(res).max())
    report.add("soliton_residual", soliton, tol,
               identity="steady-soliton-equation")
    ric_sq = float(np.sum(ric * ric))
    # invariant data: nabla of any constant scalar is zero
    report.add("steadyf_lhs", 0.0, tol,
               identity="soliton-scalar-identity", asserted=False,
               note="laplacian of a constant scalar")
    report.add("steadyf_rhs", ric_sq, tol,
               identity="soliton-scalar-identity",
               asserted=soliton <= tol,
               note="grad term vanishes; equals |Ric^|^2")
    return report


def bochner_term(geom: LieFrameGeometry) -> FrameTensor:
    """Curvature operator of the 3-form Weitzenboeck formula:

    R(H)_{abc} = Ric_a{}^k H_{bck} - 2 R_a{}^k{}_b{}^m H_{ckm}
                 + cyclic(a, b, c),

    with Levi-Civita curvature.
    """
    lc = levi_civita(geom)
    cur = curvature(geom, lc)
    H = geom.H.components
    t = (np.einsum("ak,bck->abc", cur.ricci, H)
         - 2.0 * np.einsum("akbm,ckm->abc", cur.riemann, H))
    out = t + np.einsum("abc->bca", t) + np.einsum("abc->cab", t)
    return FrameTensor(geom.dim, 3, antisymmetrize_if_needed(out))


def antisymmetrize_if_needed(arr: np.ndarray) -> np.ndarray:
    """Clean up roundoff: the cyclic curvature sum is antisymmetric
    analytically; symmetrize away float noise so FrameTensor accepts it."""
    anti = antisymmetrize(arr)
    if np.abs(anti - arr).max() > 1e-8 * max(1.0, np.abs(arr).max()):
        raise AssertionError("cyclic curvature sum unexpectedly non-antisymmetric")
    return anti


def bochner_report(geom: LieFrameGeometry, tol: float = DEFAULT_TOL,
                   orient: EpsilonOrientation | None = None) -> StructureReport:
    """Both sides of (d delta + delta d) H = -nabla^2 H + R(H)."""
    if orient is None:
        orient = EpsilonOrientation(geom.dim)
    warn: list = []
    lhs = (d_invariant(codifferential(geom.H, geom, orient, warn), geom)
           + codifferential(d_invariant(geom.H, geom), geom, orient, warn))
    lc = levi_civita(geom)
    ddH = nabla_invariant(nabla_invariant(geom.H, lc), lc)
    rough = np.einsum("aabcd->bcd", ddH.components)
    rhs = -rough + bochner_term(geom).components
    report = StructureReport("bochner-weitzenboeck")
    report.add("bwf_residual", np.abs(lhs.components - rhs).max(), tol,
               identity="weitzenboeck-3-form")
    for w in set(warn):
        report.notes.append(w)
    return report
