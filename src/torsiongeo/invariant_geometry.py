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

The theorem's hypotheses dH = 0 and nabla^ H = 0 are decided in one
place, ``torsion_hypotheses``, from the geometry's cached ``dH`` and
``nabla_hat_H``; the lccc and pair-symmetry rows, the soliton report and
``decomposition.decompose`` all read it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType

import numpy as np

from .frame_algebra import (
    FrameTensor,
    _expand,
    _expansion,
    _frozen,
    _interior_matrix,
    _split_sum,
    _splits,
    frame_change,
    index_tuples,
)
from .reporting import StructureReport

__all__ = [
    "LieFrameGeometry",
    "direct_sum",
    "rotate",
    "HypothesesNotMet",
    "lie_jacobi_residual",
    "levi_civita",
    "with_torsion",
    "curvature",
    "ricci",
    "d_invariant",
    "codifferential",
    "nabla_invariant",
    "parallel_residual",
    "torsion_hypotheses",
    "bianchi_report",
    "bochner_report",
    "lee_form",
    "soliton_report",
    "bochner_term",
    "DEFAULT_TOL",
]

DEFAULT_TOL = 1e-10
# LieFrameGeometry rejects c whose Jacobi residual of c / max(1, sup|c|)
# exceeds this
JACOBI_TOL = 1e-9
# the largest sup|c| for which c - c^T cannot overflow
_C_MAX = np.finfo(np.float64).max / 2


class HypothesesNotMet(ValueError):
    """A verifier was asked to assert a conclusion whose hypotheses fail."""


def _sup(x: np.ndarray) -> float:
    return float(np.abs(x).max()) if x.size else 0.0


def lie_jacobi_residual(c: np.ndarray) -> float:
    """Sup-norm of the Jacobi identity for structure constants.

    Uses the bracket-composition form sum_cyc(i,j,k) c^p_{ij} c^m_{pk},
    which coincides entrywise with the 3-form expression
    H^p_{ij} H_{pkm} + cyclic when the input is totally antisymmetric.
    """
    return _sup(_jacobi_tensor(np.asarray(c, dtype=np.float64)))


def _jacobi_tensor(c: np.ndarray) -> np.ndarray:
    """sum_cyc(i,j,k) c^p_{ij} c^m_{pk}, indexed [m, i, j, k]: one
    (n^2, n) x (n, n^2) matmul for t = c^p_{ij} c^m_{pk}, then the
    cyclic sum by two transposes."""
    n = c.shape[0]
    # t[i, j, m, k] = c^p_{ij} c^m_{pk}
    t = (c.reshape(n, n * n).T @ np.swapaxes(c, 0, 1).reshape(n, n * n)).reshape((n,) * 4)
    t = np.transpose(t, (2, 0, 1, 3))
    return t + np.transpose(t, (0, 2, 3, 1)) + np.transpose(t, (0, 3, 1, 2))


@dataclass(frozen=True)
class LieFrameGeometry:
    """Structure constants and invariant torsion in an orthonormal frame."""

    dim: int
    c: np.ndarray
    H: FrameTensor
    name: str = ""

    def __post_init__(self):
        c = np.asarray(self.c, dtype=np.float64)
        if c.shape != (self.dim,) * 3:
            raise ValueError("structure constants must have shape (dim, dim, dim)")
        if not np.isfinite(c).all():
            raise ValueError("non-finite structure constants")
        scale = max(1.0, np.abs(c).max())
        if scale > _C_MAX:
            raise ValueError(f"structure constants above {_C_MAX:.3e}")
        cT = np.swapaxes(c, 1, 2)
        if np.abs(c + cT).max() > 1e-12 * scale:
            raise ValueError("structure constants not antisymmetric in the lower pair")
        jac = lie_jacobi_residual(c / scale)
        if jac > JACOBI_TOL:
            raise ValueError(f"Jacobi residual {jac:.3e} of c / max(1, sup|c|) "
                             "above tolerance")
        if self.H.dim != self.dim or self.H.rank != 3:
            raise ValueError("torsion must be a 3-form on the same frame")
        # the antisymmetric part, which equals c bit for bit when c is exactly
        # antisymmetric: files, d_invariant and curvature then read one c
        c = 0.5 * (c - cT)
        c.setflags(write=False)
        object.__setattr__(self, "c", c)

    @property
    def unimodular(self) -> bool:
        return bool(np.abs(np.einsum("aba->b", self.c)).max()
                    <= 1e-10 * max(1.0, np.abs(self.c).max()))

    # The torsion geometry every report reads is derived on first use
    # and cached on the instance; the mappings and arrays are read-only.

    @cached_property
    def dH(self) -> FrameTensor:
        """The exterior derivative of the torsion, d(H)."""
        return d_invariant(self.H, self)

    @cached_property
    def nabla_hat_H(self) -> np.ndarray:
        """The packed covariant derivative of the torsion under the +H
        connection, ``nabla_invariant(H, connections[1])``, read-only."""
        return _frozen(nabla_invariant(self.H, self.connections[1]))

    @cached_property
    def _levi_civita(self) -> np.ndarray:
        return levi_civita(self)

    @cached_property
    def connections(self) -> MappingProxyType:
        """Connection coefficients ``gamma`` by torsion sign: 0 is
        Levi-Civita, +1 / -1 the connections with torsion +H / -H."""
        return MappingProxyType({0: self._levi_civita, 1: with_torsion(self, 1),
                                 -1: with_torsion(self, -1)})

    @cached_property
    def curvatures(self) -> MappingProxyType:
        """The Riemann tensor of each of ``connections``, by the same sign."""
        return MappingProxyType({sign: curvature(self, gamma)
                                 for sign, gamma in self.connections.items()})


def direct_sum(*factors: LieFrameGeometry, name: str = "") -> LieFrameGeometry:
    """The product geometry: block-diagonal ``c`` and ``H``, each factor
    on the next ``factor.dim`` consecutive frame indices, in order."""
    dim = sum(f.dim for f in factors)
    c = np.zeros((dim,) * 3)
    H = np.zeros((dim,) * 3)
    start = 0
    for f in factors:
        block = slice(start, start + f.dim)
        c[block, block, block] = f.c
        H[block, block, block] = f.H.components
        start += f.dim
    return LieFrameGeometry(dim, c, FrameTensor(dim, 3, H), name=name)


def rotate(geom: LieFrameGeometry, structures: dict, O: np.ndarray):
    """The geometry and its structures in the frame e'_a = e_b O_{ba}: c, H
    and every form (phi, Phi) pulled back by ``frame_change``, every array
    (J, triple) conjugated as ``O.T @ x @ O``.  O must be a finite
    orthogonal (dim, dim) matrix (else ``ValueError``); one with det O = -1
    reverses the orientation in which phi is positive and Phi self-dual."""
    n, O = geom.dim, np.asarray(O, dtype=np.float64)
    if (O.shape != (n, n) or not np.isfinite(O).all()
            or np.abs(O.T @ O - np.eye(n)).max() > 1e-12):
        raise ValueError(f"frame change must be a finite orthogonal ({n}, {n}) matrix")

    def pull(x):  # a form is pulled back, an array conjugated
        return (FrameTensor(x.dim, x.rank, frame_change(x.components, O))
                if isinstance(x, FrameTensor) else O.T @ x @ O)
    return (LieFrameGeometry(n, frame_change(geom.c, O), pull(geom.H), name=geom.name),
            {key: pull(x) for key, x in structures.items()})


def levi_civita(geom: LieFrameGeometry) -> np.ndarray:
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
    return _frozen(gamma)


def with_torsion(geom: LieFrameGeometry, sign: int) -> np.ndarray:
    """Gamma^_i{}_{jk} = Gamma^i_{jk} + (sign/2) H^i_{jk}, from the
    geometry's cached Levi-Civita connection."""
    if sign not in (1, -1):
        raise ValueError("torsion sign must be +1 or -1")
    return _frozen(geom._levi_civita + 0.5 * sign * geom.H.components)


def curvature(geom: LieFrameGeometry, gamma: np.ndarray) -> np.ndarray:
    """The Riemann tensor R_{ab}{}^c{}_d of the connection ``gamma``,
    indexed [a, b, c, d]: two (dim^2, dim) x (dim, dim^2) matmuls."""
    n = geom.dim
    # gg[c, a, b, d] = G^c_{ae} G^e_{bd}; cg[a, b, c, d] = c^e_{ab} G^c_{ed}
    gg = (gamma.reshape(n * n, n) @ gamma.reshape(n, n * n)).reshape((n,) * 4)
    cg = (geom.c.reshape(n, n * n).T
          @ np.swapaxes(gamma, 0, 1).reshape(n, n * n)).reshape((n,) * 4)
    return _frozen(np.transpose(gg, (1, 2, 0, 3)) - np.transpose(gg, (2, 1, 0, 3)) - cg)


def ricci(riemann: np.ndarray) -> np.ndarray:
    """Ric_{ij} = R_{ki}{}^k{}_j."""
    return np.einsum("kikj->ij", riemann)


def _exterior_derivative(c: np.ndarray, p: int, coeffs: np.ndarray) -> np.ndarray:
    """d of the packed p-forms on the last axis of ``coeffs`` (leading
    axes are kept), p >= 1: with Z[R, (a, b)] = sum_e chi_{eR} c^e_{ab},
    one (C(n, p-1), n) x (n, n^2) matmul, the gather

    (d chi)_K = sum_{i<j} (-1)^{i+j} Z[K minus {K_i, K_j}, K_i, K_j]."""
    n = c.shape[0]
    Z = _interior_matrix(n, p, coeffs).reshape(-1, n) @ c.reshape(n, n * n)
    pos, sign = _splits(n, p + 1, 2)
    return _split_sum(Z.reshape(coeffs.shape[:-1] + (-1,))[..., pos], sign)


def d_invariant(chi: FrameTensor, geom: LieFrameGeometry) -> FrameTensor:
    """Exterior derivative of an invariant form.

    Maurer-Cartan d lambda^a = -(1/2) c^a_{bc} lambda^b ^ lambda^c
    extended as a derivation; in components

    (d chi)_{b0..bp} = sum_{i<j} (-1)^{i+j} c^e_{bi bj} chi_{e, rest},

    one matmul and one signed gather (``_exterior_derivative``).  The
    derivative of a 0-form, a top or an over-top form is the zero form
    of rank p+1, so residual formulas can subtract it shape-safely."""
    if chi.dim != geom.dim:
        raise ValueError("dimension mismatch")
    n, p = geom.dim, chi.rank
    coeffs = (_exterior_derivative(geom.c, p, chi.coeffs) if p
              else np.zeros(n))
    return FrameTensor(n, p + 1, coeffs=coeffs)


def codifferential(chi: FrameTensor, geom: LieFrameGeometry) -> FrameTensor:
    """Codifferential delta = -sum_a iota_{e_a} nabla_a under Levi-Civita
    (Petersen, "Riemannian Geometry"): minus the trace over a of the
    interior matrices of the packed N[:, a] = ``nabla_invariant``,

    (delta chi)_J = - sum_{j not in J} (-1)^{#(J < j)} N[{j} u J, j].

    It is (-1)^{n(p+1)+1} * d *, free of the orientation; (d alpha, beta)
    = (alpha, delta beta) holds as constants on unimodular algebras, on
    others only pointwise.  An over-top form gives the zero form.
    """
    if chi.rank < 1:
        raise ValueError("codifferential of a 0-form is undefined")
    n, p = geom.dim, chi.rank
    N = nabla_invariant(chi, geom.connections[0])
    iota = _interior_matrix(n, p, N.T)      # [a, J, j] = (iota_{e_j} nabla_a chi)_J
    return FrameTensor(n, p - 1, coeffs=-np.trace(iota, axis1=0, axis2=2))


def nabla_invariant(T: FrameTensor | np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """Covariant derivative (nabla_a T)_{b1..bk} = - sum_s Gamma^e_{a b_s}
    T_{b1.. e ..bk} of an invariant tensor under ``gamma``.  A p-form
    (``FrameTensor``) gives the packed (C(dim, p), dim) array N[K, a] =
    (nabla_a T)_K: with Y[R, b, a] = T_{eR} Gamma^e_{ab}, one
    (C(dim, p-1), dim) x (dim, dim^2) matmul, the gather

    N[K, a] = - sum_s (-1)^s Y[K minus K_s, K_s, a].

    A (dim, dim) array J gives the dense [a, b, c] array -(Gamma_a^T J +
    J Gamma_a), Gamma_a = gamma[:, a, :], by batched matmul.  Any other
    input raises ``ValueError``."""
    n = gamma.shape[0]
    if not isinstance(T, FrameTensor):
        J = np.asarray(T, dtype=np.float64)
        if J.shape != (n, n):
            raise ValueError(f"nabla_invariant takes a form or a ({n}, {n}) array, "
                             f"not shape {J.shape}")
        G = np.swapaxes(gamma, 0, 1)       # G[a] = Gamma_a
        return -(np.swapaxes(G, 1, 2) @ J + J @ G)
    p = T.rank
    if T.dim != n:
        raise ValueError("dimension mismatch")
    if p == 0 or p > n:
        return np.zeros((math.comb(n, p), n))
    Y = _interior_matrix(n, p, T.coeffs) @ np.swapaxes(gamma, 1, 2).reshape(n, n * n)
    pos, sign = _splits(n, p, 1)
    return _split_sum(Y.reshape(-1, n).T[:, pos], -sign).T     # slots [a, s, K]


def parallel_residual(T: FrameTensor | np.ndarray, geom: LieFrameGeometry,
                      sign: int = 1) -> float:
    """Sup-norm of ``nabla_invariant`` of the invariant form or (dim, dim)
    array T under ``geom.connections[sign]``."""
    return _sup(nabla_invariant(T, geom.connections[sign]))


def torsion_hypotheses(geom: LieFrameGeometry,
                       tol: float = DEFAULT_TOL) -> tuple[float, float, bool, bool]:
    """The theorem's hypotheses dH = 0 and nabla^ H = 0, decided once for
    every report: (sup|dH|, sup|nabla^ H|, closed, parallel), each gate
    sup <= tol, from the geometry's cached ``dH`` and ``nabla_hat_H``."""
    dH, nhatH = geom.dH.sup_norm, _sup(geom.nabla_hat_H)
    return dH, nhatH, dH <= tol, nhatH <= tol


def bianchi_report(geom: LieFrameGeometry,
                   tol: float = DEFAULT_TOL) -> list[StructureReport]:
    """Residuals of the curvature identities of the torsion connection,
    as the four reports [first, second, pair_symmetry, lccc]:

    first:  3 R^_{i[jkm]} + nabla^_i H_{jkm} + (1/2) dH_{ijkm}
    second: 3 R^_{[ijk]m} + (3/2) nabla^_{[i} H_{jk]m}
            + (1/2) nabla^_m H_{ijk} + (1/2) dH_{ijkm}
    pair_symmetry: R^_{ijkm} - Rv_{kmij}, asserted when dH = 0
    lccc: with dH = 0 and nabla^ H = 0 established numerically
          (``torsion_hypotheses``), asserts nabla H = 0 and the Jacobi
          identity of H.

    R^, Rv, dH and nabla^ H come from the geometry's cache.  first and
    second are antisymmetric in jkm and ijk, so they are evaluated on
    packed triples K: Alt sums the signed permutations of K, nabla^ H is
    the packed N^[K, a] = ``geom.nabla_hat_H`` (expanded once for
    second's Alt), and dH_{iK} = -dH_{Ki} is entry [K, i] of dH's
    ``_interior_matrix``."""
    n = geom.dim
    rhat = geom.curvatures[1]
    rchk = geom.curvatures[-1]
    nhatH = geom.nabla_hat_H
    iota_dH = _interior_matrix(n, 4, geom.dH.coeffs)
    dH_sup, nhatH_sup, closed, parallel = torsion_hypotheses(geom, tol)
    perms, signs = _expansion(n, 3)

    first = StructureReport("bianchi:first")
    # the dH coefficient is the one that makes this an identity for
    # arbitrary (also non-closed) H under the standard exterior
    # derivative; both conventions agree once dH = 0
    res = 0.5 * (rhat.reshape(n, -1)[:, perms] @ signs) + (nhatH + 0.5 * iota_dH).T
    first.add("first_bianchi", _sup(res), tol,
              identity="first-bianchi-with-torsion")

    second = StructureReport("bianchi:second")
    # rows (i, j, k) of both dense arrays, so the Alt gathers their first three slots
    dense = 0.5 * rhat.reshape(-1, n) + 0.25 * _expand(n, 3, nhatH.T).reshape(-1, n)
    res = signs @ dense[perms] + 0.5 * (nhatH - iota_dH)
    second.add("second_bianchi", _sup(res), tol,
               identity="second-bianchi-with-torsion")

    pair = StructureReport("bianchi:pair_symmetry")
    res = rhat - np.transpose(rchk, (2, 3, 0, 1))
    pair.add("dH", dH_sup, tol, identity="torsion-closure", asserted=False)
    pair.add("pair_symmetry", np.abs(res).max(), tol,
             identity="curvature-pair-exchange-closed-torsion",
             asserted=closed,
             note="" if closed else "dH != 0: not asserted")

    lccc = StructureReport("bianchi:lccc")
    lccc.add("dH", dH_sup, tol, identity="torsion-closure", asserted=False)
    lccc.add("nabla_hat_H", nhatH_sup, tol,
             identity="torsion-parallelism", asserted=False)
    if closed and parallel:
        nH = parallel_residual(geom.H, geom, 0)
        lccc.add("nabla_H", nH, tol, identity="levi-civita-parallelism")
        lccc.add("jacobi_H", lie_jacobi_residual(geom.H.components), tol,
                 identity="jacobi-identity")
    else:
        lccc.hypotheses_met = False
        lccc.notes.append("hypotheses not met: dH = 0 and "
                          "nabla^ H = 0 are required")
    return [first, second, pair, lccc]


def lee_form(geom: LieFrameGeometry, J: np.ndarray) -> FrameTensor:
    """Lee form theta = J^T delta omega of the complex structure J, whose
    fundamental 2-form omega has the component matrix (J - J^T)/2
    (Gauduchon, "Hermitian connections and Dirac operators", 1997)."""
    omega = FrameTensor(geom.dim, 2, 0.5 * (J - J.T))
    return FrameTensor(geom.dim, 1, coeffs=omega.components.T
                       @ codifferential(omega, geom).coeffs)


def soliton_report(geom: LieFrameGeometry,
                   tol: float = DEFAULT_TOL) -> StructureReport:
    """Steady-soliton residual Ric^_{ij} - nabla^_i V_j for invariant V.

    An invariant V has constant components, so it is a gradient only
    when it vanishes and the residual is Ric^ itself.
    """
    dH, _, closed, _ = torsion_hypotheses(geom, tol)
    if not closed:
        raise HypothesesNotMet(f"soliton residuals need dH = 0 "
                               f"(sup |dH| = {dH:.3e})")
    ric = ricci(geom.curvatures[1])
    report = StructureReport("steady-soliton")
    report.add("dH", dH, tol, identity="torsion-closure", asserted=False)
    soliton = float(np.abs(ric).max())
    report.add("soliton_residual", soliton, tol,
               identity="steady-soliton-equation")
    return report


def bochner_term(geom: LieFrameGeometry) -> FrameTensor:
    """Curvature operator of the 3-form Weitzenboeck formula:

    R(H)_{abc} = Ric_a{}^k H_{bck} - 2 R_a{}^k{}_b{}^m H_{ckm}
                 + cyclic(a, b, c),

    with Levi-Civita curvature.
    """
    n, riem = geom.dim, geom.curvatures[0]
    H = geom.H.components
    # ric_H[b, c, a] = Ric_a^k H_{bck}; riem_H[a, b, c] = R_a^k_b^m H_{ckm}
    ric_H = (H.reshape(n * n, n) @ ricci(riem).T).reshape((n,) * 3)
    riem_H = (np.transpose(riem, (0, 2, 1, 3)).reshape(n * n, n * n)
              @ H.reshape(n, n * n).T).reshape((n,) * 3)
    t = np.transpose(ric_H, (2, 0, 1)) - 2.0 * riem_H
    # the cyclic sum is antisymmetric analytically: evaluate only its
    # packed entries a < b < c (bwf_residual gates the identity it feeds)
    a, b, c = index_tuples(n, 3).T
    return FrameTensor(n, 3, coeffs=t[a, b, c] + t[b, c, a] + t[c, a, b])


def _rough_laplacian(geom: LieFrameGeometry) -> np.ndarray:
    """The packed trace sum_a (nabla_a nabla_a H)_K of the Levi-Civita
    Hessian of H, from N[K, a] = (nabla_a H)_K without forming the
    (dim,)^5 Hessian:

    - sum_{a,e} Gamma^e_{aa} N[K, e] + sum_a [nabla_a N[:, a]]_K,

    the second sum ``nabla_invariant`` of the batch of 3-forms N[:, a],
    each under its own Gamma_a: one batched matmul and one gather."""
    n, gamma = geom.dim, geom.connections[0]
    N = nabla_invariant(geom.H, gamma)
    # Y[a, R, b] = sum_e N[eR, a] Gamma^e_{ab}
    Y = _interior_matrix(n, 3, N.T) @ np.swapaxes(gamma, 0, 1)
    pos, sign = _splits(n, 3, 1)
    return (_split_sum(Y.reshape(n, -1)[:, pos], -sign).sum(axis=0)
            - N @ np.trace(gamma, axis1=1, axis2=2))


def bochner_report(geom: LieFrameGeometry,
                   tol: float = DEFAULT_TOL) -> StructureReport:
    """Both sides of (d delta + delta d) H = -nabla^2 H + R(H), with a
    note when the algebra is not unimodular (from dim 3, where H is not
    over-top)."""
    lhs = (d_invariant(codifferential(geom.H, geom), geom)
           + codifferential(geom.dH, geom))
    rhs = -_rough_laplacian(geom) + bochner_term(geom).coeffs
    report = StructureReport("bochner-weitzenboeck")
    # on packed 3-forms, which are empty below dim 3
    report.add("bwf_residual", _sup(lhs.coeffs - rhs), tol,
               identity="weitzenboeck-3-form")
    if not geom.unimodular and geom.dim >= 3:
        report.notes.append("non-unimodular algebra: codifferential adjointness "
                            "only holds pointwise, not by parts")
    return report
