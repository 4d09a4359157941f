"""Splitting a geometry with closed parallel torsion into flat factor
and semisimple blocks.

The quadratic form h_{ij} = (1/2) H_{ipq} H_j{}^{pq} is the Gram matrix
of the interior products iota_{e_i} H.  Its kernel carries no torsion
(iota_V H = 0 for kernel vectors V) and on its orthogonal complement H
plays the role of structure constants of a compact semisimple algebra
with h a positive multiple of minus the Killing form per block.

The hypotheses are those of ``invariant_geometry.torsion_hypotheses``,
the gate ``tg verify`` applies.  Clusters and kernel are decided
relative to h's own largest |eigenvalue|, with no floor, so they do not
move when (c, H) is rescaled; h = 0 is one kernel cluster.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .frame_algebra import FrameTensor, _frozen, _interior_matrix, frame_change
from .invariant_geometry import (
    LieFrameGeometry,
    HypothesesNotMet,
    lie_jacobi_residual,
    torsion_hypotheses,
    DEFAULT_TOL,
)

__all__ = [
    "EigenCluster",
    "DecompositionResult",
    "torsion_gram",
    "eigen_split",
    "decompose",
    "CLUSTER_TOL",
]

CLUSTER_TOL = 1e-8

# compact semisimple algebras by dimension, as far as the splitting
# theorems here need them
_BLOCK_CATALOG = {3: "su(2)", 6: "su(2)+su(2)", 8: "su(3)"}


def torsion_gram(H: FrameTensor) -> np.ndarray:
    """h_{ij} = (1/2) H_{ipq} H_j{}^{pq}, read-only; a Gram matrix, so
    symmetric positive semidefinite up to rounding."""
    if H.rank != 3:
        raise ValueError("torsion Gram form needs a 3-form")
    return _frozen(0.5 * np.einsum("ipq,jpq->ij", H.components, H.components))


@dataclass(frozen=True)
class EigenCluster:
    eigenvalue: float
    multiplicity: int
    basis: np.ndarray  # (dim, multiplicity), orthonormal columns


def eigen_split(h: np.ndarray):
    """Eigenvalues sorted ascending, grouped while gaps stay at or below
    CLUSTER_TOL times h's own largest |eigenvalue|, with no floor, so the
    clusters do not change when h is rescaled.  At h = 0 that gap is 0
    and every eigenvalue is exactly 0: one cluster, the whole kernel."""
    vals, vecs = np.linalg.eigh(h)
    gap = CLUSTER_TOL * float(np.abs(vals).max(initial=0.0))
    clusters = []
    start = 0
    for k in range(1, len(vals) + 1):
        if k == len(vals) or vals[k] - vals[k - 1] > gap:
            group = slice(start, k)
            clusters.append(EigenCluster(
                eigenvalue=float(np.mean(vals[group])),
                multiplicity=k - start,
                basis=vecs[:, group].copy(),
            ))
            start = k
    return clusters


@dataclass
class DecompositionResult:
    clusters: list
    kernel_dim: int
    block_structure_constants: list  # per nonzero cluster, H restricted
    block_names: list                # catalog identification per nonzero cluster
    diagnostics: dict

    @property
    def flat_block_factors(self) -> list:
        """Block names flattened into simple factors for verdict lines."""
        out = []
        for name in self.block_names:
            out.extend(name.split("+"))
        return out

    def verdict(self) -> str:
        factors = self.flat_block_factors
        flat = f"R^{self.kernel_dim}" if self.kernel_dim else ""
        group = " x ".join(factors) if factors else ""
        model = " x ".join(x for x in (flat, group) if x)
        return (f"algebraic certificate consistent with the local model "
                f"{model or 'R^0'}: torsion-free factor of dimension "
                f"{self.kernel_dim}, semisimple blocks {factors or 'none'}")

    def to_dict(self) -> dict:
        return {
            "kernel_dim": self.kernel_dim,
            "clusters": [
                {"eigenvalue": c.eigenvalue, "multiplicity": c.multiplicity,
                 "basis": c.basis.tolist()}
                for c in self.clusters
            ],
            "block_names": list(self.block_names),
            "block_structure_constants": [b.tolist()
                                          for b in self.block_structure_constants],
            "diagnostics": {k: (float(v) if np.isscalar(v) else v)
                            for k, v in self.diagnostics.items()},
            "verdict": self.verdict(),
        }


def _block_killing_residual(block_H: np.ndarray, eigenvalue: float) -> float:
    """Compare -1/2 of the ad-composition Killing form of the block
    against the restriction of h (eigenvalue times identity)."""
    killing = np.einsum("qrp,psq->rs", block_H, block_H)
    return float(np.abs(-0.5 * killing - eigenvalue * np.eye(block_H.shape[0])).max())


def decompose(geom: LieFrameGeometry, tol: float = DEFAULT_TOL) -> DecompositionResult:
    """Run the splitting algorithm on a geometry with closed,
    torsion-parallel H; raises HypothesesNotMet when the hypotheses
    (``torsion_hypotheses``, the gate ``tg verify``'s lccc report
    applies), or the kernel, mixing and block-Jacobi checks of the
    split, fail numerically.  An eigenvalue of h is kernel at or below
    CLUSTER_TOL times h's largest |eigenvalue| (h = 0: all of it)."""
    dH, nH, closed, parallel = torsion_hypotheses(geom, tol)
    if not (closed and parallel):
        raise HypothesesNotMet(
            f"decomposition hypotheses fail: sup|dH| = {dH:.3e}, "
            f"sup|nabla^ H| = {nH:.3e}")

    scale = max(1.0, geom.H.sup_norm)
    clusters = eigen_split(torsion_gram(geom.H))
    lam_scale = max(abs(c.eigenvalue) for c in clusters)

    kernel_dim = 0
    kernel_transversality = 0.0
    blocks, names, block_jacobi, block_killing = [], [], [], []
    # torsion components in the full eigenbasis, for cross-block mixing
    full_basis = np.concatenate([c.basis for c in clusters], axis=1)
    H_eig = frame_change(geom.H.components, full_basis)
    labels = np.concatenate([[k] * c.multiplicity
                             for k, c in enumerate(clusters)]) if clusters else []

    for k, c in enumerate(clusters):
        if abs(c.eigenvalue) <= CLUSTER_TOL * lam_scale:
            kernel_dim += c.multiplicity
            # column j holds the packed coefficients of iota_V H for V = basis[:, j]
            iota = np.abs(_interior_matrix(geom.dim, 3, geom.H.coeffs) @ c.basis)
            kernel_transversality = max(kernel_transversality, iota.max(initial=0.0))
            continue
        sel = np.nonzero(labels == k)[0]
        block = H_eig[np.ix_(sel, sel, sel)]
        blocks.append(block)
        names.append(_BLOCK_CATALOG.get(c.multiplicity,
                                        f"semisimple (dim {c.multiplicity}, unidentified)"))
        block_jacobi.append(lie_jacobi_residual(block))
        block_killing.append(_block_killing_residual(block, c.eigenvalue))

    # torsion must not mix distinct clusters, nor touch the kernel
    mixing = 0.0
    if len(clusters) > 1:
        la, lb, lc = labels[:, None, None], labels[None, :, None], labels[None, None, :]
        mask = (la != lb) | (lb != lc)
        mixing = float(np.abs(H_eig[mask]).max()) if mask.any() else 0.0

    diag = {
        "kernel_transversality": kernel_transversality,
        "cross_block_mixing": mixing,
        "block_jacobi": block_jacobi,
        "block_killing_vs_h": block_killing,
        "dH": dH,
        "nabla_hat_H": nH,
    }
    if kernel_transversality > tol * scale:
        raise HypothesesNotMet(
            f"kernel transversality violated: {kernel_transversality:.3e}")
    if mixing > tol * scale:
        raise HypothesesNotMet(f"cross-cluster torsion mixing: {mixing:.3e}")
    for j, name in enumerate(names):
        if block_jacobi[j] > tol * scale ** 2:
            raise HypothesesNotMet(
                f"block {j} ({name}) fails the Jacobi identity: "
                f"{block_jacobi[j]:.3e}")

    return DecompositionResult(
        clusters=clusters,
        kernel_dim=kernel_dim,
        block_structure_constants=blocks,
        block_names=names,
        diagnostics=diag,
    )
