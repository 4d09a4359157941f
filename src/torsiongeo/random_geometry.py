"""Randomized Lie-frame geometries for property suites.

Uniform sampling of Lie algebras is not tractable; instead a random
antisymmetric candidate is projected onto the Jacobi variety with a few
Gauss-Newton steps (optionally onto the unimodular slice as well) and
rejected unless the projected residual is below 1e-12.  Near-abelian
fixed points are rejected too, so the suites see genuinely curved
samples.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .frame_algebra import FrameTensor, antisymmetrize, derivation_matrix
from .invariant_geometry import LieFrameGeometry

__all__ = [
    "project_to_jacobi",
    "random_geometry",
    "random_closed_torsion",
    "closed_3form_kernel",
    "random_orthogonal",
    "rotate_structure",
]

PROJECTION_TOL = 1e-12


def _lower_pairs(dim: int):
    return [(b, c) for b in range(dim) for c in range(b + 1, dim)]


def _vec_to_c(vec: np.ndarray, dim: int) -> np.ndarray:
    c = np.zeros((dim, dim, dim))
    k = 0
    for a in range(dim):
        for b, cc in _lower_pairs(dim):
            c[a, b, cc] = vec[k]
            c[a, cc, b] = -vec[k]
            k += 1
    return c


def _c_to_vec(c: np.ndarray) -> np.ndarray:
    dim = c.shape[0]
    return np.array([c[a, b, cc] for a in range(dim)
                     for b, cc in _lower_pairs(dim)])


def _combo_flat_indices(dim: int) -> np.ndarray:
    """Flat indices of the independent (i<j<k) tuples in a d^3 block."""
    combos = np.array(list(itertools.combinations(range(dim), 3)), dtype=np.intp)
    if combos.size == 0:
        return np.zeros(0, dtype=np.intp)
    return combos[:, 0] * dim * dim + combos[:, 1] * dim + combos[:, 2]


def _residual(c: np.ndarray, unimodular: bool) -> np.ndarray:
    dim = c.shape[0]
    t = np.einsum("pij,mpk->mijk", c, c)
    jac = t + np.einsum("mijk->mjki", t) + np.einsum("mijk->mkij", t)
    flat = _combo_flat_indices(dim)
    res = jac.reshape(dim, -1)[:, flat].ravel()
    if unimodular:
        res = np.concatenate([res, np.einsum("aba->b", c)])
    return res


def project_to_jacobi(c0: np.ndarray, unimodular: bool = True,
                      max_steps: int = 80, tol: float = PROJECTION_TOL):
    """Gauss-Newton projection of an antisymmetric candidate onto the
    Jacobi variety, with backtracking so the minimum-norm step cannot
    jump to the trivial (abelian) solution.  Returns (c, residual_sup);
    the residual may stay above tol when the iteration stalls and the
    caller rejects those samples."""
    dim = c0.shape[0]
    vec = _c_to_vec(antisymmetrize_lower(c0))
    nvar = vec.size
    r = _residual(_vec_to_c(vec, dim), unimodular)
    for _ in range(max_steps):
        sup = np.abs(r).max() if r.size else 0.0
        if sup < tol:
            break
        c = _vec_to_c(vec, dim)
        basis = _basis_directions(dim)
        t = (np.einsum("xpij,mpk->xmijk", basis, c)
             + np.einsum("pij,xmpk->xmijk", c, basis))
        dres = (t + np.einsum("xmijk->xmjki", t)
                + np.einsum("xmijk->xmkij", t))
        flat = _combo_flat_indices(dim)
        cols = dres.reshape(nvar, dim, -1)[:, :, flat].reshape(nvar, -1)
        if unimodular:
            traces = np.einsum("xaba->xb", basis)
            cols = np.concatenate([cols, traces], axis=1)
        jac_mat = cols.T
        # Levenberg-Marquardt step: the plain minimum-norm Gauss-Newton
        # solution contains the direction -c/2, which collapses every
        # start to the abelian point; damping keeps the iterate near the
        # seed and converges to the closest variety point instead.
        jtj = jac_mat.T @ jac_mat
        jtr = jac_mat.T @ r
        norm0 = np.linalg.norm(r)
        mu = 1e-3 * max(np.trace(jtj) / nvar, 1e-12)
        accepted = False
        for _ in range(8):
            step = np.linalg.solve(jtj + mu * np.eye(nvar), -jtr)
            trial = vec + step
            r_trial = _residual(_vec_to_c(trial, dim), unimodular)
            if np.linalg.norm(r_trial) < 0.98 * norm0:
                vec, r = trial, r_trial
                accepted = True
                break
            mu *= 8.0
        if not accepted:
            break  # stalled (typically near a singular stratum); give up
    c = _vec_to_c(vec, dim)
    r = _residual(c, unimodular)
    return c, float(np.abs(r).max() if r.size else 0.0)


def antisymmetrize_lower(c: np.ndarray) -> np.ndarray:
    return 0.5 * (c - np.swapaxes(c, 1, 2))


_BASIS_CACHE: dict = {}


def _basis_directions(dim: int) -> np.ndarray:
    """Stacked coordinate directions of the antisymmetric-pair space."""
    if dim not in _BASIS_CACHE:
        nvar = dim * (dim * (dim - 1) // 2)
        basis = np.zeros((nvar, dim, dim, dim))
        for k in range(nvar):
            e = np.zeros(nvar)
            e[k] = 1.0
            basis[k] = _vec_to_c(e, dim)
        _BASIS_CACHE[dim] = basis
    return _BASIS_CACHE[dim]


def _block_library(unimodular: bool):
    """Small unimodular Lie algebras used to seed the projection."""
    su2 = np.zeros((3, 3, 3))
    for (i, j, k) in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        su2[k, i, j] = 1.0
        su2[k, j, i] = -1.0
    heis = np.zeros((3, 3, 3))
    heis[2, 0, 1] = 1.0
    heis[2, 1, 0] = -1.0
    e2 = np.zeros((3, 3, 3))   # euclidean motions: [e3,e1]=e2, [e3,e2]=-e1
    e2[1, 2, 0] = 1.0
    e2[1, 0, 2] = -1.0
    e2[0, 2, 1] = -1.0
    e2[0, 1, 2] = 1.0
    e11 = np.zeros((3, 3, 3))  # [e3,e1]=e1, [e3,e2]=-e2 (trace-free)
    e11[0, 2, 0] = 1.0
    e11[0, 0, 2] = -1.0
    e11[1, 2, 1] = -1.0
    e11[1, 1, 2] = 1.0
    n4 = np.zeros((4, 4, 4))   # filiform nilpotent: [e1,e2]=e3, [e1,e3]=e4
    n4[2, 0, 1] = 1.0
    n4[2, 1, 0] = -1.0
    n4[3, 0, 2] = 1.0
    n4[3, 2, 0] = -1.0
    blocks = [su2, heis, e2, e11, n4]
    if not unimodular:
        r2 = np.zeros((2, 2, 2))  # [e1,e2]=e2
        r2[1, 0, 1] = 1.0
        r2[1, 1, 0] = -1.0
        blocks.append(r2)
    return blocks


def _seed_structure(rng: np.random.Generator, dim: int,
                    unimodular: bool) -> np.ndarray:
    """Random scaled block sum of library algebras, randomly conjugated."""
    blocks = _block_library(unimodular)
    c = np.zeros((dim, dim, dim))
    pos = 0
    while pos < dim:
        fits = [b for b in blocks if b.shape[0] <= dim - pos]
        if not fits or rng.random() < 0.2:
            pos += 1  # abelian direction
            continue
        b = fits[rng.integers(len(fits))]
        k = b.shape[0]
        scale = float(rng.uniform(0.5, 1.5))
        c[pos:pos + k, pos:pos + k, pos:pos + k] = scale * b
        pos += k
    O = random_orthogonal(rng, dim)
    c = np.einsum("ma,pb,qc,mpq->abc", O, O, O, c)
    return c


def random_geometry(rng: np.random.Generator, dim: int,
                    unimodular: bool = True, closed_torsion: bool = False,
                    max_tries: int = 40) -> LieFrameGeometry:
    """A random valid geometry: structure constants obtained by seeding a
    noisy candidate near a block algebra and projecting onto the Jacobi
    variety, plus a random antisymmetric torsion (optionally closed).

    When the projection stalls (singular strata of the variety) the
    exact conjugated seed is used instead; it already lies on the
    variety, so sampling stays fast and never fails."""
    for _ in range(max_tries):
        seed = _seed_structure(rng, dim, unimodular)
        c0 = seed + 0.08 * rng.standard_normal((dim, dim, dim))
        c, sup = project_to_jacobi(c0, unimodular=unimodular, max_steps=25)
        if sup > PROJECTION_TOL or np.abs(c).max() < 0.05:
            c, sup = project_to_jacobi(seed, unimodular=unimodular, max_steps=8)
            if sup > PROJECTION_TOL or np.abs(c).max() < 0.05:
                continue
        H = (random_closed_torsion(rng, c) if closed_torsion
             else FrameTensor(dim, 3, antisymmetrize(rng.standard_normal((dim,) * 3))))
        if H is None:
            continue
        return LieFrameGeometry(dim, c, H)
    raise RuntimeError(f"failed to sample a dim-{dim} geometry "
                       f"in {max_tries} tries")


def closed_3form_kernel(c: np.ndarray) -> np.ndarray:
    """Orthonormal basis (rows) of the packed invariant 3-forms with
    d = 0, from the SVD of the packed d on 3-forms.

    Each packed 4-form coefficient stands for 4! dense components of
    equal magnitude, so the singular values are scaled by sqrt(4!) to
    keep the kernel threshold on the dense-component scale."""
    mat = derivation_matrix(c, 3)
    if mat.shape[0]:
        _, s, vt = np.linalg.svd(mat)
    else:
        s, vt = np.zeros(0), np.eye(mat.shape[1])
    s = s * math.sqrt(math.factorial(4))
    null_mask = np.concatenate([s, np.zeros(mat.shape[1] - s.size)]) < 1e-10
    return vt[null_mask.nonzero()[0], :]


def random_closed_torsion(rng: np.random.Generator, c: np.ndarray):
    """Random invariant 3-form in the kernel of the exterior derivative."""
    null = closed_3form_kernel(c)
    if null.shape[0] == 0:
        return None
    coeff = null.T @ rng.standard_normal(null.shape[0])
    norm = np.abs(coeff).max()
    if norm < 1e-8:
        return None
    return FrameTensor(c.shape[0], 3, coeffs=coeff / norm)


def random_orthogonal(rng: np.random.Generator, dim: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    return q * np.sign(np.diag(r))


def rotate_structure(c: np.ndarray, H: FrameTensor, O: np.ndarray):
    """Conjugate (c, H) by an orthogonal frame change e'_a = e_b O_{ba}."""
    c_rot = np.einsum("ma,pb,qc,mpq->abc", O, O, O, c)
    H_rot = np.einsum("pa,qb,rc,pqr->abc", O, O, O, H.components)
    return c_rot, FrameTensor(H.dim, 3, H_rot)
