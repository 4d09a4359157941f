"""Randomized Lie-frame geometries for property suites.

Uniform sampling of Lie algebras is not tractable; instead a random
antisymmetric candidate is projected onto the Jacobi variety (optionally
onto the unimodular slice as well) by damped Levenberg-Marquardt steps,
whose residual and Jacobian are evaluated on the packed triples
i < j < k only, and rejected unless the projected residual is below
PROJECTION_TOL.  Near-abelian fixed points are rejected too, so the
suites see genuinely curved samples.

The residual is quadratic in c, so every Jacobian entry is a sum of
fixed +-1 multiples of entries of c.  _jacobian_table(dim) lists them
once per dim as (target, source, sign) in the order of the cyclic
rotations (i, j, k), (k, i, j), (j, k, i), each with its c^a_{xy} term
before its c^m_{pz} term; each LM step's Jacobian is one gather and one
np.bincount over it, which adds in input order and so reproduces the
sequential scatter-adds bit for bit.

Many noisy starts stall on a singular stratum of the variety at a
residual near 1e-5 to 1e-6, which no number of further steps brings
below PROJECTION_TOL.  project_to_jacobi stops such a projection as
soon as its recent contraction can no longer reach the tolerance in
the steps it has left (stopping on a stagnating residual, as in Madsen,
Nielsen & Tingleff, Methods for Non-Linear Least Squares Problems,
2004, section 3).  It then ends above the tolerance, as it would have
after its last step, so random_geometry takes the same exact-seed
fallback and every sample keeps its bytes; the margin STALL_MARGIN
keeps the exit off the projections that go on to converge, which
contract faster than geometrically once they near the variety.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .frame_algebra import (
    FrameTensor,
    _frozen,
    antisymmetrize,
    epsilon3,
    index_tuples,
)
from .invariant_geometry import LieFrameGeometry, _exterior_derivative, _jacobi_tensor

__all__ = [
    "project_to_jacobi",
    "random_geometry",
    "random_closed_torsion",
    "closed_3form_kernel",
    "random_orthogonal",
]

PROJECTION_TOL = 1e-12
MAX_TRIES = 40
STALL_WINDOW = 2
STALL_MARGIN = 1e2


def _vec_to_c(vec: np.ndarray, dim: int) -> np.ndarray:
    """Structure constants from their independent entries c[a, b, c],
    b < c, a-major (the last axis of vec; leading axes are kept)."""
    b, cc = index_tuples(dim, 2).T
    v = vec.reshape(vec.shape[:-1] + (dim, b.size))
    c = np.zeros(vec.shape[:-1] + (dim,) * 3)
    c[..., b, cc] = v
    c[..., cc, b] = -v
    return c


def _c_to_vec(c: np.ndarray) -> np.ndarray:
    """Independent entries of the lower-antisymmetric part of c."""
    b, cc = index_tuples(c.shape[0], 2).T
    return (0.5 * (c[:, b, cc] - c[:, cc, b])).ravel()


def _sup(r: np.ndarray) -> float:
    return float(np.abs(r).max() if r.size else 0.0)


def _residual(c: np.ndarray, unimodular: bool) -> np.ndarray:
    i, j, k = index_tuples(c.shape[0], 3).T
    res = _jacobi_tensor(c)[:, i, j, k].ravel()
    if unimodular:
        res = np.concatenate([res, np.einsum("aba->b", c)])
    return res


@lru_cache(maxsize=None)
def _vec_index(dim: int):
    """For each entry c[a, b, cc]: the vec column of its independent
    entry and the sign relating the two, with the spare column nvar and
    sign 0 where b == cc; and the derivatives of the traces c^a_{ba},
    one row per column (the spare one last)."""
    b, cc = index_tuples(dim, 2).T
    nvar = dim * b.size
    col = np.full((dim,) * 3, nvar)
    sign = np.zeros((dim,) * 3)
    col[:, b, cc] = col[:, cc, b] = np.arange(nvar).reshape(dim, b.size)
    sign[:, b, cc], sign[:, cc, b] = 1.0, -1.0
    traces = np.zeros((nvar + 1, dim))
    traces[np.einsum("aba->ab", col), np.arange(dim)] = np.einsum("aba->ab", sign)
    return _frozen(col), _frozen(sign), _frozen(traces)


@lru_cache(maxsize=None)
def _jacobian_table(dim: int):
    """The Jacobian as flat (target, source, sign) arrays: entry n adds
    sign[n] * c.ravel()[source[n]] to cell target[n] of the row-major
    (nvar, dim, ntriples) array of d(residual m on triple r)/d(vec col).

    For each rotation (x, y, z) of the packed triples (i, j, k), (k, i,
    j), (j, k, i), in _jacobi_tensor's order, the derivative of
    c^p_{xy} c^m_{pz} along c^q_{xy} is c^m_{qz} and along c^m_{qz} it
    is c^q_{xy}; the entries come in that order, those of the spare
    column (q == z, sign 0) dropped.  No cell occurs twice in one of
    the six terms."""
    col, sign, _ = _vec_index(dim)
    i, j, k = index_tuples(dim, 3).T
    size = dim * i.size
    m, q, r = np.ix_(np.arange(dim), np.arange(dim), np.arange(i.size))
    cell = m * i.size + r
    terms = []
    for x, y, z in ((i, j, k), (k, i, j), (j, k, i)):
        x, y, z = x[r], y[r], z[r]
        terms.append((col[q, x, y] * size + cell, (m * dim + q) * dim + z,
                      sign[q, x, y]))
        terms.append((col[m, q, z] * size + cell, (q * dim + x) * dim + y,
                      sign[m, q, z]))
    target, source, signs = (
        np.concatenate([np.broadcast_to(t[n], (dim, dim, i.size)).ravel()
                        for t in terms]) for n in range(3))
    keep = signs != 0
    return _frozen(target[keep]), _frozen(source[keep]), _frozen(signs[keep])


def _jacobian(c: np.ndarray, unimodular: bool) -> np.ndarray:
    """d _residual / d vec at c, one row per residual entry, column-major
    (the layout that pins the rounding of the LM normal equations).

    One bincount over _jacobian_table: bincount adds each cell's
    weights in input order starting from 0.0, and the table lists the
    six terms in _jacobi_tensor's order with no cell twice in a term,
    so every cell gets the same additions of the same +-1 * c products
    in the same order as six successive scatter-adds would give it."""
    dim = c.shape[0]
    target, source, sign = _jacobian_table(dim)
    traces = _vec_index(dim)[2]
    nvar = traces.shape[0] - 1
    size = dim * math.comb(dim, 3)
    cols = np.bincount(target, weights=sign * c.ravel()[source],
                       minlength=nvar * size).reshape(nvar, size)
    if unimodular:
        cols = np.concatenate([cols, traces[:nvar]], axis=1)
    return cols.T


def project_to_jacobi(c0: np.ndarray, max_steps: int, unimodular: bool = True):
    """Levenberg-Marquardt projection of an antisymmetric candidate onto
    the Jacobi variety.  Returns (c, residual_sup); the residual may stay
    above PROJECTION_TOL when the iteration stalls and the caller
    rejects those samples.

    With s_k the sup residual after k accepted steps and W =
    STALL_WINDOW, the iteration gives up at the top of step k >= W when
    its contraction over the last W steps, carried over the steps left,
    cannot bring the residual within STALL_MARGIN of PROJECTION_TOL:

        s_k * (s_k / s_{k-W}) ** ((max_steps - k) / W)
            >= STALL_MARGIN * PROJECTION_TOL.

    Such a projection ends above the tolerance, as it would have after
    all max_steps steps, so the caller takes the same fallback and its
    samples do not change.  The margin keeps the exit off the
    projections that go on to reach the tolerance; tests/test_projection.py
    checks that against the loop without the exit."""
    dim = c0.shape[0]
    vec = _c_to_vec(c0)
    nvar = vec.size
    eye = np.eye(nvar)
    c = _vec_to_c(vec, dim)
    r = _residual(c, unimodular)
    sups = [_sup(r)]
    for k in range(max_steps):
        sup = sups[k]
        if sup < PROJECTION_TOL:
            break
        # in logs, where the power could overflow on a long projection
        if k >= STALL_WINDOW and (
                math.log(sup) + (max_steps - k) / STALL_WINDOW
                * math.log(sup / sups[k - STALL_WINDOW])
                >= math.log(STALL_MARGIN * PROJECTION_TOL)):
            break  # stagnating: the tolerance is out of reach
        jac_mat = _jacobian(c, unimodular)
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
            step = np.linalg.solve(jtj + mu * eye, -jtr)
            trial = vec + step
            c_trial = _vec_to_c(trial, dim)
            r_trial = _residual(c_trial, unimodular)
            if np.linalg.norm(r_trial) < 0.98 * norm0:
                vec, c, r = trial, c_trial, r_trial
                accepted = True
                break
            mu *= 8.0
        if not accepted:
            break  # stalled (typically near a singular stratum); give up
        sups.append(_sup(r))
    return c, sups[-1]


def _block_library(unimodular: bool):
    """Small unimodular Lie algebras used to seed the projection."""
    su2 = epsilon3()
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
    c = np.zeros((dim,) * 3)
    pos = 0
    while pos < dim:
        fits = [b for b in blocks if b.shape[0] <= dim - pos]
        if not fits or rng.random() < 0.2:
            pos += 1  # abelian direction
            continue
        b = fits[rng.integers(len(fits))] * float(rng.uniform(0.5, 1.5))
        block = slice(pos, pos + b.shape[0])
        c[block, block, block] = b
        pos += b.shape[0]
    O = random_orthogonal(rng, dim)
    # unoptimized on purpose: the sample golden pins the bytes of this sum
    return np.einsum("ma,pb,qc,mpq->abc", O, O, O, c)


def random_geometry(rng: np.random.Generator, dim: int,
                    unimodular: bool = True,
                    closed_torsion: bool = False) -> LieFrameGeometry:
    """A random valid geometry: structure constants obtained by seeding a
    noisy candidate near a block algebra and projecting onto the Jacobi
    variety, plus a random antisymmetric torsion (optionally closed).

    When the projection stalls (singular strata of the variety) the
    exact conjugated seed is used instead; it already lies on the
    variety, so sampling stays fast.  A try is rejected when the result
    is near-abelian, or closed torsion is asked for and none is found,
    and RuntimeError is raised after MAX_TRIES rejected tries.  Every
    Lie algebra of dim 1, and every unimodular one of dim 2, is
    abelian, so those dims raise ValueError before the first try."""
    abelian_up_to = 2 if unimodular else 1
    if dim <= abelian_up_to:
        kind = "unimodular Lie algebra" if unimodular else "Lie algebra"
        raise ValueError(f"dim {dim}: every {kind} of dim <= {abelian_up_to} "
                         f"is abelian, and the sampler rejects abelian samples")
    for _ in range(MAX_TRIES):
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
                       f"in {MAX_TRIES} tries")


def closed_3form_kernel(c: np.ndarray) -> np.ndarray:
    """Orthonormal basis (rows) of the packed invariant 3-forms with
    d = 0, from the SVD of the packed d on 3-forms: the matrix whose
    column j is d of the j-th basis 3-form, d of the identity batch.

    Each packed 4-form coefficient stands for 4! dense components of
    equal magnitude, so the singular values are scaled by sqrt(4!) to
    keep the kernel threshold on the dense-component scale."""
    mat = _exterior_derivative(c, 3, np.eye(math.comb(c.shape[0], 3))).T
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

