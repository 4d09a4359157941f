"""Randomized Lie-frame geometries for property suites.

Every sample algebra is built exactly, by linear algebra and no
iteration (Jacobson, Lie Algebras, 1962, ch. I-III; de Graaf, Lie
Algebras: Theory and Algorithms, 2000):

- a Levi factor s, or none: su(2), sl(2, R), su(2) + su(2) or su(3),
  acting trivially, or su(2) acting on R^3 by ``epsilon3`` or on R^4 by
  half the quaternionic triple;
- one-dim extensions up to the asked dim.  A semidirect R x_D g, [x, y]
  = D y, satisfies the Jacobi identity exactly when D is a derivation of
  g; a central extension, [y, y'] + w(y, y') z, exactly when the 2-form w
  is closed.  Both conditions are linear in the datum.  Every solvable
  algebra is an iterated semidirect extension (any hyperplane containing
  [g, g] is an ideal), and the nilpotent ones are the iterated central
  extensions;
- a random GL(n) change of basis of condition number at most e, read as
  an orthonormal frame, so the left-invariant metric is generic; then a
  rescale to sup|c| in [0.5, 1.5].

Each datum is a random candidate projected orthogonally onto the null
space of its linear Jacobi map by ``project_to_jacobi``: the derivations
(traceless too when unimodular, which keeps tr ad = 0) or the closed
2-forms.  A try is rejected only when it comes out abelian, or when
closed torsion is asked for and the algebra has none.
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
from .invariant_geometry import LieFrameGeometry, _exterior_derivative
from .special_structures import _su3_real_form, standard_quaternion_triple

__all__ = [
    "project_to_jacobi",
    "random_geometry",
    "random_closed_torsion",
    "closed_3form_kernel",
    "random_orthogonal",
]

MAX_TRIES = 40
# singular values of a Jacobi map at or below NULL_RTOL times its largest
# one span its null space.  Rounding leaves a true null at a few 1e-16;
# a direction taken as null may carry a Jacobi defect up to this bound
# (at 1e-10, a near-degenerate 6-dim algebra passed on an almost
# derivation of defect 2e-13)
NULL_RTOL = 1e-14
LEVI_P = 1 / 3       # chance of a Levi factor, where one fits
NILPOTENT_P = 1 / 3  # chance that every extension is central
CENTRAL_P = 1 / 2    # otherwise, the chance of each extension


def _module(c: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """s + V with [s_a, v] = rho[a] v on V = R^m, for s = c and the
    representation rho, a (dim s, m, m) stack."""
    k, m = c.shape[0], rho.shape[1]
    out = np.zeros((k + m,) * 3)
    out[:k, :k, :k] = c
    out[k:, :k, k:] = np.transpose(rho, (1, 0, 2))   # [k + i, a, k + j] = rho[a, i, j]
    out[k:, k:, :k] = -np.transpose(rho, (1, 2, 0))
    return out


@lru_cache(maxsize=None)
def _levi_factors():
    """Read-only structure constants of the Levi-factor choices."""
    su2 = epsilon3()
    sl2 = su2 * np.array([1.0, -1.0, 1.0])[:, None, None]  # [e3, e1] = -e2
    su2su2 = np.zeros((6,) * 3)
    su2su2[:3, :3, :3] = su2su2[3:, 3:, 3:] = su2
    return tuple(_frozen(c) for c in (
        su2, sl2, su2su2, _su3_real_form()[0],
        _module(su2, np.transpose(su2, (1, 0, 2))),       # the adjoint action
        _module(su2, 0.5 * standard_quaternion_triple())))


def _derivation_map(c: np.ndarray, unimodular: bool) -> np.ndarray:
    """The linear map D -> D[x, y] - [Dx, y] - [x, Dy] on the packed pairs
    x < y, as a matrix on D.ravel() (D e_s = sum_r D[r, s] e_r), with the
    trace as one more row when unimodular."""
    k = c.shape[0]
    x, y = index_tuples(k, 2).T
    eye = np.eye(k)
    mat = (np.einsum("ar,sp->aprs", eye, c[:, x, y])
           - np.einsum("ps,arp->aprs", eye[x], c[:, :, y])
           - np.einsum("ps,apr->aprs", eye[y], c[:, x, :])).reshape(k * x.size, k * k)
    return np.vstack([mat, eye.reshape(1, -1)]) if unimodular else mat


def project_to_jacobi(jacobi_map: np.ndarray, candidate: np.ndarray) -> np.ndarray:
    """The orthogonal projection of the flat candidate datum onto the null
    space of the linear Jacobi map (one row per equation): a derivation
    from an endomorphism, or a closed 2-form from a 2-form.  The null
    space is spanned by the right singular vectors whose singular value
    is at most NULL_RTOL times the largest; the all-zero map (an abelian
    algebra's) keeps the candidate as it is."""
    if not jacobi_map.any():
        return candidate
    _, s, vt = np.linalg.svd(jacobi_map)
    null = vt[np.count_nonzero(s > NULL_RTOL * s[0]):]
    return null.T @ (null @ candidate)


def _extend(rng: np.random.Generator, c: np.ndarray, unimodular: bool,
            central: bool) -> np.ndarray:
    """c extended by one dim, the new direction last: centrally by a
    random closed 2-form, or as R x_D g for a random derivation D; the
    datum is scaled to sup 1 unless it is zero."""
    k = c.shape[0]
    out = np.zeros((k + 1,) * 3)
    out[:k, :k, :k] = c
    if central:
        x, y = index_tuples(k, 2).T
        w = (project_to_jacobi(_exterior_derivative(c, 2, np.eye(x.size)).T,
                               rng.standard_normal(x.size)) if k >= 2 else np.zeros(0))
        sup = np.abs(w).max(initial=0.0)
        out[k, x, y] = w / sup if sup else w
        out[k, y, x] = -out[k, x, y]
    else:
        D = project_to_jacobi(_derivation_map(c, unimodular),
                              rng.standard_normal(k * k)).reshape(k, k)
        sup = np.abs(D).max(initial=0.0)
        out[:k, k, :k] = D / sup if sup else D
        out[:k, :k, k] = -out[:k, k, :k]
    return out


def _random_frame(rng: np.random.Generator, c: np.ndarray) -> np.ndarray:
    """c in the basis f_b = sum_p e_p A[p, b] for a random A = U diag(s),
    U orthogonal and s in [1, e], as three matmuls; then scaled to sup|c|
    in [0.5, 1.5].  Read as orthonormal, f has the generic metric
    (A A^T)^-1; a further orthogonal factor on the right would only
    rotate f isometrically."""
    n = c.shape[0]
    s = np.exp(rng.random(n))
    U = random_orthogonal(rng, n)
    A, A_inv = U * s, (U / s).T
    t = (c.reshape(n * n, n) @ A).reshape(n, n, n)                        # [m, p, c]
    t = (np.swapaxes(t, 1, 2).reshape(n * n, n) @ A).reshape(n, n, n)     # [m, c, b]
    t = (A_inv @ t.reshape(n, n * n)).reshape(n, n, n)                    # [a, c, b]
    c = 0.5 * (np.swapaxes(t, 1, 2) - t)
    sup = np.abs(c).max()
    return c * (rng.uniform(0.5, 1.5) / sup) if sup else c


def _random_structure(rng: np.random.Generator, dim: int,
                      unimodular: bool) -> np.ndarray:
    """Structure constants of a random Lie algebra of dim >= 1 (abelian
    where every one is, or by chance when all data come out zero)."""
    fits = [s for s in _levi_factors() if s.shape[0] <= dim]
    c = np.zeros((1, 1, 1))   # R, the one Lie algebra of dim 1
    if fits and rng.random() < LEVI_P:
        c = fits[rng.integers(len(fits))]
    nilpotent = rng.random() < NILPOTENT_P
    while c.shape[0] < dim:
        c = _extend(rng, c, unimodular, nilpotent or rng.random() < CENTRAL_P)
    return _random_frame(rng, c)


def random_geometry(rng: np.random.Generator, dim: int,
                    unimodular: bool = True,
                    closed_torsion: bool = False) -> LieFrameGeometry:
    """A random valid geometry: exact structure constants of a random Lie
    algebra (see the module docstring), unimodular if asked, plus a
    random antisymmetric torsion (optionally closed).

    A try is rejected when the algebra comes out abelian, or closed
    torsion is asked for and none is found, and RuntimeError is raised
    after MAX_TRIES rejected tries.  Every Lie algebra of dim 1, and
    every unimodular one of dim 2, is abelian, so those dims raise
    ValueError before the first try."""
    abelian_up_to = 2 if unimodular else 1
    if dim <= abelian_up_to:
        kind = "unimodular Lie algebra" if unimodular else "Lie algebra"
        raise ValueError(f"dim {dim}: every {kind} of dim <= {abelian_up_to} "
                         f"is abelian, and the sampler rejects abelian samples")
    for _ in range(MAX_TRIES):
        c = _random_structure(rng, dim, unimodular)
        if not c.any():
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
    keep the kernel threshold on the dense-component scale.  A singular
    value counts as zero at or below 1e-10 * sup|c|, so the kernel does
    not change when c is rescaled; c = 0 keeps every 3-form."""
    mat = _exterior_derivative(c, 3, np.eye(math.comb(c.shape[0], 3))).T
    if mat.shape[0]:
        _, s, vt = np.linalg.svd(mat)
    else:
        s, vt = np.zeros(0), np.eye(mat.shape[1])
    s = s * math.sqrt(math.factorial(4))
    null_mask = (np.concatenate([s, np.zeros(mat.shape[1] - s.size)])
                 <= 1e-10 * np.abs(c).max(initial=0.0))
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
