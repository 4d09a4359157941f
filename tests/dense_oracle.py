"""Dense reference implementations of the epsilon symbol, wedge, Hodge
star, the invariant exterior derivative and the sampler's
Levenberg-Marquardt Jacobian.

These are straightforward loops over sorted index tuples on dense
``(dim,) * p`` component arrays, written independently of the packed
tables in ``torsiongeo.frame_algebra``.  They are slow (cost grows as
dim^p) and serve only as an oracle for the tests.
"""

import itertools

import numpy as np


def parity(seq) -> int:
    """Sign of the permutation sorting a sequence of distinct ints."""
    seq = list(seq)
    inversions = sum(1 for i in range(len(seq)) for j in range(i + 1, len(seq))
                     if seq[i] > seq[j])
    return -1 if inversions % 2 else 1


def epsilon(dim: int, sign: int = 1) -> np.ndarray:
    """The dense dim-index epsilon symbol, eps[0, 1, ..., dim-1] = sign."""
    eps = np.zeros((dim,) * dim)
    for perm in itertools.permutations(range(dim)):
        eps[perm] = sign * parity(perm)
    return eps


def fill_antisymmetric(comp: np.ndarray, combo, value: float):
    """Write value at the sorted tuple combo and its signed permutations."""
    for perm in itertools.permutations(range(len(combo))):
        comp[tuple(combo[k] for k in perm)] = parity(perm) * value


def wedge(a: np.ndarray, b: np.ndarray, dim: int) -> np.ndarray:
    """(a ^ b)_{K} = sum over shuffles S + R of K of sign * a_{K[S]} b_{K[R]}."""
    p, q = a.ndim, b.ndim
    r = p + q
    comp = np.zeros((dim,) * r)
    for combo in itertools.combinations(range(dim), r):
        val = 0.0
        for s in itertools.combinations(range(r), p):
            rest = tuple(k for k in range(r) if k not in s)
            val += parity(s + rest) * a[tuple(combo[k] for k in s)] \
                * b[tuple(combo[k] for k in rest)]
        fill_antisymmetric(comp, combo, val)
    return comp


def hodge_star(a: np.ndarray, dim: int, sign: int = 1) -> np.ndarray:
    """(*a)_{J} = parity(I + J) a_{I} for I the complement of J."""
    r = dim - a.ndim
    comp = np.zeros((dim,) * r)
    for combo in itertools.combinations(range(dim), r):
        complement = tuple(k for k in range(dim) if k not in combo)
        fill_antisymmetric(comp, combo,
                           sign * parity(complement + combo) * a[complement])
    return comp


def d_invariant(a: np.ndarray, c: np.ndarray) -> np.ndarray:
    """(d a)_{b0..bp} = sum_{i<j} (-1)^{i+j} c^e_{bi bj} a_{e, rest}."""
    dim, r = c.shape[0], a.ndim + 1
    comp = np.zeros((dim,) * r)
    for combo in itertools.combinations(range(dim), r):
        val = 0.0
        for i in range(r):
            for j in range(i + 1, r):
                rest = tuple(combo[k] for k in range(r) if k not in (i, j))
                val += (-1) ** (i + j) * np.dot(c[:, combo[i], combo[j]],
                                                a[(slice(None),) + rest])
        fill_antisymmetric(comp, combo, val)
    return comp


def lm_jacobian(c: np.ndarray, unimodular: bool) -> np.ndarray:
    """Jacobian of the sampler's packed Jacobi residual (and, if
    unimodular, the traces c^a_{ba}) with respect to the independent
    entries c[a, b, cc], b < cc, a-major: the derivative of the full
    (dim,)*4 Jacobi tensor along every stacked coordinate direction,
    restricted to the sorted triples afterwards."""
    dim = c.shape[0]
    pairs = list(itertools.combinations(range(dim), 2))
    basis = np.zeros((dim * len(pairs),) + (dim,) * 3)
    for n, (a, (b, cc)) in enumerate(itertools.product(range(dim), pairs)):
        basis[n, a, b, cc] = 1.0
        basis[n, a, cc, b] = -1.0
    t = (np.einsum("xpij,mpk->xmijk", basis, c)
         + np.einsum("pij,xmpk->xmijk", c, basis))
    dres = (t + np.einsum("xmijk->xmjki", t)
            + np.einsum("xmijk->xmkij", t))
    i, j, k = np.array(list(itertools.combinations(range(dim), 3)),
                       dtype=np.intp).reshape(-1, 3).T
    cols = dres[:, :, i, j, k].reshape(basis.shape[0], -1)
    if unimodular:
        cols = np.concatenate([cols, np.einsum("xaba->xb", basis)], axis=1)
    return cols.T
