"""Dense reference implementations of wedge, Hodge star and the invariant
exterior derivative.

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
