"""Dense reference implementations of the epsilon symbol, wedge, Hodge
star, the invariant exterior derivative and the codifferential +-*d*,
the sampler's Levenberg-Marquardt Jacobian, and the verifier kernels:
curvature, the covariant derivative, the two Bianchi residuals, the
Weitzenboeck rough term and curvature term, the Nijenhuis tensor, the
(3,0)+(0,3) projection and the G2 positivity matrix.

These are straightforward loops over sorted index tuples, or einsums, on
dense ``(dim,) * p`` component arrays, written independently of the
packed tables in ``torsiongeo.frame_algebra`` and of the matmul kernels
in ``torsiongeo``.  They are slow (cost grows as dim^p, the rough term
holds a (dim,)^5 array) and serve only as an oracle for the tests.
"""

import functools
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


@functools.lru_cache(maxsize=None)
def signed_permutations(r: int):
    """Every permutation of range(r) with its parity."""
    return [(perm, parity(perm)) for perm in itertools.permutations(range(r))]


def fill_antisymmetric(comp: np.ndarray, combo, value: float):
    """Write value at the sorted tuple combo and its signed permutations."""
    for perm, sign in signed_permutations(len(combo)):
        comp[tuple(combo[k] for k in perm)] = sign * value


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


def codifferential(a: np.ndarray, c: np.ndarray, sign: int = 1) -> np.ndarray:
    """delta a = (-1)^{n(p+1)+1} * d * a, both stars in the orientation
    ``sign``."""
    n, p = c.shape[0], a.ndim
    if p == n:
        # *a is a constant function, so d * a = 0
        return np.zeros((n,) * (p - 1))
    star_d_star = hodge_star(d_invariant(hodge_star(a, n, sign), c), n, sign)
    return (-1) ** (n * (p + 1) + 1) * star_d_star


def curvature(c: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """R_{ab}^c_d = G^c_{ae} G^e_{bd} - G^c_{be} G^e_{ad} - c^e_{ab} G^c_{ed}."""
    return (np.einsum("cae,ebd->abcd", gamma, gamma)
            - np.einsum("cbe,ead->abcd", gamma, gamma)
            - np.einsum("eab,ced->abcd", c, gamma))


def nabla(T: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """(nabla_a T)_{b1..bk} = - sum_s Gamma^e_{a b_s} T_{b1.. e ..bk},
    derivative slot first."""
    n = gamma.shape[0]
    out = np.zeros((n,) * (T.ndim + 1))
    letters = "bcdefghi"[:T.ndim]
    for s in range(T.ndim):
        src = letters[:s] + "z" + letters[s + 1:]
        out -= np.einsum(f"za{letters[s]},{src}->a{letters}", gamma, T)
    return out


def alt(arr: np.ndarray, slots) -> np.ndarray:
    """Weight-one antisymmetrization of the given slots of a dense array."""
    out = np.zeros_like(arr)
    for perm in itertools.permutations(range(len(slots))):
        order = list(range(arr.ndim))
        for pos, k in enumerate(perm):
            order[slots[pos]] = slots[k]
        out += parity(perm) * np.transpose(arr, order)
    return out / np.prod(np.arange(1, len(slots) + 1))


def first_bianchi(rhat: np.ndarray, nhatH: np.ndarray, dH: np.ndarray) -> np.ndarray:
    """3 R^_{i[jkm]} + nabla^_i H_{jkm} + (1/2) dH_{ijkm}, dense."""
    return 3.0 * alt(rhat, [1, 2, 3]) + nhatH + 0.5 * dH


def second_bianchi(rhat: np.ndarray, nhatH: np.ndarray, dH: np.ndarray) -> np.ndarray:
    """3 R^_{[ijk]m} + (3/2) nabla^_{[i} H_{jk]m} + (1/2) nabla^_m H_{ijk}
    + (1/2) dH_{ijkm}, dense."""
    return (3.0 * alt(rhat, [0, 1, 2]) + 1.5 * alt(nhatH, [0, 1, 2])
            + 0.5 * np.transpose(nhatH, (1, 2, 3, 0)) + 0.5 * dH)


def rough_laplacian(H: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """sum_a (nabla_a nabla_a H), the trace of the (dim,)^5 Hessian."""
    return np.einsum("aabcd->bcd", nabla(nabla(H, gamma), gamma))


def bochner_term(riem: np.ndarray, H: np.ndarray) -> np.ndarray:
    """Ric_a^k H_{bck} - 2 R_a^k_b^m H_{ckm} + cyclic(a, b, c), dense."""
    ric = np.einsum("kikj->ij", riem)
    t = (np.einsum("ak,bck->abc", ric, H)
         - 2.0 * np.einsum("akbm,ckm->abc", riem, H))
    return t + np.einsum("abc->bca", t) + np.einsum("abc->cab", t)


def nijenhuis(J: np.ndarray, c: np.ndarray) -> np.ndarray:
    """[JX,JY] - J[JX,Y] - J[X,JY] - [X,Y] on frame vectors."""
    return (np.einsum("pa,qb,mpq->mab", J, J, c)
            - np.einsum("mq,pa,qpb->mab", J, J, c)
            - np.einsum("mq,pb,qap->mab", J, J, c)
            - c)


def type_3_0_projection(H: np.ndarray, J: np.ndarray) -> np.ndarray:
    """(1/4)(H - H(J.,J.,.) - H(J.,.,J.) - H(.,J.,J.)), dense."""
    return 0.25 * (H - np.einsum("pa,qb,pqc->abc", J, J, H)
                   - np.einsum("pa,rc,pbr->abc", J, J, H)
                   - np.einsum("qb,rc,aqr->abc", J, J, H))


def bryant_positivity(phi: np.ndarray, sign: int = 1) -> np.ndarray:
    """B(X,Y) = (1/6) top coefficient of iota_X phi ^ iota_Y phi ^ phi,
    one pair of dense wedges per entry i <= j."""
    B = np.zeros((7, 7))
    for i in range(7):
        for j in range(i, 7):
            top = top_wedge(wedge(phi[i], phi[j], 7), phi)
            B[i, j] = B[j, i] = sign * top / 6.0
    return B


def top_wedge(a: np.ndarray, b: np.ndarray) -> float:
    """The (0, 1, ..., dim-1) component of a ^ b for a.ndim + b.ndim =
    dim: ``wedge``'s shuffle sum on the one top tuple."""
    p, r = a.ndim, a.ndim + b.ndim
    val = 0.0
    for s in itertools.combinations(range(r), p):
        rest = tuple(k for k in range(r) if k not in s)
        val += parity(s + rest) * a[s] * b[rest]
    return val
