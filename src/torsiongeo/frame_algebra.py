"""Exterior algebra on components in an orthonormal frame.

All tensors live in a fixed orthonormal frame, so the metric is the
identity and index position is purely notational.  A p-form ``chi``
represents ``(1/p!) chi_{i1..ip} e^{i1} ^ ... ^ e^{ip}``.

Forms are stored packed: only the C(dim, p) coefficients on strictly
increasing index tuples, in lexicographic order (the storage idiom of
SageMath's ``CompFullyAntiSym``).  Every operation is a gather or a
small signed sum over three index/sign tables, built on first use and
cached: ``_expansion`` (the dense positions of each packed tuple's
permutations: ``.components`` and, through its identity column, the
packing of dense input), ``_shuffles`` (the splits of a tuple into two
increasing parts: ``wedge``, ``hodge_star``) and ``_splits`` (a tuple's
k chosen slots against its packed rest: the interior-product scatter,
and in ``invariant_geometry`` the covariant derivative, the
codifferential and the exterior derivative).  Dense ``(dim,) * p``
arrays appear only at the API edge: a FrameTensor built from one checks
antisymmetry once and packs it, and ``.components`` expands back on
demand.  FrameTensor holds forms only; tensors without antisymmetry
(connections, curvature, covariant derivatives) are plain arrays.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import InitVar, dataclass, field
from functools import cached_property, lru_cache

import numpy as np

__all__ = [
    "FrameTensor",
    "wedge",
    "wedge_top_coefficient",
    "interior_product",
    "form_inner",
    "hodge_star",
    "volume_form",
    "top_coefficient",
    "zero_form",
    "basis_form",
    "basis_vector",
    "antisymmetrize",
    "index_tuples",
    "epsilon3",
    "frame_change",
]


@lru_cache(maxsize=None)
def _signed_permutations(rank: int):
    """All permutations of range(rank) with their signs, as arrays."""
    perms = list(itertools.permutations(range(rank)))
    perms = np.array(perms, dtype=np.intp).reshape(len(perms), rank)
    return _frozen(perms), _frozen(_parity(perms))


def _antisym_over(arr: np.ndarray, slots) -> np.ndarray:
    """Weight-one antisymmetrization of the selected slots of an array."""
    slots = list(slots)
    perms, signs = _signed_permutations(len(slots))
    out = np.zeros_like(arr, dtype=np.float64)
    for perm, sign in zip(perms, signs):
        order = list(range(arr.ndim))
        for pos, k in enumerate(perm):
            order[slots[pos]] = slots[k]
        # adding -x is subtracting x: the same bits as sign * x, one pass less
        if sign > 0:
            out += np.transpose(arr, order)
        else:
            out -= np.transpose(arr, order)
    return out / math.factorial(len(slots))


def antisymmetrize(arr: np.ndarray) -> np.ndarray:
    """Weight-one antisymmetrization over all indices of a square array."""
    return _antisym_over(arr, range(arr.ndim))


# ---------------------------------------------------------------------------
# index tables: a packed p-form on dim n has one coefficient per row of
# index_tuples(n, p); the tables map those rows to each other


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@lru_cache(maxsize=None)
def _binomials(n: int) -> np.ndarray:
    """C(m, k) for 0 <= m, k <= n (zero for k > m)."""
    return _frozen(np.array([[math.comb(m, k) for k in range(n + 1)]
                             for m in range(n + 1)], dtype=np.intp))


def _rank(n: int, idx: np.ndarray) -> np.ndarray:
    """Lexicographic position of strictly increasing tuples (last axis)
    among all tuples of that length drawn from range(n)."""
    # C(n, p) - 1 minus the sum_k C(n - 1 - i_k, p - k) tuples after it:
    # exact where C(n, p) fits intp (flat positions overflow at n**p > 2**63)
    p = idx.shape[-1]
    after = _binomials(n)[n - 1 - idx, np.arange(p, 0, -1)].sum(axis=-1)
    return math.comb(n, p) - 1 - after


def _parity(seq: np.ndarray) -> np.ndarray:
    """Sign (+1.0/-1.0) of the permutation sorting each row (last axis)
    of distinct integers."""
    k = seq.shape[-1]
    upper = np.triu(np.ones((k, k), dtype=bool), 1)
    inversions = ((seq[..., :, None] > seq[..., None, :]) & upper).sum(axis=(-2, -1))
    return 1.0 - 2.0 * (inversions % 2)


def _complements(tuples: np.ndarray, n: int) -> np.ndarray:
    """Increasing complement in range(n) of each row of distinct indices."""
    member = np.zeros((tuples.shape[0], n), dtype=bool)
    member[np.arange(tuples.shape[0])[:, None], tuples] = True
    rest = np.sort(np.where(member, n, np.arange(n)), axis=1)
    return rest[:, :n - tuples.shape[1]]


@lru_cache(maxsize=None)
def index_tuples(dim: int, rank: int) -> np.ndarray:
    """The strictly increasing index tuples a packed ``rank``-form stores
    its coefficients on, one per row, in lexicographic order."""
    rows = list(itertools.combinations(range(dim), rank))
    return _frozen(np.array(rows, dtype=np.intp).reshape(len(rows), rank))


def _flat(n: int, idx: np.ndarray) -> np.ndarray:
    """Row-major flat position of index tuples (last axis) in (n,)*p."""
    p = idx.shape[-1]
    return idx @ (n ** np.arange(p - 1, -1, -1, dtype=np.intp))


@lru_cache(maxsize=None)
def _expansion(n: int, p: int):
    """Flat dense positions of every permutation of every packed tuple,
    shape (C(n,p), p!), and the permutation signs, shape (p!,)."""
    perms, signs = _signed_permutations(p)
    return _frozen(_flat(n, index_tuples(n, p)[:, perms])), signs


@lru_cache(maxsize=None)
def _shuffles(n: int, p: int, q: int):
    """For each packed (p+q)-tuple K and each increasing split of its
    positions into S (size p) and R (size q): the packed indices of K[S]
    and K[R], shape (C(n,p+q), C(p+q,p)) each, and the sign of the
    shuffle permutation S + R."""
    K = index_tuples(n, p + q)
    S = index_tuples(p + q, p)
    R = _complements(S, p + q)
    return (_frozen(_rank(n, K[:, S])), _frozen(_rank(n, K[:, R])),
            _frozen(_parity(np.concatenate([S, R], axis=1))))


@lru_cache(maxsize=None)
def _splits(n: int, q: int, k: int):
    """For each increasing k-subset S of the q slots (row of
    index_tuples(q, k)) and each packed q-tuple K: the flat position of
    entry [K minus K_S, K_S] in a (C(n, q-k), n**k) array, shape
    (C(q, k), C(n, q)), and the sign (-1)^(sum S), a (C(q, k), 1) column.
    At k = 1 the sign is that of moving K_s to the front of K."""
    K = index_tuples(n, q)
    S = index_tuples(q, k)
    rest = _rank(n, K[:, _complements(S, q)])
    return (_frozen((rest * n ** k + _flat(n, K[:, S])).T.copy()),
            _frozen(1.0 - 2.0 * (S.sum(axis=1, keepdims=True) % 2)))


def _split_sum(slots: np.ndarray, sign: np.ndarray) -> np.ndarray:
    """sum_S sign[S] * slots[..., S, :] over the second-to-last axis,
    added onto +0.0 (so an exact zero is +0.0), in order wherever there
    are fewer than 8 S."""
    return np.add.reduce(slots * sign, axis=-2, initial=0.0)


def _interior_matrix(n: int, p: int, coeffs: np.ndarray) -> np.ndarray:
    """The (C(n, p-1), n) matrices whose column i holds the packed
    coefficients of iota_{e_i} chi, for packed p-form coefficients on
    the last axis of ``coeffs`` (leading axes are kept): entry [J, i] is
    chi_{iJ}, zero where i is in J.  One scatter through
    ``_splits(n, p, 1)``, which hits every (J, i) with i outside J once,
    for p >= 1; ``interior_product`` is its product with the vector."""
    pos, sign = _splits(n, p, 1)
    rows = math.comb(n, p - 1)
    out = np.zeros(coeffs.shape[:-1] + (rows * n,))
    out[..., pos] = sign * coeffs[..., None, :]
    return out.reshape(coeffs.shape[:-1] + (rows, n))


def _expand(n: int, p: int, coeffs: np.ndarray) -> np.ndarray:
    """Dense (n,)*p expansion of the packed last axis of ``coeffs``."""
    flat, signs = _expansion(n, p)
    lead = coeffs.shape[:-1]
    dense = np.zeros(lead + (n ** p,))
    dense[..., flat.ravel()] = (coeffs[..., None] * signs).reshape(lead + (-1,))
    return dense.reshape(lead + (n,) * p)


# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class FrameTensor:
    """A p-form in an orthonormal frame, stored packed.

    Build it from its ``dense`` components of shape ``(dim,) * rank``,
    or from its packed ``coeffs`` (one per row of ``index_tuples(dim,
    rank)``).  Dense input must be totally antisymmetric, verified once
    on construction (sign flip under every adjacent transposition, which
    is equivalent to full antisymmetry); the form keeps only its packed
    coefficients and ``.components`` is their read-only dense expansion,
    computed on first access.
    """

    dim: int
    rank: int
    dense: InitVar[np.ndarray | None] = None
    coeffs: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self, dense):
        n, p = self.dim, self.rank
        if self.coeffs is not None:
            if dense is not None:
                raise ValueError("give dense components or packed coeffs, not both")
            coeffs = np.array(self.coeffs, dtype=np.float64)
            if coeffs.shape != (math.comb(n, p),):
                raise ValueError(f"packed coefficients of shape {coeffs.shape}, "
                                 f"expected ({math.comb(n, p)},)")
            if not np.isfinite(coeffs).all():
                raise ValueError("non-finite component encountered")
        else:
            comp = np.asarray(dense, dtype=np.float64)
            if comp.shape != (n,) * p:
                raise ValueError(
                    f"components shape {comp.shape} does not match dim^rank "
                    f"= {(n,) * p}"
                )
            if not np.isfinite(comp).all():
                raise ValueError("non-finite component encountered")
            if p >= 2:
                # relative with an absolute floor, so numerically-zero arrays
                # (e.g. interior products with kernel vectors) are accepted
                scale = max(float(np.abs(comp).max()), 1.0)
                for k in range(p - 1):
                    axes = list(range(p))
                    axes[k], axes[k + 1] = axes[k + 1], axes[k]
                    if np.abs(comp + np.transpose(comp, axes)).max() > 1e-12 * scale:
                        raise ValueError(
                            f"components not antisymmetric under swap of slots "
                            f"{k},{k + 1}"
                        )
            # the identity permutation is column 0 of the expansion
            coeffs = comp.reshape(-1)[_expansion(n, p)[0][:, 0]]
        object.__setattr__(self, "coeffs", _frozen(coeffs))

    @cached_property
    def components(self) -> np.ndarray:
        """Read-only dense (dim,)*rank components, expanded on first access."""
        if self.rank <= 1:
            return self.coeffs.reshape((self.dim,) * self.rank)
        return _frozen(_expand(self.dim, self.rank, self.coeffs))

    @property
    def sup_norm(self) -> float:
        if self.coeffs.size == 0:
            return 0.0
        return float(np.abs(self.coeffs).max())

    def _combine(self, other: "FrameTensor", op) -> "FrameTensor":
        self._check_like(other)
        return FrameTensor(self.dim, self.rank, coeffs=op(self.coeffs, other.coeffs))

    def __add__(self, other: "FrameTensor") -> "FrameTensor":
        return self._combine(other, np.add)

    def __sub__(self, other: "FrameTensor") -> "FrameTensor":
        return self._combine(other, np.subtract)

    def __rmul__(self, scalar: float) -> "FrameTensor":
        return FrameTensor(self.dim, self.rank, coeffs=float(scalar) * self.coeffs)

    def __neg__(self) -> "FrameTensor":
        return -1.0 * self

    def _check_like(self, other: "FrameTensor"):
        if not isinstance(other, FrameTensor):
            raise TypeError("expected FrameTensor")
        if other.dim != self.dim or other.rank != self.rank:
            raise ValueError("dim/rank mismatch")


def zero_form(dim: int, rank: int) -> FrameTensor:
    return FrameTensor(dim, rank, coeffs=np.zeros(math.comb(dim, rank)))


def basis_form(dim: int, indices) -> FrameTensor:
    """The unit form e^{i1} ^ ... ^ e^{ip} for distinct 0-based indices."""
    # indexing range(dim) wraps negative and rejects out-of-range indices
    idx = np.arange(dim)[list(indices)]
    if len(set(idx.tolist())) != idx.size:
        raise ValueError("basis form indices must be distinct")
    coeffs = np.zeros(math.comb(dim, idx.size))
    coeffs[_rank(dim, np.sort(idx))] = _parity(idx)
    return FrameTensor(dim, idx.size, coeffs=coeffs)


def basis_vector(dim: int, index: int) -> FrameTensor:
    coeffs = np.zeros(dim)
    coeffs[index] = 1.0
    return FrameTensor(dim, 1, coeffs=coeffs)


def epsilon3() -> np.ndarray:
    """A writable copy of the 3-index epsilon symbol, eps[0, 1, 2] = 1."""
    return _expand(3, 3, np.ones(1))


def frame_change(T: np.ndarray, O: np.ndarray) -> np.ndarray:
    """Dense T in the frame e'_a = e_b O_{ba}: T'_{ab..} = O_{Aa} O_{Bb} .. T_{AB..},
    by one matmul per slot that contracts the leading slot and appends the
    new index last (einsum(optimize=True)'s contraction order, bit for bit)."""
    n, rank = O.shape[0], T.ndim
    for _ in range(rank):
        T = T.reshape(n, -1).T @ O
    return T.reshape((n,) * rank)


def _orientation(sign: int) -> int:
    """The orientation sign: eps_{01...} = sign, which must be +1 or -1."""
    if sign not in (1, -1):
        raise ValueError("orientation sign must be +1 or -1")
    return sign


def wedge(chi: FrameTensor, psi: FrameTensor) -> FrameTensor:
    """Wedge product of a p-form and a q-form.

    Components are ``(p+q)!/(p! q!)`` times the antisymmetrized tensor
    product, so for a 1-form and a 2-form the (i1,i2,i3) component is
    ``chi_{i1} psi_{i2 i3} + cyclic``.  Degrees p + q beyond dim give
    the rank-(p+q) form with no coefficients (the zero form it is).
    """
    if chi.dim != psi.dim:
        raise ValueError("wedge: dimension mismatch")
    p, q, n = chi.rank, psi.rank, chi.dim
    left, right, sign = _shuffles(n, p, q)
    return FrameTensor(n, p + q, coeffs=(chi.coeffs[left] * psi.coeffs[right]) @ sign)


def wedge_top_coefficient(chi: FrameTensor, psi: FrameTensor, sign: int = 1) -> float:
    """Coefficient c in chi ^ psi = c * volume, for p + q = dim."""
    if chi.rank + psi.rank != chi.dim:
        raise ValueError("wedge_top_coefficient needs p + q = dim")
    _, rest, parity = _shuffles(chi.dim, chi.rank, psi.rank)
    return float((parity * chi.coeffs) @ psi.coeffs[rest[0]]) * _orientation(sign)


def interior_product(v: FrameTensor, chi: FrameTensor) -> FrameTensor:
    """(iota_v chi)_{i2..ip} = v^j chi_{j i2..ip}."""
    if v.rank != 1:
        raise ValueError("interior product needs a vector (rank-1) first argument")
    if chi.rank < 1:
        raise ValueError("interior product of a 0-form is undefined")
    if v.dim != chi.dim:
        raise ValueError("dimension mismatch")
    return FrameTensor(chi.dim, chi.rank - 1,
                       coeffs=_interior_matrix(chi.dim, chi.rank, chi.coeffs) @ v.coeffs)


def form_inner(chi: FrameTensor, psi: FrameTensor) -> float:
    """(chi, psi) = (1/p!) chi_{i1..ip} psi_{i1..ip}: the dot product of
    the packed coefficients."""
    if chi.rank != psi.rank:
        raise ValueError("form_inner: rank mismatch")
    if chi.dim != psi.dim:
        raise ValueError("form_inner: dimension mismatch")
    return float(chi.coeffs @ psi.coeffs)


def hodge_star(chi: FrameTensor, sign: int = 1) -> FrameTensor:
    """(*chi)_{j1..j(n-p)} = (1/p!) chi^{i1..ip} eps_{i1..ip j1..j(n-p)}.

    Each packed (n-p)-tuple J takes the coefficient of its complement I
    times the parity of I + J; satisfies ** = (-1)^{p(n-p)} in this
    Riemannian setting.
    """
    n, p = chi.dim, chi.rank
    if p > n:
        raise ValueError("form degree exceeds dimension")
    # the shuffles of the one top-degree tuple pair each J with its
    # complement I and the parity of J + I; moving I in front of J costs
    # (-1)^{p(n-p)}
    _, rest, parity = _shuffles(n, n - p, p)
    scale = (-1.0) ** (p * (n - p)) * _orientation(sign)
    return FrameTensor(n, n - p, coeffs=chi.coeffs[rest[0]] * (parity * scale))


def volume_form(dim: int, sign: int = 1) -> FrameTensor:
    """The unit volume form in the given orientation."""
    return FrameTensor(dim, dim, coeffs=np.array([float(_orientation(sign))]))


def top_coefficient(chi: FrameTensor, sign: int = 1) -> float:
    """Coefficient of the volume form in a top-degree form."""
    if chi.rank != chi.dim:
        raise ValueError("top_coefficient needs a top-degree form")
    return float(chi.coeffs[0]) * _orientation(sign)
