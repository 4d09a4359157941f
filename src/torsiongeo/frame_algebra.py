"""Exterior algebra on components in an orthonormal frame.

All tensors live in a fixed orthonormal frame, so the metric is the
identity and index position is purely notational.  A p-form ``chi``
represents ``(1/p!) chi_{i1..ip} e^{i1} ^ ... ^ e^{ip}``.

Forms are stored packed: only the C(dim, p) coefficients on strictly
increasing index tuples, in lexicographic order (the storage idiom of
SageMath's ``CompFullyAntiSym``).  Every operation is a gather or a
small signed sum over per-(dim, p) index/sign tables, built on first use
and cached.  Dense ``(dim,) * p`` arrays appear only at the API edge: a
FrameTensor built from one checks antisymmetry once and packs it, and
``.components`` expands back on demand.  Tensors without antisymmetry
(connections, curvature, covariant derivatives) stay dense.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import InitVar, dataclass, field
from functools import lru_cache

import numpy as np

__all__ = [
    "FrameTensor",
    "EpsilonOrientation",
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
    "derivation_matrix",
]


@lru_cache(maxsize=None)
def _signed_permutations(rank: int):
    """All permutations of range(rank) with their signs, as arrays."""
    perms = list(itertools.permutations(range(rank)))
    perms = np.array(perms, dtype=np.intp).reshape(len(perms), rank)
    return _frozen(perms), _frozen(_parity(perms))


def antisymmetrize(arr: np.ndarray) -> np.ndarray:
    """Weight-one antisymmetrization over all indices of a square array."""
    rank = arr.ndim
    if rank <= 1:
        return arr.copy()
    perms, signs = _signed_permutations(rank)
    out = np.zeros_like(arr, dtype=np.float64)
    for perm, sign in zip(perms, signs):
        out += sign * np.transpose(arr, perm)
    return out / math.factorial(rank)


# ---------------------------------------------------------------------------
# index tables: a packed p-form on dim n has one coefficient per row of
# index_tuples(n, p); the tables map those rows to each other


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@lru_cache(maxsize=None)
def _binomials(n: int) -> np.ndarray:
    """C(a, b) for 0 <= a <= n and 0 <= b <= n + 1."""
    return _frozen(np.array([[math.comb(a, b) for b in range(n + 2)]
                             for a in range(n + 1)], dtype=np.intp))


def _rank(n: int, idx: np.ndarray) -> np.ndarray:
    """Lexicographic position of strictly increasing tuples (last axis)
    among all tuples of that length drawn from range(n)."""
    p = idx.shape[-1]
    # i -> n-1-i turns lexicographic into reversed colexicographic order,
    # whose rank is the combinatorial number system sum_k C(s_k, k+1)
    s = (n - 1 - idx)[..., ::-1]
    colex = _binomials(n)[s, np.arange(1, p + 1)].sum(axis=-1)
    return math.comb(n, p) - 1 - colex


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
def _packing(n: int, p: int) -> np.ndarray:
    """Flat dense position of each packed tuple."""
    return _frozen(_flat(n, index_tuples(n, p)))


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
def _complement_table(n: int, p: int):
    """For each packed p-tuple S: the packed index of its complement C
    among the (n-p)-tuples and the sign of the permutation S + C."""
    S = index_tuples(n, p)
    C = _complements(S, n)
    return _frozen(_rank(n, C)), _frozen(_parity(np.concatenate([S, C], axis=1)))


def _insertions(n: int, J: np.ndarray):
    """For each row of increasing indices J and each j outside it: j, the
    packed index of the sorted tuple {j} u J, and the sign (-1)^#{J < j}
    of moving j from the front into place; each of shape
    (len(J), n - J.shape[1])."""
    js = _complements(J, n)
    before = (J[:, None, :] < js[:, :, None]).sum(axis=-1)
    union = np.concatenate(
        [np.broadcast_to(J[:, None, :], js.shape + J.shape[1:]), js[:, :, None]], axis=-1)
    return js, _rank(n, np.sort(union, axis=-1)), 1.0 - 2.0 * (before % 2)


@lru_cache(maxsize=None)
def _contractions(n: int, p: int):
    """_insertions over the packed (p-1)-tuples: the gather table of the
    interior product of p-forms."""
    return tuple(_frozen(a) for a in _insertions(n, index_tuples(n, p - 1)))


@lru_cache(maxsize=None)
def _derivation_table(n: int, p: int):
    """Index table of derivation_matrix on packed p-forms, p >= 1.  One
    entry per packed (p+1)-tuple K, position pair i < j of K and index e
    outside the rest R = K minus {K_i, K_j}: the flat position
    (K, {e} u R) in the C(n,p+1) x C(n,p) matrix, the bracket indices
    (e, K_i, K_j) and the sign (-1)^{i+j} (-1)^{#(R < e)}."""
    K = index_tuples(n, p + 1)
    pairs = index_tuples(p + 1, 2)
    rest = K[:, _complements(pairs, p + 1)].reshape(K.shape[0] * pairs.shape[0], p - 1)
    es, cols, moved = _insertions(n, rest)
    shape = (K.shape[0], pairs.shape[0], es.shape[1])
    rows = np.arange(K.shape[0])[:, None, None]
    sign = (-1.0) ** pairs.sum(axis=1)[None, :, None] * moved.reshape(shape)
    flat = rows * math.comb(n, p) + cols.reshape(shape)
    bi, bj = K[:, pairs[:, 0], None], K[:, pairs[:, 1], None]
    return tuple(_frozen(np.broadcast_to(a, shape).ravel())
                 for a in (flat, es.reshape(shape), bi, bj, sign))


def derivation_matrix(c: np.ndarray, p: int) -> np.ndarray:
    """Matrix, shape (C(n,p+1), C(n,p)), on packed p-forms of the
    degree-one derivation sending e^a to -(1/2) c[a, b, c] e^b ^ e^c:

    (D chi)_{b0..bp} = sum_{i<j} (-1)^{i+j} c[e, bi, bj] chi_{e, rest}.

    For the structure constants of a Lie algebra this is the exterior
    derivative of invariant forms (Maurer-Cartan).
    """
    n = c.shape[0]
    shape = (math.comb(n, p + 1), math.comb(n, p))
    if p == 0 or shape[0] == 0:
        return np.zeros(shape)
    flat, e, bi, bj, sign = _derivation_table(n, p)
    return np.bincount(flat, weights=c[e, bi, bj] * sign,
                       minlength=shape[0] * shape[1]).reshape(shape)


def _expand(n: int, p: int, coeffs: np.ndarray) -> np.ndarray:
    flat, signs = _expansion(n, p)
    dense = np.zeros((n,) * p)
    dense.flat[flat.ravel()] = (coeffs[:, None] * signs).ravel()
    return dense


# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class FrameTensor:
    """Multi-index component array in an orthonormal frame.

    Build it from dense ``components`` of shape ``(dim,) * rank``, or,
    for a form, from its packed ``coeffs`` (one per row of
    ``index_tuples(dim, rank)``).  ``antisymmetric=True`` asserts total
    antisymmetry of dense input, verified once on construction (sign
    flip under every adjacent transposition, which is equivalent to full
    antisymmetry); the form keeps only its packed coefficients and
    ``.components`` is their read-only dense expansion, computed on first
    access.  With ``antisymmetric=False`` the dense array is stored as is.
    """

    dim: int
    rank: int
    components: InitVar[np.ndarray | None] = None
    antisymmetric: bool = True
    coeffs: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self, components):
        n, p = self.dim, self.rank
        if self.coeffs is not None:
            if components is not None:
                raise ValueError("give dense components or packed coeffs, not both")
            if not self.antisymmetric:
                raise ValueError("packed coefficients describe an antisymmetric form")
            coeffs = np.array(self.coeffs, dtype=np.float64)
            if coeffs.shape != (math.comb(n, p),):
                raise ValueError(f"packed coefficients of shape {coeffs.shape}, "
                                 f"expected ({math.comb(n, p)},)")
            if not np.all(np.isfinite(coeffs)):
                raise ValueError("non-finite component encountered")
            self._store(coeffs, None)
            return
        comp = np.asarray(components, dtype=np.float64)
        if comp.shape != (n,) * p:
            raise ValueError(
                f"components shape {comp.shape} does not match dim^rank "
                f"= {(n,) * p}"
            )
        if not np.all(np.isfinite(comp)):
            raise ValueError("non-finite component encountered")
        if not self.antisymmetric:
            self._store(None, comp.copy())
            return
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
        self._store(comp.reshape(-1)[_packing(n, p)], None)

    def _store(self, coeffs, dense):
        if coeffs is not None:
            _frozen(coeffs)
            if self.rank <= 1:
                dense = coeffs.reshape((self.dim,) * self.rank)
        if dense is not None:
            _frozen(dense)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "_dense", dense)

    def _components(self) -> np.ndarray:
        if self._dense is None:
            object.__setattr__(self, "_dense",
                               _frozen(_expand(self.dim, self.rank, self.coeffs)))
        return self._dense

    @property
    def sup_norm(self) -> float:
        arr = self.coeffs if self.antisymmetric else self._dense
        if arr.size == 0:
            return 0.0
        return float(np.abs(arr).max())

    def _combine(self, other: "FrameTensor", op) -> "FrameTensor":
        self._check_like(other)
        if self.antisymmetric and other.antisymmetric:
            return FrameTensor(self.dim, self.rank, coeffs=op(self.coeffs, other.coeffs))
        return FrameTensor(self.dim, self.rank,
                           op(self.components, other.components), False)

    def __add__(self, other: "FrameTensor") -> "FrameTensor":
        return self._combine(other, np.add)

    def __sub__(self, other: "FrameTensor") -> "FrameTensor":
        return self._combine(other, np.subtract)

    def __rmul__(self, scalar: float) -> "FrameTensor":
        if self.antisymmetric:
            return FrameTensor(self.dim, self.rank, coeffs=float(scalar) * self.coeffs)
        return FrameTensor(self.dim, self.rank, float(scalar) * self.components, False)

    def __neg__(self) -> "FrameTensor":
        return -1.0 * self

    def _check_like(self, other: "FrameTensor"):
        if not isinstance(other, FrameTensor):
            raise TypeError("expected FrameTensor")
        if other.dim != self.dim or other.rank != self.rank:
            raise ValueError("dim/rank mismatch")


# ``components`` is an init-only argument of the dataclass; on instances
# it reads the dense array
FrameTensor.components = property(
    FrameTensor._components,
    doc="Read-only dense (dim,)*rank components (expanded once for forms).")


def _require_forms(name: str, *tensors: FrameTensor):
    if not all(t.antisymmetric for t in tensors):
        raise ValueError(f"{name} requires antisymmetric inputs")


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


@dataclass(frozen=True)
class EpsilonOrientation:
    """Orientation choice: the totally antisymmetric symbol scaled by sign.

    ``epsilon[0, 1, ..., dim-1] = sign``.  The dense symbol is built
    lazily (dim^dim entries; only sensible for small dims), all
    orientation-sensitive operations use index parities instead.
    """

    dim: int
    sign: int = 1
    _epsilon_cache: list = field(default_factory=list, repr=False, compare=False)

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise ValueError("orientation sign must be +1 or -1")
        if self.dim < 1:
            raise ValueError("dim must be positive")

    @property
    def epsilon(self) -> np.ndarray:
        if not self._epsilon_cache:
            eps = np.zeros((self.dim,) * self.dim)
            perms, signs = _signed_permutations(self.dim)
            eps[tuple(perms.T)] = self.sign * signs
            eps.setflags(write=False)
            self._epsilon_cache.append(eps)
        return self._epsilon_cache[0]

    def flipped(self) -> "EpsilonOrientation":
        return EpsilonOrientation(self.dim, -self.sign)


def wedge(chi: FrameTensor, psi: FrameTensor) -> FrameTensor:
    """Wedge product of a p-form and a q-form.

    Components are ``(p+q)!/(p! q!)`` times the antisymmetrized tensor
    product, so for a 1-form and a 2-form the (i1,i2,i3) component is
    ``chi_{i1} psi_{i2 i3} + cyclic``.  Degrees beyond dim give the zero
    form (which the product mathematically is).
    """
    if chi.dim != psi.dim:
        raise ValueError("wedge: dimension mismatch")
    _require_forms("wedge", chi, psi)
    p, q, n = chi.rank, psi.rank, chi.dim
    if p + q > n:
        return zero_form(n, 0)
    left, right, sign = _shuffles(n, p, q)
    return FrameTensor(n, p + q, coeffs=(chi.coeffs[left] * psi.coeffs[right]) @ sign)


def wedge_top_coefficient(chi: FrameTensor, psi: FrameTensor,
                          orient: EpsilonOrientation) -> float:
    """Coefficient c in chi ^ psi = c * volume, for p + q = dim."""
    if chi.rank + psi.rank != chi.dim:
        raise ValueError("wedge_top_coefficient needs p + q = dim")
    if orient.dim != chi.dim:
        raise ValueError("orientation dim mismatch")
    _require_forms("wedge_top_coefficient", chi, psi)
    rest, sign = _complement_table(chi.dim, chi.rank)
    return float((sign * chi.coeffs) @ psi.coeffs[rest]) * orient.sign


def interior_product(v: FrameTensor, chi: FrameTensor) -> FrameTensor:
    """(iota_v chi)_{i2..ip} = v^j chi_{j i2..ip}."""
    if v.rank != 1:
        raise ValueError("interior product needs a vector (rank-1) first argument")
    if chi.rank < 1:
        raise ValueError("interior product of a 0-form is undefined")
    if v.dim != chi.dim:
        raise ValueError("dimension mismatch")
    _require_forms("interior product", chi)
    js, union, sign = _contractions(chi.dim, chi.rank)
    coeffs = np.sum(v.components[js] * sign * chi.coeffs[union], axis=1)
    return FrameTensor(chi.dim, chi.rank - 1, coeffs=coeffs)


def form_inner(chi: FrameTensor, psi: FrameTensor) -> float:
    """(chi, psi) = (1/p!) chi_{i1..ip} psi_{i1..ip}: the dot product of
    the packed coefficients."""
    if chi.rank != psi.rank:
        raise ValueError("form_inner: rank mismatch")
    if chi.dim != psi.dim:
        raise ValueError("form_inner: dimension mismatch")
    _require_forms("form_inner", chi, psi)
    return float(chi.coeffs @ psi.coeffs)


def hodge_star(chi: FrameTensor, orient: EpsilonOrientation) -> FrameTensor:
    """(*chi)_{j1..j(n-p)} = (1/p!) chi^{i1..ip} eps_{i1..ip j1..j(n-p)}.

    Each packed (n-p)-tuple J takes the coefficient of its complement I
    times the parity of I + J; satisfies ** = (-1)^{p(n-p)} in this
    Riemannian setting.
    """
    if orient.dim != chi.dim:
        raise ValueError("orientation dim mismatch")
    _require_forms("hodge_star", chi)
    n, p = chi.dim, chi.rank
    if p > n:
        raise ValueError("form degree exceeds dimension")
    # the table gives the parity of J + I; moving I in front of J costs
    # (-1)^{p(n-p)}
    rest, sign = _complement_table(n, n - p)
    scale = (-1.0) ** (p * (n - p)) * orient.sign
    return FrameTensor(n, n - p, coeffs=chi.coeffs[rest] * (sign * scale))


def volume_form(orient: EpsilonOrientation) -> FrameTensor:
    """The unit volume form in the given orientation."""
    return FrameTensor(orient.dim, orient.dim, coeffs=np.array([float(orient.sign)]))


def top_coefficient(chi: FrameTensor, orient: EpsilonOrientation) -> float:
    """Coefficient of the volume form in a top-degree form."""
    if chi.rank != chi.dim:
        raise ValueError("top_coefficient needs a top-degree form")
    if orient.dim != chi.dim:
        raise ValueError("orientation dim mismatch")
    _require_forms("top_coefficient", chi)
    return float(chi.coeffs[0]) * orient.sign
