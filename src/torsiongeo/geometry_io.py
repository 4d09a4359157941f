"""JSON file formats.

Geometry files carry {name, dim, c, H} with c either a nested
dim x dim x dim array or a sparse entry list [[a, b, c, value], ...]
(0-based indices, one entry per independent component with b < c; the
antisymmetric completion is implied).  H is a sparse list
[[i, j, k, value], ...] with i < j < k.  Sparse values round-trip
bit-exactly.  Optional structure keys: I1/I2/I3 as sparse [[i, j,
value], ...] matrices (one structure needs an even dim, a triple a dim
divisible by 4; they load as a dim x dim "J" array or a (3, dim, dim)
"triple" stack), phi as a sparse 3-form list (dim 7), Phi as a sparse
4-form list (dim 8).  dim must be an integer in [1, MAX_DIM], every
index an integer in [0, dim) and every value a finite real number
(bools and strings are refused); anything else raises ValueError.  A
sparse field is read with one check pass over its indices, one over its
values and one ``np.add.at`` scatter, which adds in entry order, so
repeated and unsorted entries sum exactly as they would one at a time.
``save_geometry`` writes the file as one JSON line.  A geometry stores
c exactly antisymmetric, so every geometry, a rotated one included,
round-trips bit for bit.

``structures_from_dict`` reads these keys into a structures dict keyed
``triple``, ``J``, ``phi``, ``Phi`` (the dict catalog entries build), and
``structures_to_dict`` writes such a dict back, ``J`` as I1, so that
every key round-trips.
"""

from __future__ import annotations

import itertools
import json
import math

import numpy as np

from .frame_algebra import FrameTensor, _parity, _rank, index_tuples
from .invariant_geometry import LieFrameGeometry

__all__ = [
    "MAX_DIM",
    "geometry_to_dict",
    "geometry_from_dict",
    "load_geometry",
    "save_geometry",
    "sparse_form",
    "form_to_sparse",
    "structures_from_dict",
    "structures_to_dict",
]

# the largest dim a geometry file may declare, checked before anything is
# allocated: su(3) + su(2) has dim 11.  (2 vCPU, one BLAS thread, one
# tg verify --input after imports: 0.013 s and 29 -> 32 MB peak RSS on
# su(2)^4, dim 12; 0.03 s and 29 -> 36 MB on su(2)^5, dim 15; 0.03 s and
# 29 -> 38 MB on su(3) + su(3), dim 16; the same reports through the API
# take 0.1 s and 36 -> 72 MB on su(2)^8, dim 24, geom.dH 8 ms and +1 MB of it)
MAX_DIM = 16


def form_to_sparse(T: FrameTensor) -> list:
    """One entry per nonzero packed coefficient (strictly increasing
    index tuple, lexicographic order), value unchanged."""
    nonzero = np.flatnonzero(T.coeffs)
    rows = index_tuples(T.dim, T.rank)[nonzero].tolist()
    return [[*idx, val] for idx, val in zip(rows, T.coeffs[nonzero].tolist())]


def _is_integer(kind: type) -> bool:
    return issubclass(kind, (int, np.integer)) and not issubclass(kind, bool)


def _is_real(kind: type) -> bool:
    return issubclass(kind, (int, float)) and not issubclass(kind, bool)


def _integer(value, what: str) -> int:
    """An integer read from a file; floats (even 2.0) and bools are refused."""
    if not _is_integer(type(value)):
        raise ValueError(f"{what} {value!r} is not an integer")
    return int(value)


def _real(value, what: str) -> float:
    """A finite real number read from a file; bools and strings are refused."""
    if not _is_real(type(value)) or not math.isfinite(value):
        raise ValueError(f"{what} must be a finite real number, not {value!r}")
    return float(value)


def _reals(values, n: int, what: str) -> np.ndarray:
    """``n`` finite real numbers read from a file as one flat list (a
    tuple too); bools, strings and nested lists are refused.  The types
    are checked in one pass over the list, not one call per value."""
    if not isinstance(values, (list, tuple)) or len(values) != n:
        raise ValueError(f"expected a flat list of {n} numbers as {what} values")
    if all(_is_real(kind) for kind in set(map(type, values))):
        out = np.array(values, dtype=np.float64)
        if np.isfinite(out).all():
            return out
    bad = next(v for v in values if not _is_real(type(v)) or not math.isfinite(v))
    raise ValueError(f"{what} must be a finite real number, not {bad!r}")


def _sparse_entries(entries, arity: int, dim: int, what: str):
    """The entry list [[i_1, ..., i_arity, value], ...] of a sparse field
    as an (n, arity) intp index array and n float values.  Every index
    must be an integer in [0, dim) and every value a finite real number
    (``what`` names it in the error); the indices are checked in one
    pass over all of them, not one call per index."""
    if not isinstance(entries, (list, tuple)):
        raise ValueError(f"a sparse field must be a list of entries, not {entries!r}")
    if set(map(len, entries)) - {arity + 1}:
        bad = next(e for e in entries if len(e) != arity + 1)
        raise ValueError(f"sparse entry {bad} has wrong arity")
    columns = list(zip(*entries)) or [()] * (arity + 1)
    indices = list(itertools.chain.from_iterable(columns[:arity]))
    if not all(_is_integer(kind) for kind in set(map(type, indices))):
        bad = next(i for i in indices if not _is_integer(type(i)))
        raise ValueError(f"index {bad!r} is not an integer")
    if indices and not (min(indices) >= 0 and max(indices) < dim):
        bad = next(i for i in indices if not 0 <= i < dim)
        raise ValueError(f"index {bad!r} is not an integer in [0, {dim})")
    idx = np.array(indices, dtype=np.intp).reshape(arity, len(entries)).T
    return idx, _reals(columns[arity], len(entries), what)


def sparse_form(dim: int, rank: int, entries) -> FrameTensor:
    """The form sum(value * e^{i_1} ^ ... ^ e^{i_rank}) of a sparse entry
    list; an index tuple may come in any order and more than once."""
    idx, vals = _sparse_entries(entries, rank, dim, "form entry")
    ordered = np.sort(idx, axis=1)
    repeats = (ordered[:, 1:] == ordered[:, :-1]).any(axis=1)
    if repeats.any():
        raise ValueError(f"sparse entry {entries[np.argmax(repeats)]} repeats an index")
    coeffs = np.zeros(math.comb(dim, rank))
    # ufunc.at adds in entry order, as a sum of per-entry basis forms would
    np.add.at(coeffs, _rank(dim, ordered), vals * _parity(idx))
    return FrameTensor(dim, rank, coeffs=coeffs)


def _c_to_sparse(c: np.ndarray) -> list:
    pairs = index_tuples(c.shape[0], 2)
    lower = c[:, pairs[:, 0], pairs[:, 1]]
    rows, k = np.nonzero(lower)
    return [[a, b, cc, val] for a, (b, cc), val
            in zip(rows.tolist(), pairs[k].tolist(), lower[rows, k].tolist())]


def _nesting(value) -> int:
    """How many levels of lists the first element sits under."""
    depth = 0
    while isinstance(value, list) and value:
        value, depth = value[0], depth + 1
    return depth


def _c_from_field(dim: int, data) -> np.ndarray:
    if _nesting(data) >= 3:     # a nested dim x dim x dim array, not entries
        arr = np.asarray(data, dtype=object)
        return _reals(arr.ravel().tolist(), arr.size,
                      "structure constant").reshape(arr.shape)
    idx, vals = _sparse_entries(data, 3, dim, "structure constant")
    lower = idx[:, 1] == idx[:, 2]
    if lower.any():
        raise ValueError(f"structure-constant entry {data[np.argmax(lower)]} "
                         "repeats a lower index")
    # c[a, b, cc] += v, then c[a, cc, b] -= v, entry by entry: flat cells
    # (a, b, cc) and (a, cc, b) side by side, with values v and -v
    cells = idx @ np.array([[dim * dim, dim * dim], [dim, 1], [1, dim]])
    c = np.zeros((dim, dim, dim))
    np.add.at(c.reshape(-1), cells.ravel(), np.outer(vals, [1.0, -1.0]).ravel())
    return c


def geometry_to_dict(geom: LieFrameGeometry) -> dict:
    return {
        "name": geom.name,
        "dim": geom.dim,
        "c": _c_to_sparse(geom.c),
        "H": form_to_sparse(geom.H),
    }


def geometry_from_dict(data: dict) -> LieFrameGeometry:
    dim = _integer(data["dim"], "dim")
    if not 1 <= dim <= MAX_DIM:
        raise ValueError(f"dim {dim} is not in [1, {MAX_DIM}]")
    c = _c_from_field(dim, data.get("c", []))
    H = sparse_form(dim, 3, data.get("H", []))
    return LieFrameGeometry(dim, c, H, name=str(data.get("name", "")))


def structures_to_dict(structures: dict) -> dict:
    """Inverse of ``structures_from_dict``; a single J is written as I1."""
    if "triple" in structures and "J" in structures:
        raise ValueError("a file holds one complex structure or a triple, not both")
    mats = [structures["J"]] if "J" in structures else structures.get("triple", ())
    out = {key: [[int(i), int(j), float(J[i, j])] for i, j in zip(*np.nonzero(J))]
           for key, J in zip(("I1", "I2", "I3"), mats)}
    out.update({key: form_to_sparse(structures[key])
                for key in ("phi", "Phi") if key in structures})
    return out


def structures_from_dict(data: dict, dim: int) -> dict:
    out = {}
    mats = []
    for key in ("I1", "I2", "I3"):
        if key in data:
            idx, vals = _sparse_entries(data[key], 2, dim, f"{key} entry")
            J = np.zeros((dim, dim))
            # entry by entry, so that a repeated (i, j) keeps its last value
            for (i, j), val in zip(idx.tolist(), vals.tolist()):
                J[i, j] = val
            mats.append(J)
    if len(mats) == 3:
        if dim % 4:
            raise ValueError(f"a hypercomplex triple needs dim divisible by 4, not {dim}")
        out["triple"] = np.stack(mats)
    elif len(mats) == 1:
        if dim % 2:
            raise ValueError(f"a complex structure needs an even dim, not {dim}")
        out["J"] = mats[0]
    elif len(mats) == 2:
        raise ValueError("provide either one complex structure or all three")
    if "phi" in data:
        if dim != 7:
            raise ValueError(f"phi needs dim 7, not {dim}")
        out["phi"] = sparse_form(dim, 3, data["phi"])
    if "Phi" in data:
        if dim != 8:
            raise ValueError(f"Phi needs dim 8, not {dim}")
        out["Phi"] = sparse_form(dim, 4, data["Phi"])
    return out


def save_geometry(path, geom: LieFrameGeometry, extra: dict | None = None):
    data = geometry_to_dict(geom)
    if extra:
        data.update(extra)
    with open(path, "w") as fh:
        # one line: without indent, json uses its C encoder
        fh.write(json.dumps(data) + "\n")


def load_geometry(path):
    with open(path) as fh:
        data = json.load(fh)
    return geometry_from_dict(data), data
