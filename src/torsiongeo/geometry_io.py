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
4-form list (dim 8).  dim must be an integer, every index an integer
in [0, dim) and every value a finite real number (bools and strings are
refused); anything else raises ValueError.

``structures_from_dict`` reads these keys into a structures dict keyed
``triple``, ``J``, ``phi``, ``Phi`` (the dict catalog entries build), and
``structures_to_dict`` writes such a dict back, ``J`` as I1, so that
every key round-trips.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .frame_algebra import FrameTensor, basis_form, index_tuples
from .invariant_geometry import LieFrameGeometry

__all__ = [
    "geometry_to_dict",
    "geometry_from_dict",
    "load_geometry",
    "save_geometry",
    "sparse_form",
    "form_to_sparse",
    "structures_from_dict",
    "structures_to_dict",
]


def form_to_sparse(T: FrameTensor) -> list:
    """One entry per nonzero packed coefficient (strictly increasing
    index tuple, lexicographic order), value unchanged."""
    nonzero = np.flatnonzero(T.coeffs)
    return [[*index_tuples(T.dim, T.rank)[k].tolist(), float(T.coeffs[k])]
            for k in nonzero]


def _integer(value, what: str) -> int:
    """An integer read from a file; floats (even 2.0) and bools are refused."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{what} {value!r} is not an integer")
    return int(value)


def _real(value, what: str) -> float:
    """A finite real number read from a file; bools and strings are refused."""
    real = isinstance(value, (int, float)) and not isinstance(value, bool)
    if not real or not np.isfinite(value):
        raise ValueError(f"{what} must be a finite real number, not {value!r}")
    return float(value)


def _index(i, dim: int) -> int:
    """A frame index read from a file: an integer in [0, dim)."""
    if not 0 <= _integer(i, "index") < dim:
        raise ValueError(f"index {i!r} is not an integer in [0, {dim})")
    return int(i)


def sparse_form(dim: int, rank: int, entries) -> FrameTensor:
    coeffs = np.zeros(math.comb(dim, rank))
    for entry in entries:
        *idx, val = entry
        idx = tuple(_index(i, dim) for i in idx)
        if len(idx) != rank:
            raise ValueError(f"sparse entry {entry} has wrong arity")
        if len(set(idx)) != len(idx):
            raise ValueError(f"sparse entry {entry} repeats an index")
        coeffs = coeffs + _real(val, "form entry") * basis_form(dim, idx).coeffs
    return FrameTensor(dim, rank, coeffs=coeffs)


def _c_to_sparse(c: np.ndarray) -> list:
    pairs = index_tuples(c.shape[0], 2).tolist()
    return [[a, b, cc, float(c[a, b, cc])]
            for a in range(c.shape[0]) for b, cc in pairs if c[a, b, cc] != 0.0]


def _c_from_field(dim: int, data) -> np.ndarray:
    arr = np.asarray(data, dtype=object)
    if arr.ndim == 3:
        return np.array([_real(v, "structure constant") for v in arr.flat],
                        dtype=np.float64).reshape(arr.shape)
    c = np.zeros((dim, dim, dim))
    for entry in data:
        a, b, cc, val = entry
        a, b, cc = (_index(i, dim) for i in (a, b, cc))
        if b == cc:
            raise ValueError(f"structure-constant entry {entry} repeats a lower index")
        val = _real(val, "structure constant")
        c[a, b, cc] += val
        c[a, cc, b] -= val
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
            J = np.zeros((dim, dim))
            for i, j, val in data[key]:
                J[_index(i, dim), _index(j, dim)] = _real(val, f"{key} entry")
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
        json.dump(data, fh, indent=1)
        fh.write("\n")


def load_geometry(path):
    with open(path) as fh:
        data = json.load(fh)
    return geometry_from_dict(data), data
