"""JSON file formats.

Geometry files carry {name, dim, c, H} with c either a nested
dim x dim x dim array or a sparse entry list [[a, b, c, value], ...]
(0-based indices, one entry per independent component with b < c; the
antisymmetric completion is implied).  H is a sparse list
[[i, j, k, value], ...] with i < j < k.  Sparse values round-trip
bit-exactly.  Optional structure keys: I1/I2/I3 as sparse [[i, j,
value], ...] matrices, phi as a sparse 3-form list, Phi as a sparse
4-form list.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .frame_algebra import FrameTensor, basis_form, index_tuples
from .invariant_geometry import LieFrameGeometry
from .special_structures import AlmostComplexStructure, HypercomplexTriple

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


def sparse_form(dim: int, rank: int, entries) -> FrameTensor:
    coeffs = np.zeros(math.comb(dim, rank))
    for entry in entries:
        *idx, val = entry
        idx = tuple(int(i) for i in idx)
        if len(idx) != rank:
            raise ValueError(f"sparse entry {entry} has wrong arity")
        if len(set(idx)) != len(idx):
            raise ValueError(f"sparse entry {entry} repeats an index")
        coeffs = coeffs + float(val) * basis_form(dim, idx).coeffs
    return FrameTensor(dim, rank, coeffs=coeffs)


def _c_to_sparse(c: np.ndarray) -> list:
    dim = c.shape[0]
    out = []
    for a in range(dim):
        for b in range(dim):
            for cc in range(b + 1, dim):
                if c[a, b, cc] != 0.0:
                    out.append([a, b, cc, float(c[a, b, cc])])
    return out


def _c_from_field(dim: int, data) -> np.ndarray:
    arr = np.asarray(data, dtype=object)
    if arr.ndim == 3:
        return np.asarray(data, dtype=np.float64)
    c = np.zeros((dim, dim, dim))
    for entry in data:
        a, b, cc, val = entry
        a, b, cc = int(a), int(b), int(cc)
        c[a, b, cc] += float(val)
        c[a, cc, b] -= float(val)
    return c


def geometry_to_dict(geom: LieFrameGeometry) -> dict:
    return {
        "name": geom.name,
        "dim": geom.dim,
        "c": _c_to_sparse(geom.c),
        "H": form_to_sparse(geom.H),
    }


def geometry_from_dict(data: dict) -> LieFrameGeometry:
    dim = int(data["dim"])
    c = _c_from_field(dim, data.get("c", []))
    H = sparse_form(dim, 3, data.get("H", []))
    return LieFrameGeometry(dim, c, H, name=str(data.get("name", "")))


def structures_to_dict(triple: HypercomplexTriple | None = None,
                       phi: FrameTensor | None = None,
                       Phi: FrameTensor | None = None) -> dict:
    out = {}
    if triple is not None:
        for key, s in zip(("I1", "I2", "I3"), triple.structures()):
            J = s.J
            out[key] = [[int(i), int(j), float(J[i, j])]
                        for i in range(J.shape[0]) for j in range(J.shape[1])
                        if J[i, j] != 0.0]
    if phi is not None:
        out["phi"] = form_to_sparse(phi)
    if Phi is not None:
        out["Phi"] = form_to_sparse(Phi)
    return out


def structures_from_dict(data: dict, dim: int) -> dict:
    out = {}
    mats = []
    for key in ("I1", "I2", "I3"):
        if key in data:
            J = np.zeros((dim, dim))
            for i, j, val in data[key]:
                J[int(i), int(j)] = float(val)
            mats.append(AlmostComplexStructure(J))
    if len(mats) == 3:
        out["triple"] = HypercomplexTriple(*mats)
    elif len(mats) == 1:
        out["J"] = mats[0]
    elif len(mats) == 2:
        raise ValueError("provide either one complex structure or all three")
    if "phi" in data:
        out["phi"] = sparse_form(dim if dim else 7, 3, data["phi"])
    if "Phi" in data:
        out["Phi"] = sparse_form(dim if dim else 8, 4, data["Phi"])
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
