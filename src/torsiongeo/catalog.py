"""Named example geometries covering every verification path.

A geometry entry builds ``(geometry, structures)``, with ``structures``
keyed like ``geometry_io.structures_from_dict``'s result (``triple``,
``J``, ``phi``, ``Phi``; none for a bare geometry): the dict that
``special_structures.structure_reports`` checks and
``geometry_io.structures_to_dict`` writes.  The fibration entry (kind
``fibration``) builds principal-curvature data and its base triple,
``(pc, triple)``, instead.  Every block geometry is a ``direct_sum`` of
su(2) factors (torsion plus or minus the structure constants) and flat
factors.
"""

from __future__ import annotations

from collections.abc import Callable
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from . import fibration_topology
from .frame_algebra import FrameTensor, epsilon3, zero_form
from .invariant_geometry import LieFrameGeometry, direct_sum
from .special_structures import (
    build_g2,
    build_spin7,
    build_su3,
    standard_quaternion_triple,
)

__all__ = ["CATALOG", "CatalogEntry", "catalog_entry"]


# the factors are built once per process and only read: direct_sum copies
# their arrays into a fresh geometry, so nothing derived from a factor
# reaches a built entry


@lru_cache(maxsize=None)
def _su2(H_scale=1.0):
    """su(2) with torsion H_scale * epsilon."""
    return LieFrameGeometry(3, epsilon3(), FrameTensor(3, 3, H_scale * epsilon3()))


@lru_cache(maxsize=None)
def _flat(k):
    """Flat R^k."""
    return LieFrameGeometry(k, np.zeros((k, k, k)), zero_form(k, 3))


class CatalogEntry(NamedTuple):
    name: str
    kind: str           # geometry | hkt | g2 | spin7 | fibration
    describe: str
    build: Callable[[], tuple]


def _su3_entry():
    geom, triple = build_su3()
    return geom, {"triple": triple}


def _g2_product_entry():
    phi = build_g2(standard_quaternion_triple(7, (3, 4, 5, 6)))
    # the desk model of a flat 4-space times the 3-sphere group: torsion
    # is minus the group block's canonical 3-form so the plus-torsion
    # connection parallelizes the product fundamental form
    return direct_sum(_su2(-1.0), _flat(4), name="g2-su2-product"), {"phi": phi}


CATALOG = {
    "su2-biinvariant": CatalogEntry(
        "su2-biinvariant", "geometry",
        "3-sphere group frame with bi-invariant torsion equal to the "
        "structure constants; both torsion connections are flat",
        lambda: (direct_sum(_su2(), name="su2-biinvariant"), {})),
    "su2su2": CatalogEntry(
        "su2su2", "geometry",
        "product of two 3-sphere group frames, blockwise bi-invariant torsion",
        lambda: (direct_sum(_su2(), _su2(), name="su2su2"), {})),
    "su2-plus-abelian3": CatalogEntry(
        "su2-plus-abelian3", "geometry",
        "3-sphere group frame times a flat 3-space; torsion on the group block",
        lambda: (direct_sum(_su2(), _flat(3), name="su2-plus-abelian3"), {})),
    "su2su2-plus-abelian2": CatalogEntry(
        "su2su2-plus-abelian2", "geometry",
        "two group blocks plus a flat 2-space (8-dim splitting desk case)",
        lambda: (direct_sum(_su2(), _su2(), _flat(2),
                           name="su2su2-plus-abelian2"), {})),
    "su3-hkt": CatalogEntry(
        "su3-hkt", "hkt",
        "8-dim compact simple group with bi-invariant torsion and the "
        "left-invariant hypercomplex pair",
        _su3_entry),
    "flat-r4-quaternion": CatalogEntry(
        "flat-r4-quaternion", "hkt",
        "flat 4-space with the standard quaternion triple (torsion-free "
        "hyper-Kahler control case)",
        lambda: (direct_sum(_flat(4), name="flat-r4-quaternion"),
                 {"triple": standard_quaternion_triple()})),
    "g2-standard": CatalogEntry(
        "g2-standard", "g2",
        "standard positive 3-form in an adapted flat coframe",
        lambda: (direct_sum(_flat(7), name="g2-standard"),
                 {"phi": build_g2()})),
    "g2-su2-product": CatalogEntry(
        "g2-su2-product", "g2",
        "positive product 3-form from a group coframe and the flat "
        "quaternionic 2-forms",
        _g2_product_entry),
    "spin7-standard": CatalogEntry(
        "spin7-standard", "spin7",
        "Cayley 4-form built from the standard positive 3-form",
        lambda: (direct_sum(_flat(8), name="spin7-standard"),
                 {"Phi": build_spin7(build_g2())})),
    "su3-fibration": CatalogEntry(
        "su3-fibration", "fibration",
        "curvature data of the homogeneous fibration of the 8-dim group "
        "over the 4-dim root-plane base",
        # looked up per call, so that a rebound module attribute is used
        lambda: fibration_topology.build_su3_fibration()),
}


def catalog_entry(name: str) -> CatalogEntry:
    try:
        return CATALOG[name]
    except KeyError:
        raise KeyError(f"unknown example {name!r}; available: "
                       f"{', '.join(CATALOG)}") from None
