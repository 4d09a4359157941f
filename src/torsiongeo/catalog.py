"""Named example geometries covering every verification path.

A geometry entry builds ``(geometry, structures)``, with ``structures``
keyed like ``geometry_io.structures_from_dict``'s result (``triple``,
``phi``, ``Phi``; empty for a bare geometry).  The fibration entry builds
principal-curvature data instead.
"""

from __future__ import annotations

import numpy as np

from .frame_algebra import EpsilonOrientation, FrameTensor, basis_vector, zero_form
from .invariant_geometry import LieFrameGeometry
from .special_structures import (
    build_g2,
    build_spin7,
    build_su3,
    hyperkahler_two_forms,
    standard_quaternion_triple,
)

__all__ = ["CATALOG", "catalog_entry", "epsilon3"]


def epsilon3() -> np.ndarray:
    """A writable copy of the 3-index epsilon symbol."""
    return EpsilonOrientation(3).epsilon.copy()


def _su2_biinvariant():
    c = epsilon3()
    return LieFrameGeometry(3, c, FrameTensor(3, 3, c), name="su2-biinvariant")


def _su2su2():
    c = np.zeros((6, 6, 6))
    c[:3, :3, :3] = epsilon3()
    c[3:, 3:, 3:] = epsilon3()
    H = np.zeros((6, 6, 6))
    H[:3, :3, :3] = epsilon3()
    H[3:, 3:, 3:] = epsilon3()
    return LieFrameGeometry(6, c, FrameTensor(6, 3, H), name="su2su2")


def _su2_plus_abelian3():
    c = np.zeros((6, 6, 6))
    c[:3, :3, :3] = epsilon3()
    H = np.zeros((6, 6, 6))
    H[:3, :3, :3] = epsilon3()
    return LieFrameGeometry(6, c, FrameTensor(6, 3, H), name="su2-plus-abelian3")


def _su2su2_plus_abelian2():
    c = np.zeros((8, 8, 8))
    c[:3, :3, :3] = epsilon3()
    c[3:6, 3:6, 3:6] = epsilon3()
    H = np.zeros((8, 8, 8))
    H[:3, :3, :3] = epsilon3()
    H[3:6, 3:6, 3:6] = epsilon3()
    return LieFrameGeometry(8, c, FrameTensor(8, 3, H), name="su2su2-plus-abelian2")


def _flat_r4():
    return LieFrameGeometry(4, np.zeros((4, 4, 4)), zero_form(4, 3),
                            name="flat-r4-quaternion")


def _g2_su2_product_geometry():
    # the desk model of a flat 4-space times the 3-sphere group: torsion
    # is minus the group block's canonical 3-form so the plus-torsion
    # connection parallelizes the product fundamental form
    c = np.zeros((7, 7, 7))
    c[:3, :3, :3] = epsilon3()
    H = np.zeros((7, 7, 7))
    H[:3, :3, :3] = -epsilon3()
    return LieFrameGeometry(7, c, FrameTensor(7, 3, H), name="g2-su2-product")


def _flat7():
    return LieFrameGeometry(7, np.zeros((7, 7, 7)), zero_form(7, 3),
                            name="g2-standard")


def _flat8():
    return LieFrameGeometry(8, np.zeros((8, 8, 8)), zero_form(8, 3),
                            name="spin7-standard")


class CatalogEntry:
    def __init__(self, name, kind, describe, build):
        self.name = name
        self.kind = kind            # geometry | hkt | g2 | spin7 | fibration
        self.describe = describe
        self._build = build

    def build(self):
        return self._build()


def _su3_entry():
    geom, triple = build_su3()
    return geom, {"triple": triple}


def _g2_product_entry():
    lams = [basis_vector(7, r) for r in range(3)]
    oms = hyperkahler_two_forms(7, (3, 4, 5, 6))
    g2 = build_g2("product", lambda_coframe=lams, omegas=oms)
    return _g2_su2_product_geometry(), {"phi": g2.phi}


def _fibration_entry():
    from .fibration_topology import build_su3_fibration
    return build_su3_fibration()


CATALOG = {
    "su2-biinvariant": CatalogEntry(
        "su2-biinvariant", "geometry",
        "3-sphere group frame with bi-invariant torsion equal to the "
        "structure constants; both torsion connections are flat",
        lambda: (_su2_biinvariant(), {})),
    "su2su2": CatalogEntry(
        "su2su2", "geometry",
        "product of two 3-sphere group frames, blockwise bi-invariant torsion",
        lambda: (_su2su2(), {})),
    "su2-plus-abelian3": CatalogEntry(
        "su2-plus-abelian3", "geometry",
        "3-sphere group frame times a flat 3-space; torsion on the group block",
        lambda: (_su2_plus_abelian3(), {})),
    "su2su2-plus-abelian2": CatalogEntry(
        "su2su2-plus-abelian2", "geometry",
        "two group blocks plus a flat 2-space (8-dim splitting desk case)",
        lambda: (_su2su2_plus_abelian2(), {})),
    "su3-hkt": CatalogEntry(
        "su3-hkt", "hkt",
        "8-dim compact simple group with bi-invariant torsion and the "
        "left-invariant hypercomplex pair",
        _su3_entry),
    "flat-r4-quaternion": CatalogEntry(
        "flat-r4-quaternion", "hkt",
        "flat 4-space with the standard quaternion triple (torsion-free "
        "hyper-Kahler control case)",
        lambda: (_flat_r4(), {"triple": standard_quaternion_triple()})),
    "g2-standard": CatalogEntry(
        "g2-standard", "g2",
        "standard positive 3-form in an adapted flat coframe",
        lambda: (_flat7(), {"phi": build_g2("standard").phi})),
    "g2-su2-product": CatalogEntry(
        "g2-su2-product", "g2",
        "product-mode positive 3-form from a group coframe and the flat "
        "quaternionic 2-forms",
        _g2_product_entry),
    "spin7-standard": CatalogEntry(
        "spin7-standard", "spin7",
        "Cayley 4-form built from the standard positive 3-form",
        lambda: (_flat8(), {"Phi": build_spin7(build_g2("standard")).Phi})),
    "su3-fibration": CatalogEntry(
        "su3-fibration", "fibration",
        "curvature data of the homogeneous fibration of the 8-dim group "
        "over the 4-dim root-plane base",
        _fibration_entry),
}


def catalog_entry(name: str) -> CatalogEntry:
    try:
        return CATALOG[name]
    except KeyError:
        raise KeyError(f"unknown example {name!r}; available: "
                       f"{', '.join(CATALOG)}") from None
