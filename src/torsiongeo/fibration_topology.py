"""Principal-fibration curvature algebra on a 4-dim base and the
integer characteristic-class arithmetic for bundles with special
unitary-type fiber over anti-self-dual 4-manifolds.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .frame_algebra import (
    FrameTensor,
    hodge_star,
    wedge,
    wedge_top_coefficient,
    zero_form,
)
__all__ = [
    "PrincipalCurvature",
    "TopologyData",
    "sd_asd_split",
    "frestrict_residual",
    "fit_fiber_rotation",
    "build_su3_fibration",
    "quaternionic_orientation",
    "wedge_trace",
    "chern_topology",
    "enumerate_diophantine",
]


@dataclass(frozen=True)
class PrincipalCurvature:
    """Fiber-algebra-valued curvature 2-form in a horizontal orthonormal
    frame: F[alpha, a, b], with the fiber inner product and structure
    constants in the same fiber basis."""

    base_dim: int
    fiber_dim: int
    F: np.ndarray
    fiber_metric: np.ndarray
    fiber_structure: np.ndarray

    def __post_init__(self):
        F = np.asarray(self.F, dtype=np.float64)
        if F.shape != (self.fiber_dim, self.base_dim, self.base_dim):
            raise ValueError("F must have shape (fiber_dim, base_dim, base_dim)")
        if np.abs(F + np.swapaxes(F, 1, 2)).max() > 1e-12 * max(1.0, np.abs(F).max()):
            raise ValueError("F must be antisymmetric in the base pair")
        h = np.asarray(self.fiber_metric, dtype=np.float64)
        if h.shape != (self.fiber_dim,) * 2 or np.abs(h - h.T).max() > 1e-12:
            raise ValueError("fiber metric must be symmetric")
        if np.linalg.eigvalsh(h).min() <= 0:
            raise ValueError("fiber metric must be positive definite")
        cs = np.asarray(self.fiber_structure, dtype=np.float64)
        if cs.shape != (self.fiber_dim,) * 3:
            raise ValueError("fiber structure constants shape mismatch")
        for arr in (F, h, cs):
            arr.setflags(write=False)
        object.__setattr__(self, "F", F)
        object.__setattr__(self, "fiber_metric", h)
        object.__setattr__(self, "fiber_structure", cs)

    def component(self, alpha: int) -> FrameTensor:
        return FrameTensor(self.base_dim, 2, self.F[alpha])


def sd_asd_split(F2: FrameTensor, sign: int = 1):
    """F = F_+ + F_- with F_+- = (F +- *F)/2 on a 4-dim frame oriented
    by ``sign``."""
    if F2.dim != 4 or F2.rank != 2:
        raise ValueError("self-dual split needs a 2-form on a 4-dim frame")
    star = hodge_star(F2, sign)
    plus = 0.5 * (F2 + star)
    minus = 0.5 * (F2 - star)
    return plus, minus


def frestrict_residual(pc: PrincipalCurvature, B: np.ndarray,
                       triple) -> float:
    """Sup-norm of

    -F_{alpha c a} (I_r)^c_b + F_{alpha c b} (I_r)^c_a
        = (B_alpha)^s{}_r I_{s ab}

    over all fiber indices alpha, structure labels r and base pairs, for
    the stacked base triple I[r, c, b].
    """
    B = np.asarray(B, dtype=np.float64)
    if B.shape != (pc.fiber_dim, 3, 3):
        raise ValueError("B must have shape (fiber_dim, 3, 3)")
    lhs = _horizontality_lhs(pc, triple)
    return float(np.abs(lhs - np.einsum("xsr,sab->xrab", B, triple)).max())


def _horizontality_lhs(pc: PrincipalCurvature, I: np.ndarray) -> np.ndarray:
    """-F_{alpha c a} (I_r)^c_b + F_{alpha c b} (I_r)^c_a, indexed
    [alpha, r, a, b], for the stacked structures I[r, c, b]."""
    if np.shape(I) != (3, pc.base_dim, pc.base_dim):
        raise ValueError(f"the base triple must be a 3 x {pc.base_dim} x "
                         f"{pc.base_dim} array, not {np.shape(I)}")
    return (-np.einsum("xca,rcb->xrab", pc.F, I)
            + np.einsum("xcb,rca->xrab", pc.F, I))


def fit_fiber_rotation(pc: PrincipalCurvature, triple) -> np.ndarray:
    """Least-squares B_alpha solving the horizontality constraint for the
    stacked base triple; used to exhibit the epsilon representation of
    explicit fibrations."""
    gram = np.einsum("sab,tab->st", triple, triple)
    proj = np.einsum("xrab,sab->xsr", _horizontality_lhs(pc, triple), triple)
    return np.linalg.solve(gram, proj)


def quaternionic_orientation(triple) -> int:
    """Orientation sign (+1 or -1) of a 4-dim base in which the stacked
    Hermitian triple is self-dual (volume positive against the sum of
    the wedge squares of its 2-forms)."""
    forms = [FrameTensor(4, 2, J) for J in triple]
    total = sum(wedge_top_coefficient(om, om) for om in forms)
    if total == 0.0:
        raise ValueError("degenerate Hermitian forms")
    return 1 if total > 0 else -1


def build_su3_fibration() -> tuple[PrincipalCurvature, np.ndarray]:
    """``(pc, triple)``: curvature data of the homogeneous fibration of
    the 8-dim compact simple group over the 4-dim root-plane base, and
    the antisymmetric part of ``build_su3``'s (I, J, IJ) on the base.

    Horizontal frame: the (u, v) pairs of the two simple-root planes.
    Fiber basis: the Cartan direction of the root difference (length
    squared 6, spanning the commuting line), the Cartan direction of
    the highest root and the two real highest-root vectors scaled to
    length squared 2.  Curvature components are the fiber parts of the
    horizontal brackets re-expressed in that basis.
    """
    from .special_structures import build_su3

    geom, triple = build_su3()
    c = geom.c
    base = [2, 3, 4, 5]        # u_a, v_a, u_b, v_b
    fiber = [0, 1, 6, 7]       # E1, E2, u_g, v_g
    s2, s6 = math.sqrt(2.0), math.sqrt(6.0)
    # rows: fiber basis in the orthonormal fiber-slot frame (E1, E2, U+, V+);
    # the last two are ordered so the fitted rotation representation is
    # literally (B_r)^s_t = eps_r{}^s{}_t against the (I, J, IJ) triple
    S = np.array([
        [0.0, s6, 0.0, 0.0],   # root-difference Cartan direction
        [s2, 0.0, 0.0, 0.0],   # highest-root Cartan direction
        [0.0, 0.0, 0.0, s2],
        [0.0, 0.0, s2, 0.0],
    ])
    raw = c[np.ix_(fiber, base, base)]
    F = np.linalg.solve(S.T, raw.reshape(4, -1)).reshape(4, 4, 4)
    fiber_metric = S @ S.T
    # fiber structure constants in the same basis
    raw_f = c[np.ix_(fiber, fiber, fiber)]
    # bracket of B_i, B_j expanded over fiber slots, then re-expressed
    br = np.einsum("ia,jb,mab->mij", S, S, raw_f)
    cs = np.linalg.solve(S.T, br.reshape(4, -1)).reshape(4, 4, 4)
    restricted = triple[np.ix_(range(3), base, base)]
    return (PrincipalCurvature(4, 4, F, fiber_metric, cs),
            0.5 * (restricted - np.swapaxes(restricted, 1, 2)))


def wedge_trace(pc: PrincipalCurvature) -> FrameTensor:
    """Fiber-metric-traced wedge square h_{ab} F^a ^ F^b as a base 4-form."""
    n = pc.base_dim
    total = zero_form(n, 4)
    for a in range(pc.fiber_dim):
        for b in range(pc.fiber_dim):
            coeff = pc.fiber_metric[a, b]
            if coeff == 0.0:
                continue
            total = total + coeff * wedge(pc.component(a), pc.component(b))
    return total


@dataclass(frozen=True)
class TopologyData:
    """Topological data of the base: k connected summands of the
    reversed projective plane (k = 0 means the 4-sphere), the integer
    expansion n of the line-bundle class, and Euler/signature numbers."""

    k: int
    n: tuple
    chi: int
    tau: int

    def __post_init__(self):
        n = tuple(int(x) for x in self.n)
        object.__setattr__(self, "n", n)
        if self.k < 0:
            raise ValueError("k must be nonnegative")
        if len(n) != self.k:
            raise ValueError("n must have length k")
        if self.k == 0:
            if (self.chi, self.tau) != (2, 0):
                raise ValueError("the sphere base has chi = 2, tau = 0")
        else:
            if self.chi != 2 + self.k or self.tau != -self.k:
                raise ValueError("connected sums need chi = 2 + k, tau = -k")

    @property
    def c1_squared(self) -> int:
        # intersection form is minus the identity
        return -sum(x * x for x in self.n)


def chern_topology(top: TopologyData, fiber: str = "s(u1xu2)") -> dict:
    """Integer class arithmetic: signature-theorem value 2 chi + 3 tau,
    the closure obstruction 3 c1^2 + 2 chi + 3 tau, and the second Chern
    number of the rank-2 bundle forced by the determinant constraint.

    fiber="u2" uses the same obstruction with c1 read as the class of
    the rank-2 bundle itself.
    """
    if fiber not in ("s(u1xu2)", "u2"):
        raise ValueError("fiber must be 's(u1xu2)' or 'u2'")
    c1_sq = top.c1_squared
    p1_adj = 2 * top.chi + 3 * top.tau
    obstruction = 3 * c1_sq + p1_adj
    c2_num = c1_sq - p1_adj
    c2E = c2_num // 4 if c2_num % 4 == 0 else c2_num / 4.0
    return {
        "fiber": fiber,
        "c1_sq": c1_sq,
        "p1_adj": p1_adj,
        "obstruction": obstruction,
        "c2E": c2E,
        "obstruction_vanishes": obstruction == 0,
        "c1_sq_nonpositive": c1_sq <= 0,
        "p1_adj_divisible_by_3": (p1_adj % 3 == 0) if obstruction == 0 else None,
        "c2E_integral": c2_num % 4 == 0,
        "admits_hkt_fibration": obstruction == 0 and c1_sq <= 0,
    }


def enumerate_diophantine(k_max: int):
    """All solutions of 3 sum(n_p^2) = 4 - k with 1 <= k <= k_max,
    n reported as a sorted tuple of nonnegative integers (individual
    signs of the entries are immaterial)."""
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    solutions = []
    for k in range(1, min(k_max, 4) + 1):
        target = 4 - k
        if target % 3 != 0:
            continue
        budget = target // 3
        bound = math.isqrt(budget)
        found = set()
        for combo in itertools.product(range(bound + 1), repeat=k):
            if sum(x * x for x in combo) == budget:
                found.add(tuple(sorted(combo, reverse=True)))
        for n in sorted(found):
            solutions.append((k, n))
    return solutions
