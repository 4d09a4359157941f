"""Monotone sub/supersolution iteration for -lap(u) + u^2 - w = 0 on
discrete compact domains.

The domain is a weighted-graph Laplacian with nonnegative couplings
(so -lap + lambda is an M-matrix and the discrete maximum principle
holds, mirroring the order-preservation the continuous proof relies
on).  Constants a = sqrt(w_min)/2 and b = sqrt(w_max) bracket the
iteration u_{n+1} = (-lap + lambda)^{-1}(w - u_n^2 + lambda u_n), which
is monotone nondecreasing from u_0 = a and stays below b; both facts
are asserted at every step, never assumed.

Each linear solve with -lap + lambda takes one of two paths.  A periodic
torus grid (build_flat_torus, build_flat_torus4) carries the Fourier
symbol of its Laplacian, so the operator is diagonal in Fourier space
and the solve is one real FFT pair.  Any other domain is solved by a
sparse LU factorization, computed once per lambda.  Both paths are gated
on the normwise backward error ||Au - b|| / (||A|| ||u|| + ||b||) <= 1e-12
(sup norms), which does not grow as the grid is refined; the check
applies the sparse operator, so it also verifies the FFT path.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

__all__ = [
    "DiscreteDomain",
    "SolverConfig",
    "IterationTrace",
    "StepRecord",
    "SolverError",
    "build_flat_torus",
    "build_flat_torus4",
    "bounds",
    "pick_lambda",
    "linear_solve",
    "monotone_iterate",
    "residual",
    "w_from_fibration",
    "fibration_diagnostics",
]


class SolverError(RuntimeError):
    """Hard failure: monotonicity/bounds violated or budget exhausted."""


@dataclass(frozen=True)
class DiscreteDomain:
    """Discrete Laplacian with volume weights.

    laplacian is the operator for lap (nonpositive quadratic form):
    zero row sums, nonnegative off-diagonal couplings, symmetric under
    the weight inner product.

    symbol, when given, is the eigenvalue of -lap on each Fourier mode of
    a periodic grid: an array of the grid's shape, with nodes numbered in
    C order over that grid.  It is checked against laplacian on a probe
    vector, and the solver then inverts -lap + lambda by FFT.
    """

    node_count: int
    laplacian: sp.spmatrix
    weights: np.ndarray
    symbol: np.ndarray | None = None

    def __post_init__(self):
        L = sp.csr_matrix(self.laplacian)
        if L.shape != (self.node_count, self.node_count):
            raise ValueError("laplacian shape mismatch")
        w = np.asarray(self.weights, dtype=np.float64)
        if w.shape != (self.node_count,) or (w <= 0).any():
            raise ValueError("weights must be positive per node")
        scale = max(1.0, abs(L).max())
        ones = np.ones(self.node_count)
        if np.abs(L @ ones).max() > 1e-10 * scale:
            raise ValueError("laplacian row sums must vanish")
        offdiag = L - sp.diags(L.diagonal())
        if offdiag.count_nonzero() and offdiag.min() < -1e-12 * scale:
            raise ValueError("off-diagonal couplings must be nonnegative "
                             "(M-matrix property of -lap + lambda)")
        WL = sp.diags(w) @ L
        if abs(WL - WL.T).max() > 1e-10 * scale * w.max():
            raise ValueError("laplacian must be symmetric in the weight "
                             "inner product")
        w = w.copy()
        w.setflags(write=False)
        object.__setattr__(self, "laplacian", L)
        object.__setattr__(self, "weights", w)
        if self.symbol is not None:
            object.__setattr__(self, "symbol", _checked_symbol(self.symbol, L))


def _checked_symbol(symbol, L: sp.csr_matrix) -> np.ndarray:
    """A read-only copy of symbol, refused unless applying it by FFT
    reproduces -L on a probe that excites every Fourier mode.  The full
    complex transform is used, so every entry of symbol is tested."""
    s = np.array(symbol, dtype=np.float64)
    if s.size != L.shape[0] or not np.isfinite(s).all():
        raise ValueError("symbol must hold one finite eigenvalue per node")
    probe = np.random.default_rng(0).standard_normal(s.shape)
    by_fft = np.fft.ifftn(np.fft.fftn(probe) * s)
    mismatch = np.abs(by_fft + (L @ probe.ravel()).reshape(s.shape)).max()
    lap_norm = abs(L).sum(axis=1).max()
    if not mismatch <= 1e-12 * lap_norm * np.abs(probe).max():
        raise ValueError(f"symbol disagrees with the laplacian on a probe "
                         f"vector (sup difference {mismatch:.3e})")
    s.setflags(write=False)
    return s


@dataclass(frozen=True)
class SolverConfig:
    lambda_policy: object = "auto"   # "auto" or an explicit float
    tol: float = 1e-10
    max_iter: int = 500

    def __post_init__(self):
        if not 0 < self.tol < np.inf:
            raise ValueError("tol must be positive and finite")
        if self.max_iter < 1:
            raise ValueError("max_iter must be positive")


@dataclass
class StepRecord:
    step: int
    delta_sup: float
    u_min: float
    u_max: float
    residual_sup: float
    monotone_ok: bool
    bounds_ok: bool

    def to_dict(self) -> dict:
        return {
            "step": self.step,
            "delta_sup": self.delta_sup,
            "u_min": self.u_min,
            "u_max": self.u_max,
            "residual_sup": self.residual_sup,
            "monotone_ok": self.monotone_ok,
            "bounds_ok": self.bounds_ok,
        }


@dataclass
class IterationTrace:
    steps: list = field(default_factory=list)
    converged: bool = False
    a: float = 0.0
    b: float = 0.0
    lam: float = 0.0

    @property
    def iterations(self) -> int:
        return len(self.steps)

    @property
    def final_residual(self) -> float:
        return self.steps[-1].residual_sup if self.steps else float("nan")

    def summary(self) -> dict:
        return {
            "iterations": self.iterations,
            "converged": self.converged,
            "a": self.a,
            "b": self.b,
            "lambda": self.lam,
            "final_residual": self.final_residual,
            "monotone_ok": all(s.monotone_ok for s in self.steps),
            "bounds_ok": all(s.bounds_ok for s in self.steps),
            "steps": [s.to_dict() for s in self.steps],
        }


def _periodic_laplacian(shape, spacing: float) -> sp.csr_matrix:
    n_total = int(np.prod(shape))
    idx = np.arange(n_total).reshape(shape)
    # per axis, the (node, next node) couplings and their transposes
    pairs = [(idx.ravel(), np.roll(idx, -1, axis=axis).ravel())
             for axis in range(len(shape))]
    rows = np.concatenate([a for node, nxt in pairs for a in (node, nxt)])
    cols = np.concatenate([a for node, nxt in pairs for a in (nxt, node)])
    vals = np.full(rows.size, 1.0 / spacing ** 2)
    L = sp.coo_matrix((vals, (rows, cols)), shape=(n_total, n_total)).tocsr()
    L = L - sp.diags(np.asarray(L.sum(axis=1)).ravel())
    return L.tocsr()


def _periodic_symbol(shape, spacing: float) -> np.ndarray:
    """Eigenvalues of -_periodic_laplacian(shape, spacing) on the Fourier
    modes: the sum over axes of 4 sin^2(pi k / n) / spacing^2."""
    per_axis = [4.0 * np.sin(np.pi * np.arange(n) / n) ** 2 / spacing ** 2
                for n in shape]
    return functools.reduce(np.add.outer, per_axis)


def build_flat_torus(n1: int, n2: int, spacing: float = 1.0) -> DiscreteDomain:
    """Periodic 5-point-stencil Laplacian on an n1 x n2 grid."""
    if n1 < 3 or n2 < 3:
        raise ValueError("torus sides must be at least 3")
    if not 0 < spacing < np.inf:
        raise ValueError("spacing must be positive and finite")
    L = _periodic_laplacian((n1, n2), spacing)
    weights = np.full(n1 * n2, spacing ** 2)
    return DiscreteDomain(n1 * n2, L, weights, _periodic_symbol((n1, n2), spacing))


def build_flat_torus4(n1: int, n2: int, n3: int, n4: int,
                      spacing: float = 1.0) -> DiscreteDomain:
    """Periodic 9-point-stencil Laplacian on a small 4-torus grid."""
    ns = (n1, n2, n3, n4)
    if any(n < 3 for n in ns):
        raise ValueError("torus sides must be at least 3")
    if any(n > 16 for n in ns):
        raise ValueError("4-torus builder is capped at 16 per side")
    if not 0 < spacing < np.inf:
        raise ValueError("spacing must be positive and finite")
    L = _periodic_laplacian(ns, spacing)
    weights = np.full(int(np.prod(ns)), spacing ** 4)
    return DiscreteDomain(int(np.prod(ns)), L, weights, _periodic_symbol(ns, spacing))


def bounds(w: np.ndarray):
    """Subsolution and supersolution constants a = sqrt(w_min)/2,
    b = sqrt(w_max); w must be strictly positive everywhere."""
    w = np.asarray(w, dtype=np.float64)
    if not np.isfinite(w).all():
        raise ValueError("w must be finite everywhere")
    if (w <= 0).any():
        bad = int(np.argmin(w))
        raise ValueError(f"w must be strictly positive everywhere "
                         f"(node {bad}: w = {w[bad]:.3e})")
    return 0.5 * float(np.sqrt(w.min())), float(np.sqrt(w.max()))


def pick_lambda(b: float, policy="auto") -> float:
    """lambda must exceed 2 b so the iteration map is order preserving;
    the auto policy takes 2 b + 1."""
    if b <= 0:
        raise ValueError("b must be positive")
    if isinstance(policy, str):
        if policy != "auto":
            raise ValueError(f"unknown lambda policy {policy!r}")
        return 2.0 * b + 1.0
    lam = float(policy)
    if not np.isfinite(lam):
        raise ValueError(f"lambda = {lam} rejected: must be finite")
    if lam <= 2.0 * b:
        raise ValueError(f"lambda = {lam} rejected: needs lambda > 2 b = {2 * b}")
    return lam


class _ShiftedSolver:
    """Solver for (-lap + lambda), set up once and reused across
    iterations: by FFT when the domain carries its Fourier symbol, by
    sparse LU otherwise.  Every solve is gated on its backward error."""

    def __init__(self, domain: DiscreteDomain, lam: float):
        if lam <= 0:
            raise ValueError("lambda must be positive")
        self.domain = domain
        self.lam = lam
        self.op = (-domain.laplacian
                   + lam * sp.identity(domain.node_count, format="csr")).tocsr()
        self.op_norm = float(abs(self.op).sum(axis=1).max())
        symbol = domain.symbol
        if symbol is None:
            self._solve = spla.splu(self.op.tocsc(), permc_spec="MMD_AT_PLUS_A").solve
        else:
            shape, axes = symbol.shape, tuple(range(symbol.ndim))
            # rfftn keeps the modes 0..n//2 of the last axis
            shifted = symbol[..., :shape[-1] // 2 + 1] + lam
            self._solve = lambda rhs: np.fft.irfftn(
                np.fft.rfftn(rhs.reshape(shape), axes=axes) / shifted,
                s=shape, axes=axes).ravel()

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        rhs = np.asarray(rhs, dtype=np.float64)
        u = self._solve(rhs)
        err = np.abs(self.op @ u - rhs).max()
        scale = self.op_norm * np.abs(u).max() + np.abs(rhs).max()
        if not err <= 1e-12 * scale:
            raise SolverError(f"linear solve backward error {err / scale:.3e} "
                              f"above 1e-12")
        return u


def linear_solve(domain: DiscreteDomain, lam: float,
                 rhs: np.ndarray) -> np.ndarray:
    """Solve (-lap + lambda) u = rhs, by FFT on a domain with a Fourier
    symbol and by sparse LU otherwise, with the normwise backward error
    ||Au - rhs|| / (||A|| ||u|| + ||rhs||) at most 1e-12 in the sup norm
    (SolverError otherwise)."""
    return _ShiftedSolver(domain, lam).solve(rhs)


def residual(domain: DiscreteDomain, u: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Pointwise G(u) = -lap(u) + u^2 - w."""
    u = np.asarray(u, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    if u.shape != (domain.node_count,) or w.shape != (domain.node_count,):
        raise ValueError("field shape mismatch")
    return -(domain.laplacian @ u) + u * u - w


def monotone_iterate(domain: DiscreteDomain, w: np.ndarray,
                     cfg: SolverConfig = SolverConfig()):
    """Run the bracketed iteration u_0 = a, u_{n+1} = T(u_n) with
    T(u) = (-lap + lambda)^{-1}(w - u^2 + lambda u).

    Monotonicity a <= u_n <= u_{n+1} <= b is asserted at every step (a
    violation signals an M-matrix or convention bug and is a hard
    failure).  Returns (u, IterationTrace).
    """
    w = np.asarray(w, dtype=np.float64)
    a, b = bounds(w)
    lam = pick_lambda(b, cfg.lambda_policy)
    solver = _ShiftedSolver(domain, lam)
    trace = IterationTrace(a=a, b=b, lam=lam)
    slack = 1e-10 * max(1.0, b)

    u = np.full(domain.node_count, a)
    for step in range(1, cfg.max_iter + 1):
        u_next = solver.solve(w - u * u + lam * u)
        delta = float(np.abs(u_next - u).max())
        monotone_ok = bool((u_next >= u - slack).all())
        bounds_ok = bool((u_next >= a - slack).all()
                         and (u_next <= b + slack).all())
        res_sup = float(np.abs(residual(domain, u_next, w)).max())
        trace.steps.append(StepRecord(step, delta, float(u_next.min()),
                                      float(u_next.max()), res_sup,
                                      monotone_ok, bounds_ok))
        if not (monotone_ok and bounds_ok):
            raise SolverError(
                f"step {step}: monotonicity/bounds violated "
                f"(monotone_ok={monotone_ok}, bounds_ok={bounds_ok}); "
                f"this indicates a maximum-principle bug, not roundoff")
        u = u_next
        if delta < cfg.tol:
            trace.converged = True
            return u, trace
    raise SolverError(f"no convergence in {cfg.max_iter} iterations "
                      f"(last delta {trace.steps[-1].delta_sup:.3e})")


def w_from_fibration(f_u1_sq: np.ndarray, f_minus_sq: np.ndarray) -> np.ndarray:
    """Exploratory source-term recipe from fibration curvature data.

    After the constant metric rescaling that normalizes the quadratic
    coefficient to one, the closure equation takes the solver's form
    with w = (|F_u1|^2 + |F_-|^2)/2.  The result must still be checked
    strictly positive by bounds(); this assembles candidates only.
    """
    f1 = np.asarray(f_u1_sq, dtype=np.float64)
    f2 = np.asarray(f_minus_sq, dtype=np.float64)
    if f1.shape != f2.shape:
        raise ValueError("curvature-square fields must share a shape")
    if (f1 < 0).any() or (f2 < 0).any():
        raise ValueError("curvature squares must be nonnegative")
    return 0.5 * (f1 + f2)


def fibration_diagnostics(scalar_curvature: np.ndarray, u: np.ndarray,
                          h: float) -> dict:
    """Informational residual pair relating the rescaled base scalar
    curvature to the conformal factor.

    The two source equations disagree in the exponent of the conformal
    factor as printed, so both readings are reported and neither is
    asserted: r_linear = R - 6 h^2 u and r_quadratic = R - 3 (1 + h^2) u^2.
    """
    R = np.asarray(scalar_curvature, dtype=np.float64)
    u = np.asarray(u, dtype=np.float64)
    r_lin = R - 6.0 * h * h * u
    r_quad = R - 3.0 * (1.0 + h * h) * u * u
    return {
        "linear_reading_sup": float(np.abs(r_lin).max()),
        "quadratic_reading_sup": float(np.abs(r_quad).max()),
        "asserted": False,
    }
