import numpy as np
import pytest
import scipy.sparse as sp

from torsiongeo.dilaton import (
    DiscreteDomain,
    IterationTrace,
    SolverConfig,
    SolverError,
    StepRecord,
    bounds,
    build_flat_torus,
    build_flat_torus4,
    fibration_diagnostics,
    linear_solve,
    monotone_iterate,
    pick_lambda,
    residual,
    _periodic_laplacian,
    _ShiftedSolver,
)

RNG = np.random.default_rng(4096)


def bump_problem(n, amplitude=1.0):
    spacing = 2.0 * np.pi / n
    domain = build_flat_torus(n, n, spacing)
    xs = np.arange(n) * spacing
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    w = (4.0 + amplitude * np.sin(X) * np.cos(Y)).ravel()
    return domain, w


# -------------------------------------------------------------------- domain

def test_torus_constant_in_kernel():
    domain = build_flat_torus(8, 12, 0.7)
    assert np.abs(domain.laplacian @ np.ones(domain.node_count)).max() < 1e-12


def test_torus_row_sums_zero():
    domain = build_flat_torus(6, 6)
    sums = np.asarray(domain.laplacian.sum(axis=1)).ravel()
    assert np.abs(sums).max() < 1e-12


def test_torus_fourier_eigenvalue():
    n, h = 16, 0.5
    domain = build_flat_torus(n, n, h)
    mode = np.repeat(np.cos(2 * np.pi * np.arange(n) / n), n)
    lam = -(2.0 - 2.0 * np.cos(2 * np.pi / n)) / h ** 2
    assert np.abs(domain.laplacian @ mode - lam * mode).max() < 1e-12


def test_torus_size_guards():
    with pytest.raises(ValueError):
        build_flat_torus(2, 8)
    with pytest.raises(ValueError):
        build_flat_torus(8, 8, 0.0)
    with pytest.raises(ValueError):
        build_flat_torus4(4, 4, 4, 32)


def test_domain_rejects_negative_couplings():
    L = sp.csr_matrix(np.array([[-1.0, 2.0, -1.0],
                                [2.0, -4.0, 2.0],
                                [-1.0, 2.0, -1.0]]))
    with pytest.raises(ValueError):
        DiscreteDomain(3, L, np.ones(3))


def test_domain_rejects_nonzero_row_sums():
    L = sp.csr_matrix(np.array([[-2.0, 1.0], [1.0, -2.0]]))
    with pytest.raises(ValueError):
        DiscreteDomain(2, L, np.ones(2))


# -------------------------------------------------------------------- bounds

def test_bounds_constant_field():
    assert bounds(np.full(10, 4.0)) == (1.0, 2.0)


def test_bounds_range_field():
    w = np.concatenate([np.ones(4), 9.0 * np.ones(4)])
    assert bounds(w) == (0.5, 3.0)


def test_bounds_rejects_zero_node():
    with pytest.raises(ValueError, match="strictly positive"):
        bounds(np.array([4.0, 0.0, 1.0]))


def test_pick_lambda_auto_and_explicit():
    # order preservation needs lambda >= 2 b; auto takes the boundary
    assert pick_lambda(2.0) == 4.0
    assert pick_lambda(2.0, 4.0) == 4.0
    assert pick_lambda(2.0, 4.5) == 4.5
    with pytest.raises(ValueError):
        pick_lambda(2.0, np.nextafter(4.0, 0.0))
    with pytest.raises(ValueError):
        pick_lambda(2.0, 3.0)


# ------------------------------------------------------------- linear solve

def test_linear_solve_constant_rhs():
    domain = build_flat_torus(8, 8)
    u = linear_solve(domain, 5.0, np.full(domain.node_count, 3.0))
    assert np.abs(u - 0.6).max() < 1e-13


def test_linear_solve_fourier_mode():
    n, h = 16, 0.5
    domain = build_flat_torus(n, n, h)
    mode = np.repeat(np.cos(2 * np.pi * np.arange(n) / n), n)
    lam_mode = -(2.0 - 2.0 * np.cos(2 * np.pi / n)) / h ** 2
    u = linear_solve(domain, 5.0, mode)
    assert np.abs(u - mode / (5.0 - lam_mode)).max() < 1e-12


def test_linear_solve_round_trip():
    domain = build_flat_torus(10, 10)
    rhs = RNG.standard_normal(domain.node_count)
    u = linear_solve(domain, 3.0, rhs)
    back = -(domain.laplacian @ u) + 3.0 * u
    assert np.abs(back - rhs).max() < 1e-12 * max(1.0, np.abs(rhs).max())


def test_order_preservation_50_pairs():
    domain = build_flat_torus(12, 12)
    for _ in range(50):
        r1 = RNG.uniform(0.0, 1.0, domain.node_count)
        r2 = r1 + RNG.uniform(0.0, 1.0, domain.node_count)
        v1 = linear_solve(domain, 5.0, r1)
        v2 = linear_solve(domain, 5.0, r2)
        assert (v1 <= v2 + 1e-12).all()


def test_iteration_map_preserves_bracket():
    domain = build_flat_torus(10, 10)
    w = RNG.uniform(1.0, 9.0, domain.node_count)
    a, b = bounds(w)
    lam = pick_lambda(b)
    for _ in range(30):
        u = RNG.uniform(a, b, domain.node_count)
        Tu = linear_solve(domain, lam, w - u * u + lam * u)
        assert (Tu >= a - 1e-12).all() and (Tu <= b + 1e-12).all()


# ----------------------------------------------------------------- residual

def test_residual_constant_solution():
    domain = build_flat_torus(8, 8)
    w = np.full(domain.node_count, 4.0)
    assert np.abs(residual(domain, np.full(domain.node_count, 2.0), w)).max() \
        < 1e-13


def test_residual_sub_and_supersolution_signs():
    domain, w = bump_problem(24)
    a, b = bounds(w)
    Ga = residual(domain, np.full(domain.node_count, a), w)
    Gb = residual(domain, np.full(domain.node_count, b), w)
    assert (Ga <= -0.75 * w.min() + 1e-12).all()
    assert (Gb >= -1e-12).all()


# ---------------------------------------------------------------- iteration

def test_monotone_iterate_constant_w():
    # w = 4: a = 1, b = 2, and lambda = 2 b = 4, the boundary of the
    # order-preserving range, where each step is u -> 1 + u - u^2 / 4
    domain = build_flat_torus(16, 16)
    for policy in ("auto", 4.0):
        u, trace = monotone_iterate(domain, np.full(domain.node_count, 4.0),
                                    SolverConfig(lambda_policy=policy, tol=1e-10))
        assert trace.lam == 2.0 * trace.b == 4.0
        assert np.abs(u - 2.0).max() < 1e-8
        assert trace.converged and trace.iterations > 1
        assert all(s.monotone_ok and s.bounds_ok for s in trace.steps)


def test_monotone_iterate_bump_64():
    domain, w = bump_problem(64)
    u, trace = monotone_iterate(domain, w, SolverConfig(tol=1e-10))
    assert trace.converged
    assert trace.final_residual < 1e-8
    assert (u > 0).all()
    assert all(s.monotone_ok and s.bounds_ok for s in trace.steps)
    # independent final gate
    assert np.abs(residual(domain, u, w)).max() < 1e-8


def test_tighter_tolerance_more_iterations_same_limit():
    domain, w = bump_problem(32)
    u6, t6 = monotone_iterate(domain, w, SolverConfig(tol=1e-6))
    u10, t10 = monotone_iterate(domain, w, SolverConfig(tol=1e-10))
    assert t10.iterations > t6.iterations
    assert np.abs(u6 - u10).max() < 1e-6


def test_final_residual_error_bound():
    domain, w = bump_problem(32)
    cfg = SolverConfig(tol=1e-9)
    u, trace = monotone_iterate(domain, w, cfg)
    bound = 10.0 * cfg.tol * (trace.lam + 2.0 * trace.b)
    assert trace.final_residual <= bound


def weighted_periodic_domain(n, seed):
    """A periodic n x n grid with seeded positive couplings in
    [0.5, 1.5] / h^2 on every edge, h = 2 pi / n, and node masses h^2;
    it carries no Fourier symbol, so it is solved by sparse LU."""
    h = 2.0 * np.pi / n
    rng = np.random.default_rng(seed)
    idx = np.arange(n * n).reshape(n, n)
    rows, cols, vals = [], [], []
    for axis in (0, 1):
        k = rng.uniform(0.5, 1.5, n * n) / h ** 2
        nb = np.roll(idx, -1, axis=axis).ravel()
        rows += [idx.ravel(), nb]
        cols += [nb, idx.ravel()]
        vals += [k, k]
    A = sp.coo_matrix((np.concatenate(vals),
                       (np.concatenate(rows), np.concatenate(cols))),
                      shape=(n * n, n * n)).tocsr()
    L = A - sp.diags(np.asarray(A.sum(axis=1)).ravel())
    domain = DiscreteDomain(n * n, L, np.full(n * n, h ** 2))
    xs = np.arange(n) * h
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    w = (4.0 + 2.0 * np.sin(X) * np.cos(Y)).ravel()
    return domain, w


def test_smallest_shift_converges_in_fewer_steps_to_the_same_solution():
    domain, w = weighted_periodic_domain(24, seed=5)
    a, b = bounds(w)
    u_auto, t_auto = monotone_iterate(domain, w, SolverConfig(tol=1e-10))
    u_old, t_old = monotone_iterate(
        domain, w, SolverConfig(lambda_policy=2.0 * b + 1.0, tol=1e-10))
    assert t_auto.lam == 2.0 * b
    assert t_auto.converged and t_old.converged
    assert t_auto.iterations < t_old.iterations
    # |G(u_{n+1})| <= lambda delta plus the linear solve's residual, and
    # G(u) - G(v) = (-lap + u + v)(u - v) with u + v >= 2 a, so the
    # maximum principle gives |u - v| <= (|G(u)| + |G(v)|) / (2 a)
    res = []
    for u, t in ((u_auto, t_auto), (u_old, t_old)):
        g = float(np.abs(residual(domain, u, w)).max())
        assert g <= t.lam * t.steps[-1].delta_sup + 1e-12 * (t.lam * b + w.max())
        res.append(g)
    assert np.abs(u_auto - u_old).max() <= sum(res) / (2.0 * a)


@pytest.mark.parametrize("problem", ["torus", "graph"])
def test_reported_residual_matches_independent_residual(problem):
    # replay the iteration with the same solver: the reported residual_sup
    # comes from G(u_{n+1}) = (u_{n+1} - u_n)(u_{n+1} + u_n - lambda) + r
    domain, w = (bump_problem(16, amplitude=2.0) if problem == "torus"
                 else weighted_periodic_domain(16, seed=3))
    _, trace = monotone_iterate(domain, w, SolverConfig(tol=1e-10))
    solver = _ShiftedSolver(domain, trace.lam)
    op_norm = abs(solver.op).sum(axis=1).max()
    u = np.full(domain.node_count, trace.a)
    for step in trace.steps:
        u = solver.solve(w - u * u + trace.lam * u)[0]
        assert (step.u_min, step.u_max) == (u.min(), u.max())
        direct = np.abs(residual(domain, u, w)).max()
        bound = 16 * EPS * (op_norm * np.abs(u).max() + np.abs(w).max())
        assert abs(step.residual_sup - direct) <= bound


def test_contraction_and_error_estimate():
    domain, w = bump_problem(64)
    u, trace = monotone_iterate(domain, w, SolverConfig(tol=1e-10))
    u_ref, _ = monotone_iterate(domain, w, SolverConfig(tol=1e-13))
    summary = trace.summary()
    assert summary["contraction"] == trace.contraction < 0.3
    assert summary["error_bound"] == trace.error_bound
    assert trace.error_bound >= np.abs(u - u_ref).max()


def test_contraction_absent_without_two_contracting_steps():
    domain = build_flat_torus(8, 8)
    _, trace = monotone_iterate(domain, np.full(domain.node_count, 4.0),
                                SolverConfig(tol=10.0))
    assert trace.iterations == 1
    assert trace.summary()["contraction"] is None
    assert trace.summary()["error_bound"] is None
    growing = IterationTrace(steps=[StepRecord(k, d, 0.0, 0.0, 0.0, True, True)
                                    for k, d in ((1, 1.0), (2, 1.0))])
    assert growing.contraction is None and growing.error_bound is None


def test_max_iter_exhaustion():
    domain, w = bump_problem(16)
    with pytest.raises(SolverError, match="no convergence"):
        monotone_iterate(domain, w, SolverConfig(tol=1e-12, max_iter=3))


def test_grid_refinement_second_order():
    def solve(n):
        domain, w = bump_problem(n)
        u, _ = monotone_iterate(domain, w, SolverConfig(tol=1e-11))
        return u.reshape(n, n)

    u32, u64, u128 = solve(32), solve(64), solve(128)
    d1 = np.abs(u64[::2, ::2] - u32).max()
    d2 = np.abs(u128[::2, ::2] - u64).max()
    assert 3.0 < d1 / d2 < 5.0


def test_four_torus_builder():
    domain = build_flat_torus4(4, 4, 4, 4)
    u, trace = monotone_iterate(domain, np.full(domain.node_count, 4.0),
                                SolverConfig(tol=1e-10))
    assert np.abs(u - 2.0).max() < 1e-8


def test_fibration_diagnostics_reported_not_asserted():
    u = np.full(9, 2.0)
    out = fibration_diagnostics(np.full(9, 12.0), u, 1.0)
    assert out["asserted"] is False
    assert out["linear_reading_sup"] < 1e-12      # R = 6 h^2 u reading
    assert out["quadratic_reading_sup"] > 1.0     # exponent mismatch visible


def test_w_recipe_from_fibration_fields():
    from torsiongeo.dilaton import w_from_fibration
    f1 = np.full(16, 2.0)
    f2 = np.full(16, 6.0)
    w = w_from_fibration(f1, f2)
    assert np.abs(w - 4.0).max() == 0.0
    with pytest.raises(ValueError):
        w_from_fibration(f1, -f2)
    # the recipe feeds the solver like any other positive field
    domain = build_flat_torus(4, 4)
    u, _ = monotone_iterate(domain, w, SolverConfig(tol=1e-10))
    assert np.abs(u - 2.0).max() < 1e-8


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_non_finite_inputs_rejected(bad):
    with pytest.raises(ValueError, match="finite"):
        bounds(np.array([4.0, bad, 1.0]))
    with pytest.raises(ValueError, match="finite"):
        build_flat_torus(4, 4, bad)
    with pytest.raises(ValueError, match="finite"):
        build_flat_torus4(3, 3, 3, 3, bad)
    with pytest.raises(ValueError, match="finite"):
        SolverConfig(tol=bad)
    with pytest.raises(ValueError, match="finite"):
        pick_lambda(2.0, bad)


def loop_periodic_laplacian(shape, spacing):
    """Reference assembly: COO triplets appended axis by axis."""
    n_total = int(np.prod(shape))
    idx = np.arange(n_total).reshape(shape)
    rows, cols, vals = [], [], []
    for axis in range(len(shape)):
        neighbor = np.roll(idx, -1, axis=axis)
        for a, b in ((idx, neighbor), (neighbor, idx)):
            rows.extend(a.ravel())
            cols.extend(b.ravel())
            vals.extend([1.0 / spacing ** 2] * n_total)
    L = sp.coo_matrix((vals, (rows, cols)), shape=(n_total, n_total)).tocsr()
    return (L - sp.diags(np.asarray(L.sum(axis=1)).ravel())).tocsr()


@pytest.mark.parametrize("shape, spacing", [((3, 3), 1.0), ((5, 4), 0.3),
                                            ((64, 64), 2 * np.pi / 64),
                                            ((3, 4, 5, 6), 0.7)])
def test_periodic_laplacian_matches_loop_assembly(shape, spacing):
    L, ref = _periodic_laplacian(shape, spacing), loop_periodic_laplacian(shape, spacing)
    for name in ("indptr", "indices", "data"):
        a, b = getattr(L, name), getattr(ref, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


# ------------------------------------------- FFT path against sparse LU

EPS = np.finfo(np.float64).eps


def torus(shape, spacing):
    """The torus builder's domain for shape, and the same Laplacian with
    no Fourier symbol, which the solver factorizes by sparse LU."""
    if len(shape) == 2:
        domain = build_flat_torus(*shape, spacing)
    else:
        domain = build_flat_torus4(*shape, spacing)
    return domain, DiscreteDomain(domain.node_count, domain.laplacian,
                                  domain.weights)


@pytest.mark.parametrize("symbol", [True, False], ids=["fft", "lu"])
def test_fine_spacing_iteration_converges(symbol):
    # ||Au - b|| / ||b|| grows like h^-2, so a gate on it refused this
    # problem at its first solve; the backward error stays near eps
    n = 32
    domain, plain = torus((n, n), 1e-3)
    w = np.random.default_rng(7).uniform(3.0, 5.0, n * n)
    _, trace = monotone_iterate(domain if symbol else plain, w,
                                SolverConfig(tol=1e-10))
    assert trace.converged
    assert all(s.monotone_ok and s.bounds_ok for s in trace.steps)


CROSS_SHAPES = [(3, 3), (5, 4), (7, 9), (16, 16), (3, 4, 5, 6)]


@pytest.mark.filterwarnings("error::DeprecationWarning")
@pytest.mark.parametrize("shape", CROSS_SHAPES)
def test_fft_solve_matches_sparse_lu(shape):
    domain, plain = torus(shape, 2.0 * np.pi / shape[-1])
    assert domain.symbol is not None and plain.symbol is None
    rng = np.random.default_rng(list(shape))
    rhs = rng.standard_normal(domain.node_count)
    assert np.abs(linear_solve(domain, 3.0, rhs)
                  - linear_solve(plain, 3.0, rhs)).max() < 1e-12
    w = rng.uniform(3.0, 5.0, domain.node_count)
    u_fft, t_fft = monotone_iterate(domain, w, SolverConfig(tol=1e-10))
    u_lu, t_lu = monotone_iterate(plain, w, SolverConfig(tol=1e-10))
    assert t_fft.iterations == t_lu.iterations
    assert np.abs(u_fft - u_lu).max() < 1e-12


@pytest.mark.parametrize("shape", CROSS_SHAPES)
def test_fft_matches_sparse_lu_at_fine_spacing(shape):
    # the two solves differ by their forward errors, each at most
    # cond(A) times the backward error, with cond(A) <= ||A|| / lambda
    # for this diagonally dominant operator; along the iteration they add
    # up to at most 1 / (1 - q) times that, q = (lambda - 2a) / lambda
    # (about 3 here)
    domain, plain = torus(shape, 1e-3)
    rng = np.random.default_rng(list(shape))
    w = rng.uniform(3.0, 5.0, domain.node_count)
    u_fft, trace = monotone_iterate(domain, w, SolverConfig(tol=1e-10))
    u_lu, _ = monotone_iterate(plain, w, SolverConfig(tol=1e-10))
    op_norm = abs(domain.laplacian).sum(axis=1).max() + trace.lam
    bound = 16 * EPS * (op_norm / trace.lam) * np.abs(u_fft).max()
    assert np.abs(u_fft - u_lu).max() <= bound
    rhs = rng.standard_normal(domain.node_count)
    v = linear_solve(domain, trace.lam, rhs)
    bound = 16 * EPS * (op_norm / trace.lam) * np.abs(v).max()
    assert np.abs(v - linear_solve(plain, trace.lam, rhs)).max() <= bound


def test_corrupted_symbol_rejected():
    domain = build_flat_torus(5, 4, 0.3)
    L, weights, good = domain.laplacian, domain.weights, domain.symbol

    def corrupt(index, factor):
        s = good.copy()
        s[index] *= factor
        return s

    bad_symbols = [
        corrupt((2, 1), 1.0 + 1e-6),
        corrupt((1, 3), 1.0 + 1e-6),   # a mode rfftn leaves out of the solve
        good * 1.01,
        good.T,                        # the (4, 5) grid's numbering
        np.zeros((5, 4)),
        np.full((5, 4), np.nan),
        good[:, :3],
    ]
    for bad in bad_symbols:
        with pytest.raises(ValueError, match="symbol"):
            DiscreteDomain(20, L, weights, bad)
    assert np.array_equal(DiscreteDomain(20, L, weights, good).symbol, good)


# ------------------------------------------- sparse LU on an irregular graph

def random_graph_domain(n=300, seed=11):
    """A connected weighted graph on n random points of the unit square:
    each point is joined to every point within distance 0.1 and to one
    random earlier point (a spanning tree), with random positive
    couplings.  Node masses are random too, so -lap is not symmetric."""
    rng = np.random.default_rng(seed)
    pts = rng.random((n, 2))
    dist = np.linalg.norm(pts[:, None] - pts[None], axis=-1)
    near = np.argwhere(np.triu(dist < 0.1, 1))
    tree = np.column_stack([rng.integers(0, np.arange(1, n)), np.arange(1, n)])
    i, j = np.concatenate([near, tree]).T
    A = sp.coo_matrix((rng.uniform(0.5, 2.0, i.size), (i, j)), shape=(n, n))
    A = (A + A.T).tocsr()
    mass = rng.uniform(0.5, 2.0, n)
    L = sp.diags(1.0 / mass) @ (A - sp.diags(np.asarray(A.sum(axis=1)).ravel()))
    return DiscreteDomain(n, L, mass)


def test_sparse_lu_matches_dense_solve_on_irregular_graph():
    domain = random_graph_domain()
    degrees = np.diff(domain.laplacian.indptr)
    assert domain.symbol is None and degrees.min() < degrees.max()
    lam = 3.0
    rhs = np.random.default_rng(12).standard_normal(domain.node_count)
    u = linear_solve(domain, lam, rhs)
    dense = -domain.laplacian.toarray() + lam * np.eye(domain.node_count)
    # -lap + lambda is row diagonally dominant by lambda, so
    # cond(A) <= ||A|| / lambda in the sup norm
    op_norm = np.abs(dense).sum(axis=1).max()
    bound = 16 * EPS * (op_norm / lam) * np.abs(u).max()
    assert np.abs(u - np.linalg.solve(dense, rhs)).max() <= bound


def test_monotone_iterate_on_irregular_graph():
    domain = random_graph_domain()
    w = np.random.default_rng(13).uniform(3.0, 5.0, domain.node_count)
    u, trace = monotone_iterate(domain, w, SolverConfig(tol=1e-10))
    assert trace.converged
    assert all(s.monotone_ok and s.bounds_ok for s in trace.steps)
    assert np.abs(residual(domain, u, w)).max() < 1e-8


@pytest.mark.parametrize("spoil", [lambda u: u * (1.0 + 1e-9),
                                   lambda u: np.full_like(u, np.nan)],
                         ids=["perturbed", "nan"])
def test_linear_solve_refuses_large_backward_error(spoil):
    domain = build_flat_torus(8, 8)
    solver = _ShiftedSolver(domain, 5.0)
    exact = solver._solve
    solver._solve = lambda rhs: spoil(exact(rhs))
    with pytest.raises(SolverError, match="backward error"):
        solver.solve(RNG.uniform(1.0, 2.0, domain.node_count))
