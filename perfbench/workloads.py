"""Seeded inputs, operations and output checks of the benchmark workloads.

Each builder writes what the program will read into ``workdir`` and
returns ``(rounds, warmup)``: ``rounds`` is one pass over the workload's
inputs, a list of rounds, each a list of ``Op``; ``warmup`` is a list of
ops run during set-up.  ``Op.call`` is the timed call into torsiongeo;
``Op.check`` inspects its result afterwards and returns an error message
or ``None``.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np
import scipy.sparse as sp

from torsiongeo import cli, dilaton, geometry_io, random_geometry

TOL = 1e-10
EPS = np.finfo(np.float64).eps


@dataclass
class Op:
    label: str
    call: Callable[[], object]
    check: Callable[[object], "str | None"]
    units: float = 1.0      # work credited when the op succeeds
    kind: str = ""


@dataclass
class CliResult:
    code: int
    text: str


def tg(argv) -> CliResult:
    """Run ``tg argv`` in-process, capturing what it prints."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main([str(a) for a in argv])
    return CliResult(code, out.getvalue())


def _report(res: CliResult, codes) -> dict:
    if res.code not in codes:
        raise ValueError(f"exit {res.code}, expected one of {sorted(codes)}")
    return json.loads(res.text)


def _row_errors(report: dict, names=None) -> list:
    """Rows (optionally only those named) whose stored verdict disagrees
    with |value| <= tol or that fail while asserted."""
    bad = []
    for sub in report["reports"]:
        for row in sub["rows"]:
            if names is not None and row["name"] not in names:
                continue
            ok = (not row["asserted"]) or abs(row["value"]) <= row["tol"]
            if row["passed"] != ok or not ok:
                bad.append(f"{sub['title']}/{row['name']}={row['value']:.3e}")
    return bad


# ---------------------------------------------------------------- catalog

# `tg decompose --example <name>` verdicts at the seed commit.  The
# fibration entry raised AttributeError there, so it has no verdict.
CATALOG_VERDICTS = {
    "su2-biinvariant": "algebraic certificate consistent with the local model su(2): "
                       "torsion-free factor of dimension 0, semisimple blocks ['su(2)']",
    "su2su2": "algebraic certificate consistent with the local model su(2) x su(2): "
              "torsion-free factor of dimension 0, semisimple blocks ['su(2)', 'su(2)']",
    "su2-plus-abelian3": "algebraic certificate consistent with the local model R^3 x su(2): "
                         "torsion-free factor of dimension 3, semisimple blocks ['su(2)']",
    "su2su2-plus-abelian2": "algebraic certificate consistent with the local model "
                            "R^2 x su(2) x su(2): torsion-free factor of dimension 2, "
                            "semisimple blocks ['su(2)', 'su(2)']",
    "su3-hkt": "algebraic certificate consistent with the local model su(3): "
               "torsion-free factor of dimension 0, semisimple blocks ['su(3)']",
    "flat-r4-quaternion": "algebraic certificate consistent with the local model R^4: "
                          "torsion-free factor of dimension 4, semisimple blocks none",
    "g2-standard": "algebraic certificate consistent with the local model R^7: "
                   "torsion-free factor of dimension 7, semisimple blocks none",
    "g2-su2-product": "algebraic certificate consistent with the local model R^4 x su(2): "
                      "torsion-free factor of dimension 4, semisimple blocks ['su(2)']",
    "spin7-standard": "algebraic certificate consistent with the local model R^8: "
                      "torsion-free factor of dimension 8, semisimple blocks none",
    "su3-fibration": None,
}

# topology problems and the exit status each must produce
TOPOLOGY_CASES = [
    ({"k": 1, "n": [1], "chi": 3, "tau": -1}, 0),
    ({"k": 0, "n": [], "chi": 2, "tau": 0}, 1),
    ({"k": 2, "n": [1], "chi": 4, "tau": -2}, 2),   # n too short: input error
]


def check_verify(res: CliResult):
    report = _report(res, {0})
    bad = _row_errors(report)
    if not report["passed"] or bad:
        return f"verify failed: {bad}"
    return None


def check_decompose(name: str, res: CliResult):
    expected = CATALOG_VERDICTS[name]
    report = _report(res, {0} if expected else {0, 1})
    if expected is None:
        return None if ("verdict" in report or "error" in report) else "no verdict"
    if report.get("verdict") != expected:
        return f"verdict {report.get('verdict')!r}"
    return None


def check_topology(case: dict, code: int, res: CliResult):
    if code == 2:
        return None if res.code == 2 and not res.text else f"exit {res.code}"
    report = _report(res, {code})
    c1_sq = -sum(x * x for x in case["n"])
    obstruction = 3 * c1_sq + 2 * case["chi"] + 3 * case["tau"]
    if report["classes"]["obstruction"] != obstruction:
        return f"obstruction {report['classes']['obstruction']} != {obstruction}"
    if report["passed"] != (code == 0):
        return "passed flag disagrees with exit status"
    return None


def catalog_sweep(seed: int, workdir):
    ops = []
    for name in CATALOG_VERDICTS:
        ops.append(Op(f"verify {name}", partial(
            tg, ["verify", "--example", name, "--format", "json"]), check_verify))
        ops.append(Op(f"decompose {name}", partial(
            tg, ["decompose", "--example", name, "--format", "json"]),
            partial(check_decompose, name)))
    for i, (case, code) in enumerate(TOPOLOGY_CASES):
        path = workdir / f"topology-{i}.json"
        path.write_text(json.dumps(case))
        ops.append(Op(f"topology exit {code}", partial(
            tg, ["topology", "--input", path, "--format", "json"]),
            partial(check_topology, case, code)))
    order = np.random.default_rng(seed).permutation(len(ops))
    ops = [ops[i] for i in order]
    (workdir / "catalog-order.json").write_text(json.dumps([op.label for op in ops]))
    return [ops], ops


# ---------------------------------------------------------- random suite

SUITE_ROUNDS = 8   # 128 samples: enough that per-seed cost differences average out
# one round: every dimension 3..6, twice with closed and twice with generic torsion
SUITE_SHAPES = [(dim, closed) for closed in (True, False) for dim in (3, 4, 5, 6)] * 2
IDENTITY_ROWS = {"first_bianchi", "second_bianchi", "bwf_residual", "pair_symmetry"}


def suite_sample(rng_seed, dim: int, closed: bool, path) -> CliResult:
    rng = np.random.default_rng(rng_seed)
    geom = random_geometry.random_geometry(rng, dim, closed_torsion=closed)
    geometry_io.save_geometry(path, geom)
    return tg(["verify", "--input", path, "--format", "json"])


def check_identities(res: CliResult):
    # exit 1 is expected: the soliton and lccc hypotheses fail on random data
    report = _report(res, {0, 1})
    bad = _row_errors(report, IDENTITY_ROWS)
    seen = {row["name"] for sub in report["reports"] for row in sub["rows"]}
    missing = IDENTITY_ROWS - seen
    if bad or missing:
        return f"identity rows failed {bad} missing {sorted(missing)}"
    return None


def random_suite(seed: int, workdir):
    rounds, specs = [], []
    for r in range(SUITE_ROUNDS):
        ops = []
        for j, (dim, closed) in enumerate(SUITE_SHAPES):
            index = r * len(SUITE_SHAPES) + j
            rng_seed = [seed, index]
            specs.append({"dim": dim, "closed": closed, "rng": rng_seed})
            kind = "closed" if closed else "generic"
            ops.append(Op(f"sample dim {dim} {kind}", partial(
                suite_sample, rng_seed, dim, closed, workdir / f"sample-{index}.json"),
                check_identities))
        rounds.append(ops)
    (workdir / "suite-samples.json").write_text(json.dumps(specs))
    return rounds, rounds[0]


# --------------------------------------------------------- dilaton grids

GRID_SIZES = (64, 128, 256)


def _source(rng, n: int, spacing: float) -> np.ndarray:
    """w = 4 + 2 sin(x + phi) cos(y + psi) with seeded phases.  The fixed
    amplitude keeps the bracket [a, b], and so the iteration count, the
    same for every seed."""
    phi, psi = rng.uniform(0.0, 2.0 * np.pi, 2)
    xs = np.arange(n) * spacing
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    return (4.0 + 2.0 * np.sin(X + phi) * np.cos(Y + psi)).ravel()


def periodic_graph(kx: np.ndarray, ky: np.ndarray) -> sp.csr_matrix:
    """Graph Laplacian of the periodic grid whose edge (i,j)-(i+1,j) has
    weight kx[i,j] and edge (i,j)-(i,j+1) weight ky[i,j]."""
    n1, n2 = kx.shape
    idx = np.arange(n1 * n2).reshape(n1, n2)
    rows, cols, vals = [], [], []
    for axis, k in ((0, kx), (1, ky)):
        nb = np.roll(idx, -1, axis=axis)
        rows += [idx.ravel(), nb.ravel()]
        cols += [nb.ravel(), idx.ravel()]
        vals += [k.ravel(), k.ravel()]
    n = n1 * n2
    L = sp.coo_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                      shape=(n, n)).tocsr()
    return (L - sp.diags(np.asarray(L.sum(axis=1)).ravel())).tocsr()


def grid_residual(u, w, kx, ky) -> float:
    """sup |-lap(u) + u^2 - w| evaluated stencil-wise, independently of
    the program's sparse operator."""
    U = np.asarray(u, dtype=np.float64).reshape(kx.shape)
    lap = (kx * (np.roll(U, -1, 0) - U) + np.roll(kx, 1, 0) * (np.roll(U, 1, 0) - U)
           + ky * (np.roll(U, -1, 1) - U) + np.roll(ky, 1, 1) * (np.roll(U, 1, 1) - U))
    return float(np.abs(-lap + U * U - w.reshape(kx.shape)).max())


def _solution_error(u, w, kx, ky, summary: dict):
    """Checks a monotone-iteration result; the bound follows from
    G(u_{n+1}) = (u_{n+1} - u_n)(u_{n+1} + u_n - lambda), |.| <= lambda delta,
    plus the solver's 1e-12 relative residual and stencil roundoff."""
    if not (summary["converged"] and summary["monotone_ok"] and summary["bounds_ok"]):
        return "not converged or monotone/bounds flag false"
    lam, b = summary["lambda"], summary["b"]
    delta = summary["steps"][-1]["delta_sup"]
    if delta >= TOL:
        return f"final delta {delta:.3e}"
    scale = 4.0 * max(kx.max(), ky.max()) * b + b * b + w.max()
    bound = lam * delta + 1e-12 * (lam * b + w.max()) + 32 * EPS * scale
    res = grid_residual(u, w, kx, ky)
    return None if res <= bound else f"residual {res:.3e} above {bound:.3e}"


def check_torus(w, k, res: CliResult):
    report = _report(res, {0, 1})
    if res.code == 1:
        return f"exit 1: {report.get('error')}"
    return _solution_error(report["u"], w, k, k, report["trace"])


def solve_graph(laplacian, spacing: float, w):
    n = laplacian.shape[0]
    domain = dilaton.DiscreteDomain(n, laplacian, np.full(n, spacing ** 2))
    return dilaton.monotone_iterate(domain, w, dilaton.SolverConfig(tol=TOL))


def check_graph(w, kx, ky, result):
    u, trace = result
    return _solution_error(u, w, kx, ky, trace.summary())


def dilaton_grids(seed: int, workdir):
    rng = np.random.default_rng(seed)
    ops = []
    for n in GRID_SIZES:
        h = 2.0 * np.pi / n
        w = _source(rng, n, h)
        path = workdir / f"torus-{n}.json"
        path.write_text(json.dumps({"grid": [n, n], "spacing": h, "w": w.tolist(),
                                    "tol": TOL}))
        kflat = np.full((n, n), 1.0 / h ** 2)
        ops.append(Op(f"dilaton torus {n}", partial(
            tg, ["dilaton", "--input", path, "--format", "json"]),
            partial(check_torus, w, kflat),
            units=n * n, kind="torus"))
        path = workdir / f"graph-{n}.npy"
        np.save(path, np.stack([_source(rng, n, h).reshape(n, n),
                                *rng.uniform(0.5, 1.5, (2, n, n)) / h ** 2]))
        W, kx, ky = np.load(path)
        w = W.ravel()
        ops.append(Op(f"dilaton graph {n}", partial(
            solve_graph, periodic_graph(kx, ky), h, w),
            partial(check_graph, w, kx, ky), units=n * n, kind="graph"))
    return [ops], ops[:2]


WORKLOADS = {
    "catalog-sweep": catalog_sweep,
    "random-suite": random_suite,
    "dilaton-grids": dilaton_grids,
}

# Failures present at the seed commit, matched by op label and error
# prefix.  They are counted as failed operations; any other failure, or a
# wrong output, makes the run incorrect.
KNOWN_FAILURES = {
    "decompose su3-fibration": "AttributeError: 'PrincipalCurvature' object has no attribute 'H'",
    "dilaton torus 256": "exit 1: linear solve residual",
    "dilaton graph 256": "SolverError: linear solve residual",
}


def is_known_failure(label: str, error: str) -> bool:
    prefix = KNOWN_FAILURES.get(label)
    return prefix is not None and error.startswith(prefix)
