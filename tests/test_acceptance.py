"""Acceptance suite: each criterion runs at its stated tolerance and
prints one pass/fail line.  Sampling fixtures are session-scoped, so
the timed criteria include their share of generation cost."""

import time

import numpy as np

from torsiongeo.catalog import _flat, _su2
from torsiongeo.decomposition import decompose
from torsiongeo.dilaton import (
    SolverConfig,
    build_flat_torus,
    linear_solve,
    monotone_iterate,
    residual,
)
from torsiongeo.fibration_topology import (
    TopologyData,
    build_su3_fibration,
    chern_topology,
    enumerate_diophantine,
    fit_fiber_rotation,
    frestrict_residual,
    quaternionic_orientation,
    sd_asd_split,
    wedge_trace,
)
from torsiongeo.frame_algebra import (
    FrameTensor,
    basis_form,
    epsilon3,
)
from torsiongeo.invariant_geometry import (
    HypothesesNotMet,
    LieFrameGeometry,
    bianchi_report,
    direct_sum,
)
from torsiongeo.special_structures import (
    bryant_positivity,
    build_g2,
    build_spin7,
    hkt_report,
    spin7_report,
    standard_quaternion_triple,
)

EPS3 = epsilon3()


def report(line, ok):
    print(f"[{'PASS' if ok else 'FAIL'}] {line}")
    assert ok


def test_criterion_1_bianchi_suite():
    """100 randomized geometries, dim 3-6: both curvature identities and
    the closed-torsion pair symmetry below 1e-10 in under 10 s,
    generation included."""
    from torsiongeo.random_geometry import random_geometry

    t0 = time.time()
    suite = [random_geometry(np.random.default_rng(1000 + i), 3 + (i % 4),
                             closed_torsion=True) for i in range(100)]
    worst = 0.0
    for geom in suite:
        first, second, pair, _ = bianchi_report(geom)
        worst = max(
            worst,
            first.row("first_bianchi").value,
            second.row("second_bianchi").value,
            pair.row("pair_symmetry").value,
        )
    elapsed = time.time() - t0
    ok = worst < 1e-10 and elapsed < 10.0
    report(f"criterion 1: bianchi suite on 100 samples, worst residual "
           f"{worst:.2e}, {elapsed:.1f}s incl. generation", ok)


def test_criterion_2_parallel_torsion_conclusions(closed_torsion_suite,
                                                  parallel_torsion_suite):
    """Every sample with closed, plus-parallel torsion has Levi-Civita
    parallel torsion and satisfies the Jacobi identity, to 1e-10."""
    satisfied = 0
    worst = 0.0
    for geom in list(closed_torsion_suite) + list(parallel_torsion_suite):
        rep = bianchi_report(geom)[3]
        if not rep.hypotheses_met:
            continue
        satisfied += 1
        worst = max(worst, rep.row("nabla_H").value, rep.row("jacobi_H").value)
    ok = satisfied >= 20 and worst < 1e-10
    report(f"criterion 2: {satisfied} hypothesis-satisfying samples, worst "
           f"conclusion residual {worst:.2e}", ok)


def test_criterion_3_su3_construction(su3_built):
    t0 = time.time()
    geom, triple = su3_built
    rep = hkt_report(geom, triple, tol=1e-10)
    worst = max(r.value for r in rep.rows)
    # the Cartan direction of the root difference has squared length 6
    diff = np.array([1.0 / np.sqrt(2.0) - 1.0 / np.sqrt(2.0),
                     np.sqrt(1.5) + np.sqrt(1.5)])
    length_sq = float(diff @ diff)
    res = decompose(geom, tol=1e-10)
    elapsed = time.time() - t0
    ok = (rep.passed and worst < 1e-10
          and abs(length_sq - 6.0) < 1e-12
          and res.kernel_dim == 0
          and res.block_names == ["su(3)"]
          and elapsed < 5.0)
    report(f"criterion 3: full HKT report (worst {worst:.2e}), root "
           f"difference norm^2 {length_sq:.12f}, split kernel "
           f"{res.kernel_dim} blocks {res.block_names}, {elapsed:.2f}s", ok)


def test_criterion_4_splitting_desk_cases():
    res6 = decompose(direct_sum(_su2(), _flat(3)))
    res8 = decompose(direct_sum(_su2(), _su2(), _flat(2)))

    ok = (res6.kernel_dim == 3 and res6.flat_block_factors == ["su(2)"]
          and res8.kernel_dim == 2
          and res8.flat_block_factors == ["su(2)", "su(2)"])
    report(f"criterion 4: kernel {res6.kernel_dim} + {res6.flat_block_factors}"
           f" and kernel {res8.kernel_dim} + {res8.flat_block_factors}", ok)


def test_criterion_5_g2_spin7():
    phi = build_g2()
    B = bryant_positivity(phi)
    bryant_dev = float(np.abs(B - np.eye(7)).max())

    cayley = spin7_report(direct_sum(_flat(8)), build_spin7(phi))
    sd = cayley.row("self_duality").value
    ww = cayley.row("wedge_square_vs_14vol").value

    prod = build_g2(standard_quaternion_triple(7, (3, 4, 5, 6)))
    plus = np.linalg.eigvalsh(bryant_positivity(prod))
    minus = np.linalg.eigvalsh(bryant_positivity(prod, -1))
    exactly_one = ((plus > 0).all() and not (minus > 0).all()) or \
                  ((minus > 0).all() and not (plus > 0).all())

    ok = bryant_dev < 1e-12 and sd < 1e-12 and ww < 1e-12 and exactly_one
    report(f"criterion 5: positivity matrix dev {bryant_dev:.2e}, "
           f"self-duality {sd:.2e}, wedge square vs 14 vol {ww:.2e}, "
           f"product form positive in exactly one orientation: {exactly_one}",
           ok)


def test_criterion_6_su3_fibration():
    pc, triple = build_su3_fibration()
    B = fit_fiber_rotation(pc, triple)
    eps_dev = float(np.abs(B[1:] - np.stack([EPS3[r] for r in range(3)])).max())
    eps_dev = max(eps_dev, float(np.abs(B[0]).max()))
    fres = frestrict_residual(pc, B, triple)
    wt = wedge_trace(pc).sup_norm
    sign = quaternionic_orientation(triple)
    asd = sd_asd_split(pc.component(0), sign)[0].sup_norm
    ok = fres < 1e-10 and eps_dev < 1e-10 and wt < 1e-12 and asd < 1e-10
    report(f"criterion 6: frestrict {fres:.2e} (eps-rep dev {eps_dev:.2e}), "
           f"wedge trace {wt:.2e}, abelian self-dual part {asd:.2e}", ok)


def test_criterion_7_topology():
    t0 = time.time()
    cp2 = chern_topology(TopologyData(1, (1,), 3, -1))
    s4 = chern_topology(TopologyData(0, (), 2, 0))
    sols = enumerate_diophantine(12)
    elapsed = time.time() - t0
    ok = (cp2["obstruction"] == 0 and cp2["c2E"] == -1
          and s4["obstruction"] == 4
          and sols == [(1, (1,)), (4, (0, 0, 0, 0))]
          and elapsed < 1.0)
    report(f"criterion 7: reversed-plane obstruction {cp2['obstruction']} "
           f"c2E {cp2['c2E']}, sphere obstruction {s4['obstruction']}, "
           f"solutions {sols}, {elapsed:.3f}s", ok)


def test_criterion_8_dilaton_solver():
    t0 = time.time()
    rng = np.random.default_rng(17)

    dom = build_flat_torus(16, 16)
    u_const, _ = monotone_iterate(dom, np.full(dom.node_count, 4.0),
                                  SolverConfig(tol=1e-10))
    const_dev = float(np.abs(u_const - 2.0).max())

    n = 64
    spacing = 2.0 * np.pi / n
    dom64 = build_flat_torus(n, n, spacing)
    xs = np.arange(n) * spacing
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    w64 = (4.0 + np.sin(X) * np.cos(Y)).ravel()
    u64, trace = monotone_iterate(dom64, w64, SolverConfig(tol=1e-10))
    monotone = all(s.monotone_ok and s.bounds_ok for s in trace.steps)
    res64 = float(np.abs(residual(dom64, u64, w64)).max())

    dom12 = build_flat_torus(12, 12)
    order_ok = True
    for _ in range(50):
        r1 = rng.uniform(0.0, 1.0, dom12.node_count)
        r2 = r1 + rng.uniform(0.0, 1.0, dom12.node_count)
        order_ok &= bool((linear_solve(dom12, 5.0, r1)
                          <= linear_solve(dom12, 5.0, r2) + 1e-12).all())

    def solve(m):
        d = build_flat_torus(m, m, 2.0 * np.pi / m)
        x = np.arange(m) * 2.0 * np.pi / m
        XX, YY = np.meshgrid(x, x, indexing="ij")
        w = (4.0 + np.sin(XX) * np.cos(YY)).ravel()
        u, _ = monotone_iterate(d, w, SolverConfig(tol=1e-11))
        return u.reshape(m, m)

    u32, u64g, u128 = solve(32), solve(64), solve(128)
    ratio = float(np.abs(u64g[::2, ::2] - u32).max()
                  / np.abs(u128[::2, ::2] - u64g).max())
    elapsed = time.time() - t0
    ok = (const_dev < 1e-8 and res64 < 1e-8 and monotone and order_ok
          and 3.0 < ratio < 5.0 and elapsed < 60.0)
    report(f"criterion 8: constant-w dev {const_dev:.2e}, bump residual "
           f"{res64:.2e} (monotone {monotone}), order preservation "
           f"{order_ok}, refinement ratio {ratio:.2f}, {elapsed:.1f}s", ok)


def test_criterion_9_negative_controls():
    # open torsion: pair symmetry fails with a concrete witness
    geom_bad = LieFrameGeometry(6, direct_sum(_su2(), _su2()).c, basis_form(6, (0, 3, 4)))
    pair = bianchi_report(geom_bad)[2]
    witness_pair = pair.row("pair_symmetry").value
    refused = False
    try:
        decompose(geom_bad)
    except HypothesesNotMet:
        refused = True

    tq = standard_quaternion_triple()
    broken = tq[[0, 0, 2]]
    flat4 = LieFrameGeometry(4, np.zeros((4, 4, 4)),
                             FrameTensor(4, 3, np.zeros((4, 4, 4))))
    hkt = hkt_report(flat4, broken)
    witness_hkt = hkt.row("quaternion_relations").value

    s4 = chern_topology(TopologyData(0, (), 2, 0))

    ok = (witness_pair > 0.1 and refused
          and witness_hkt > 1.0 and not hkt.passed
          and s4["obstruction"] == 4 and not s4["admits_hkt_fibration"])
    report(f"criterion 9: pair-symmetry witness {witness_pair:.3f}, "
           f"splitting refused {refused}, quaternion witness "
           f"{witness_hkt:.1f}, sphere obstruction {s4['obstruction']}", ok)
