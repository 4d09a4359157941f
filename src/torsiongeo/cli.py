"""Command-line entry point: tg <command> [options].

Commands: verify, decompose, topology, dilaton, catalog.  Exit status
0 means every asserted residual passed, 1 a mathematical failure with a
report, 2 an input error without a report.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from . import __version__
from .frame_algebra import EpsilonOrientation, FrameTensor, basis_vector, form_inner, interior_product
from .invariant_geometry import (
    HypothesesNotMet,
    LieFrameGeometry,
    bianchi_report,
    bochner_report,
    curvature,
    d_invariant,
    lie_jacobi_residual,
    soliton_report,
    with_torsion,
)
from .decomposition import decompose
from .special_structures import (
    G2Data,
    bryant_positivity,
    hkt_report,
    kt_report,
    parallel_residual,
)
from .fibration_topology import (
    TopologyData,
    chern_topology,
    enumerate_diophantine,
    fit_fiber_rotation,
    frestrict_residual,
    quaternionic_orientation,
    sd_asd_split,
    wedge_trace,
)
from .dilaton import (
    SolverConfig,
    SolverError,
    build_flat_torus,
    fibration_diagnostics,
    monotone_iterate,
    residual as dilaton_residual,
)
from .reporting import StructureReport
from .catalog import CATALOG, catalog_entry
from .geometry_io import geometry_from_dict, structures_from_dict

EXIT_OK = 0
EXIT_MATH = 1
EXIT_INPUT = 2


class InputError(ValueError):
    pass


def _geometry_reports(geom, tol):
    reports = []
    for which in ("first", "second", "pair_symmetry", "lccc"):
        reports.append(bianchi_report(geom, which, tol))
    dH = d_invariant(geom.H, geom).sup_norm
    if dH <= tol:
        reports.append(soliton_report(
            geom, FrameTensor(geom.dim, 1, np.zeros(geom.dim)), tol))
    reports.append(bochner_report(geom, max(tol, 1e-9)))
    flat = StructureReport("connection-survey")
    for sign in (1, -1):
        cur = curvature(geom, with_torsion(geom, sign))
        flat.add(f"curvature_sup_sign_{sign:+d}",
                 float(np.abs(cur.riemann).max()), np.inf,
                 identity="flat-connection-scan", asserted=False)
    flat.notes.append("a vanishing row detects a flat parallelizing "
                      "torsion connection")
    if not geom.unimodular:
        flat.notes.append("geometry is not unimodular: integration by "
                          "parts checks are informational")
    reports.append(flat)
    return reports


def _hkt_reports(geom, triple, tol):
    return _geometry_reports(geom, tol) + [hkt_report(geom, triple, tol=tol)]


def _g2_reports(geom, g2: G2Data, tol):
    rep = StructureReport("g2-positivity")
    B = bryant_positivity(g2)
    eigs = np.linalg.eigvalsh(B)
    rep.add("bryant_min_eig_positive", min(0.0, float(eigs.min())), tol,
            identity="positivity-of-the-3-form",
            note=f"eigenvalues in [{eigs.min():.3f}, {eigs.max():.3f}]")
    if np.abs(geom.c).max() > 0:
        rep.add("dH", d_invariant(geom.H, geom).sup_norm, tol,
                identity="torsion-closure")
        rep.add("nabla_hat_phi", parallel_residual(g2.phi, geom, 1), tol,
                identity="torsion-parallelism")
    return _geometry_reports(geom, tol) + [rep]


def _spin7_reports(geom, data, build_report, tol):
    rep = StructureReport("spin7")
    for row in build_report.rows:
        rep.add(row.name, row.value, max(row.tol, tol), row.identity)
    x = data.Phi
    for idx in (3, 2, 1):
        x = interior_product(basis_vector(8, idx), x)
    rep.add("triple_contraction_length_minus_1",
            float(np.sqrt(form_inner(x, x))) - 1.0, tol,
            identity="associative-triple-contraction")
    return _geometry_reports(geom, tol) + [rep]


def _fibration_reports(pc, tol):
    rep = StructureReport("su3-fibration")
    omegas = [o.components for o in pc.hermitian_forms]
    B = fit_fiber_rotation(pc, omegas)
    rep.add("frestrict_residual", frestrict_residual(pc, B, omegas), tol,
            identity="horizontality-constraint")
    rep.add("rotation_B0", float(np.abs(B[0]).max()), tol,
            identity="commuting-line-acts-trivially")
    eps = EpsilonOrientation(3).epsilon
    h_fit = float(B[1][1, 2])
    rep.add("rotation_eps_pattern",
            float(np.abs(B[1:] - h_fit * eps).max()), tol,
            identity="epsilon-representation",
            note=f"fitted scale h = {h_fit:g}")
    rep.add("wedge_trace", wedge_trace(pc).sup_norm, max(tol, 1e-12),
            identity="closure-obstruction")
    orient = quaternionic_orientation(pc.hermitian_forms)
    plus, _ = sd_asd_split(pc.component(0), orient)
    rep.add("u1_self_dual_part", plus.sup_norm, tol,
            identity="abelian-curvature-anti-self-dual")
    rep.add("fiber_jacobi", lie_jacobi_residual(pc.fiber_structure), tol,
            identity="jacobi-identity")
    return [rep]


def run_verify(cfg) -> tuple:
    tol = cfg["tol"]
    if cfg.get("example"):
        entry = catalog_entry(cfg["example"])
        built = entry.build()
        if entry.kind == "geometry":
            reports = _geometry_reports(built, tol)
        elif entry.kind == "hkt":
            reports = _hkt_reports(built[0], built[1], tol)
        elif entry.kind == "g2":
            reports = _g2_reports(built[0], built[1], tol)
        elif entry.kind == "spin7":
            reports = _spin7_reports(built[0], built[1], built[2], tol)
        elif entry.kind == "fibration":
            reports = _fibration_reports(built, tol)
        else:
            raise InputError(f"unhandled catalog kind {entry.kind}")
        source = cfg["example"]
    else:
        data = _load_json(cfg["input"])
        try:
            geom = geometry_from_dict(data)
            structures = structures_from_dict(data, geom.dim)
        except (KeyError, ValueError, TypeError) as exc:
            raise InputError(f"bad geometry file: {exc}") from exc
        reports = _geometry_reports(geom, tol)
        if "triple" in structures:
            reports.append(hkt_report(geom, structures["triple"], tol=tol))
        if "J" in structures:
            reports.append(kt_report(geom, structures["J"], tol=tol))
        if "phi" in structures:
            reports += _g2_reports(geom,
                                   G2Data(structures["phi"], EpsilonOrientation(7)),
                                   tol)[-1:]
        source = cfg["input"]
    return _assemble("verify", source, reports)


def run_decompose(cfg) -> tuple:
    tol = cfg["tol"]
    if cfg.get("example"):
        entry = catalog_entry(cfg["example"])
        built = entry.build()
        geom = built[0] if isinstance(built, tuple) else built
        source = cfg["example"]
    else:
        data = _load_json(cfg["input"])
        try:
            geom = geometry_from_dict(data)
        except (KeyError, ValueError, TypeError) as exc:
            raise InputError(f"bad geometry file: {exc}") from exc
        source = cfg["input"]
    try:
        if not isinstance(geom, LieFrameGeometry):
            raise HypothesesNotMet(f"decompose needs a Lie-frame geometry; catalog "
                                   f"entry {source!r} holds {entry.kind} data")
        result = decompose(geom, tol)
    except HypothesesNotMet as exc:
        report = {
            "artifact": "torsiongeo",
            "version": __version__,
            "command": "decompose",
            "input": source,
            "passed": False,
            "error": str(exc),
        }
        return report, EXIT_MATH
    payload = result.to_dict()
    report = {
        "artifact": "torsiongeo",
        "version": __version__,
        "command": "decompose",
        "input": source,
        "passed": True,
        "result": payload,
        "verdict": result.verdict(),
    }
    return report, EXIT_OK


def run_topology(cfg) -> tuple:
    data = _load_json(cfg["input"])
    try:
        top = TopologyData(int(data["k"]), tuple(data.get("n", [])),
                           int(data["chi"]), int(data["tau"]))
        fiber = data.get("fiber", "s(u1xu2)")
        table = chern_topology(top, fiber)
    except (KeyError, ValueError, TypeError) as exc:
        raise InputError(f"bad topology file: {exc}") from exc
    listing = [{"k": k, "n": list(n)}
               for k, n in enumerate_diophantine(int(cfg.get("kmax", 12)))]
    verdict = ("admits the required fibration class"
               if table["admits_hkt_fibration"]
               else "no HKT fibration: topological condition fails")
    report = {
        "artifact": "torsiongeo",
        "version": __version__,
        "command": "topology",
        "input": cfg["input"],
        "classes": table,
        "diophantine_solutions": listing,
        "verdict": verdict,
        "passed": table["admits_hkt_fibration"],
    }
    return report, EXIT_OK if table["admits_hkt_fibration"] else EXIT_MATH


_W_PRESETS = {
    "constant4": lambda X, Y: 4.0 + 0.0 * X,
    "sine-bump": lambda X, Y: 4.0 + np.sin(X) * np.cos(Y),
}


def run_dilaton(cfg) -> tuple:
    data = _load_json(cfg["input"])
    try:
        n1, n2 = (int(x) for x in data["grid"])
        spacing = float(data.get("spacing", 2.0 * np.pi / n1))
        domain = build_flat_torus(n1, n2, spacing)
        w_field = data.get("w", "constant4")
        if isinstance(w_field, dict):
            from .dilaton import w_from_fibration
            w_field = w_from_fibration(
                np.asarray(w_field["f_u1_sq"], dtype=np.float64),
                np.asarray(w_field["f_minus_sq"], dtype=np.float64)).tolist()
        if isinstance(w_field, str):
            if w_field not in _W_PRESETS:
                raise InputError(f"unknown preset {w_field!r}; available: "
                                 f"{', '.join(_W_PRESETS)}")
            xs = np.arange(n1) * spacing
            ys = np.arange(n2) * spacing
            X, Y = np.meshgrid(xs, ys, indexing="ij")
            w = _W_PRESETS[w_field](X, Y).ravel()
        else:
            w = np.asarray(w_field, dtype=np.float64)
            if w.size != domain.node_count:
                raise InputError("w length does not match the grid")
        solver_cfg = SolverConfig(
            lambda_policy=data.get("lambda", "auto"),
            tol=float(data.get("tol", 1e-10)),
            max_iter=int(data.get("max_iter", 500)),
        )
    except InputError:
        raise
    except (KeyError, ValueError, TypeError) as exc:
        raise InputError(f"bad problem file: {exc}") from exc
    try:
        u, trace = monotone_iterate(domain, w, solver_cfg)
    except (SolverError, ValueError) as exc:
        report = {
            "artifact": "torsiongeo",
            "version": __version__,
            "command": "dilaton",
            "input": cfg["input"],
            "passed": False,
            "error": str(exc),
        }
        return report, EXIT_MATH
    res_sup = float(np.abs(dilaton_residual(domain, u, w)).max())
    report = {
        "artifact": "torsiongeo",
        "version": __version__,
        "command": "dilaton",
        "input": cfg["input"],
        "passed": True,
        "u": u.tolist(),
        "trace": trace.summary(),
        "residual_sup": res_sup,
    }
    if "scalar_curvature" in data and "h" in data:
        R = data["scalar_curvature"]
        R = (np.full(domain.node_count, float(R)) if np.isscalar(R)
             else np.asarray(R, dtype=np.float64))
        report["fibration_diagnostics"] = fibration_diagnostics(
            R, u, float(data["h"]))
    return report, EXIT_OK


def run_catalog(cfg) -> tuple:
    entries = [{"name": e.name, "kind": e.kind, "description": e.describe}
               for e in CATALOG.values()]
    report = {
        "artifact": "torsiongeo",
        "version": __version__,
        "command": "catalog",
        "entries": entries,
        "passed": True,
    }
    return report, EXIT_OK


def _assemble(command, source, reports) -> tuple:
    passed = all(r.passed for r in reports)
    report = {
        "artifact": "torsiongeo",
        "version": __version__,
        "command": command,
        "input": source,
        "passed": passed,
        "reports": [r.to_dict() for r in reports],
    }
    return report, EXIT_OK if passed else EXIT_MATH


def _load_json(path):
    if path is None:
        raise InputError("an --input file is required for this command")
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"malformed JSON in {path}: {exc}") from exc


def _emit(report: dict, cfg):
    if cfg["format"] == "json":
        text = json.dumps(report, indent=1)
    else:
        lines = [f"torsiongeo {report.get('command', '')} "
                 f"[{report.get('input', '')}]  "
                 f"{'PASS' if report.get('passed') else 'FAIL'}"]
        for sub in report.get("reports", []):
            rep = StructureReport(sub["title"])
            rep.hypotheses_met = sub["hypotheses_met"]
            rep.notes = sub["notes"]
            for row in sub["rows"]:
                rep.add(row["name"], row["value"], row["tol"],
                        row["identity"], row["asserted"], row["note"])
            lines += rep.text_lines()
        for key in ("verdict", "error"):
            if key in report:
                lines.append(f"{key}: {report[key]}")
        if "classes" in report:
            lines += [f"  {k}: {v}" for k, v in report["classes"].items()]
            lines.append("  diophantine solutions: "
                         + str(report["diophantine_solutions"]))
        if "entries" in report:
            lines += [f"  {e['name']:<22} [{e['kind']}] {e['description']}"
                      for e in report["entries"]]
        if "trace" in report:
            t = dict(report["trace"])
            t.pop("steps", None)
            lines.append(f"  trace: {t}")
            lines.append(f"  residual_sup: {report['residual_sup']}")
        text = "\n".join(lines)
    if cfg.get("output"):
        with open(cfg["output"], "w") as fh:
            fh.write(text)
            fh.write("\n")
    else:
        print(text)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The tg argument parser; built once per process."""
    parser = argparse.ArgumentParser(
        prog="tg",
        description="verification toolkit for geometries with skew 3-form torsion")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_example=True):
        if needs_example:
            group = p.add_mutually_exclusive_group(required=True)
            group.add_argument("--example", help="catalog entry name")
            group.add_argument("--input", help="path to a geometry JSON file")
        else:
            p.add_argument("--input", required=True, help="path to the input JSON")
        p.add_argument("--tol", type=float, default=1e-10,
                       help="assertion tolerance (default 1e-10)")
        p.add_argument("--output", help="write the report to this path")
        p.add_argument("--format", choices=("json", "text"), default="text")

    common(sub.add_parser("verify", help="run all applicable residual checks"))
    common(sub.add_parser("decompose", help="run the torsion splitting algorithm"))
    p_top = sub.add_parser("topology", help="characteristic-class arithmetic")
    common(p_top, needs_example=False)
    p_top.add_argument("--kmax", type=int, default=12,
                       help="search bound for the integer condition")
    common(sub.add_parser("dilaton", help="solve the conformal-factor equation"),
           needs_example=False)
    p_cat = sub.add_parser("catalog", help="list example geometries")
    p_cat.add_argument("--output", help="write the listing to this path")
    p_cat.add_argument("--format", choices=("json", "text"), default="text")
    return parser


_RUNNERS = {
    "verify": run_verify,
    "decompose": run_decompose,
    "topology": run_topology,
    "dilaton": run_dilaton,
    "catalog": run_catalog,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    cfg = vars(args)
    cfg.setdefault("tol", 1e-10)
    cfg.setdefault("format", "text")
    try:
        report, status = _RUNNERS[args.command](cfg)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (KeyError,) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    _emit(report, cfg)
    return status


if __name__ == "__main__":
    sys.exit(main())
