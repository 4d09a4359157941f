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
from .frame_algebra import epsilon3
from .invariant_geometry import (
    HypothesesNotMet,
    bianchi_report,
    bochner_report,
    lie_jacobi_residual,
    soliton_report,
)
from .decomposition import decompose
from .special_structures import structure_reports
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
from .reporting import StructureReport, text_lines
from .catalog import CATALOG, catalog_entry
from .geometry_io import _integer, _real, _reals, geometry_from_dict, structures_from_dict

EXIT_OK = 0
EXIT_MATH = 1
EXIT_INPUT = 2


class InputError(ValueError):
    pass


def _geometry_reports(geom, tol):
    reports = bianchi_report(geom, tol)
    try:
        reports.append(soliton_report(geom, tol))
    except HypothesesNotMet:
        pass
    reports.append(bochner_report(geom, max(tol, 1e-9)))
    flat = StructureReport("connection-survey")
    for sign in (1, -1):
        flat.add(f"curvature_sup_sign_{sign:+d}",
                 float(np.abs(geom.curvatures[sign]).max()), np.inf,
                 identity="flat-connection-scan", asserted=False)
    flat.notes.append("a vanishing row detects a flat parallelizing "
                      "torsion connection")
    if not geom.unimodular:
        flat.notes.append("geometry is not unimodular: integration by "
                          "parts checks are informational")
    reports.append(flat)
    return reports


def _fibration_reports(pc, tol):
    rep = StructureReport("su3-fibration")
    omegas = [o.components for o in pc.hermitian_forms]
    B = fit_fiber_rotation(pc, omegas)
    rep.add("frestrict_residual", frestrict_residual(pc, B, omegas), tol,
            identity="horizontality-constraint")
    rep.add("rotation_B0", float(np.abs(B[0]).max()), tol,
            identity="commuting-line-acts-trivially")
    eps = epsilon3()
    h_fit = float(B[1][1, 2])
    rep.add("rotation_eps_pattern",
            float(np.abs(B[1:] - h_fit * eps).max()), tol,
            identity="epsilon-representation",
            note=f"fitted scale h = {h_fit:g}")
    rep.add("wedge_trace", wedge_trace(pc).sup_norm, max(tol, 1e-12),
            identity="closure-obstruction")
    plus, _ = sd_asd_split(pc.component(0),
                           quaternionic_orientation(pc.hermitian_forms))
    rep.add("u1_self_dual_part", plus.sup_norm, tol,
            identity="abelian-curvature-anti-self-dual")
    rep.add("fiber_jacobi", lie_jacobi_residual(pc.fiber_structure), tol,
            identity="jacobi-identity")
    return [rep]


def _load(cfg) -> tuple:
    """(source, kind, built) for ``--example`` or ``--input``: ``built`` is
    what a catalog entry of that ``kind`` builds, and a geometry file
    loads as kind "geometry", ``(geometry, structures)``."""
    if cfg.get("example"):
        entry = catalog_entry(cfg["example"])
        return cfg["example"], entry.kind, entry.build()
    data = _load_json(cfg["input"])
    try:
        geom = geometry_from_dict(data)
        return cfg["input"], "geometry", (geom, structures_from_dict(data, geom.dim))
    except (KeyError, ValueError, TypeError, OverflowError) as exc:
        raise InputError(f"bad geometry file: {exc}") from exc


def run_verify(cfg) -> tuple:
    tol = cfg["tol"]
    source, kind, built = _load(cfg)
    if kind == "fibration":
        return _assemble("verify", source, _fibration_reports(built, tol))
    geom, structures = built
    return _assemble("verify", source, _geometry_reports(geom, tol)
                     + structure_reports(geom, structures, tol))


def run_decompose(cfg) -> tuple:
    source, kind, built = _load(cfg)
    try:
        if kind == "fibration":
            raise HypothesesNotMet(f"decompose needs a Lie-frame geometry; catalog "
                                   f"entry {source!r} holds {kind} data")
        result = decompose(built[0], cfg["tol"])
    except HypothesesNotMet as exc:
        return _report("decompose", input=source, passed=False, error=str(exc)), EXIT_MATH
    return _report("decompose", input=source, passed=True, result=result.to_dict(),
                   verdict=result.verdict()), EXIT_OK


def run_topology(cfg) -> tuple:
    data = _load_json(cfg["input"])
    try:
        top = TopologyData(_integer(data["k"], "k"),
                           tuple(_integer(x, "n") for x in data.get("n", [])),
                           _integer(data["chi"], "chi"), _integer(data["tau"], "tau"))
        fiber = data.get("fiber", "s(u1xu2)")
        table = chern_topology(top, fiber)
        listing = [{"k": k, "n": list(n)}
                   for k, n in enumerate_diophantine(int(cfg.get("kmax", 12)))]
    except (KeyError, ValueError, TypeError, OverflowError) as exc:
        raise InputError(f"bad topology file: {exc}") from exc
    verdict = ("admits the required fibration class"
               if table["admits_hkt_fibration"]
               else "no HKT fibration: topological condition fails")
    report = _report("topology", input=cfg["input"], classes=table,
                     diophantine_solutions=listing, verdict=verdict,
                     passed=table["admits_hkt_fibration"])
    return report, EXIT_OK if table["admits_hkt_fibration"] else EXIT_MATH


_W_PRESETS = {
    "constant4": lambda X, Y: 4.0 + 0.0 * X,
    "sine-bump": lambda X, Y: 4.0 + np.sin(X) * np.cos(Y),
}


def run_dilaton(cfg) -> tuple:
    # the solver needs scipy; importing it here keeps it out of every other command
    from .dilaton import (
        SolverConfig,
        SolverError,
        build_flat_torus,
        fibration_diagnostics,
        monotone_iterate,
        residual as dilaton_residual,
        w_from_fibration,
    )

    data = _load_json(cfg["input"])
    try:
        n1, n2 = (_integer(x, "grid size") for x in data["grid"])
        # max(n1, 1): build_flat_torus refuses a side below 3 itself
        spacing = _real(data.get("spacing", 2.0 * np.pi / max(n1, 1)), "spacing")
        domain = build_flat_torus(n1, n2, spacing)
        nodes = domain.node_count
        w_field = data.get("w", "constant4")
        if isinstance(w_field, str):
            if w_field not in _W_PRESETS:
                raise InputError(f"unknown preset {w_field!r}; available: "
                                 f"{', '.join(_W_PRESETS)}")
            xs = np.arange(n1) * spacing
            ys = np.arange(n2) * spacing
            X, Y = np.meshgrid(xs, ys, indexing="ij")
            w = _W_PRESETS[w_field](X, Y).ravel()
        elif isinstance(w_field, dict):
            w = w_from_fibration(_reals(w_field["f_u1_sq"], nodes, "f_u1_sq"),
                                 _reals(w_field["f_minus_sq"], nodes, "f_minus_sq"))
            if not np.isfinite(w).all():
                raise InputError("w must be finite everywhere")
        else:
            w = _reals(w_field, nodes, "w")
        R = h = None
        if "scalar_curvature" in data:
            R = data["scalar_curvature"]
            R = (_reals(R, nodes, "scalar_curvature") if isinstance(R, list)
                 else np.full(nodes, _real(R, "scalar_curvature")))
        if "h" in data:
            h = _real(data["h"], "h")
        lam = data.get("lambda", "auto")
        numeric = isinstance(lam, (int, float)) and not isinstance(lam, bool)
        if lam != "auto" and not numeric:
            raise InputError(f'lambda must be "auto" or a number, not {lam!r}')
        solver_cfg = SolverConfig(
            lambda_policy=lam,
            tol=_real(data.get("tol", 1e-10), "tol"),
            max_iter=_integer(data.get("max_iter", 500), "max_iter"),
        )
        if (R is None) != (h is None):
            raise InputError("the fibration diagnostics need both scalar_curvature "
                             "and h, not one of them")
    except InputError:
        raise
    except (KeyError, ValueError, TypeError, OverflowError) as exc:
        raise InputError(f"bad problem file: {exc}") from exc
    try:
        u, trace = monotone_iterate(domain, w, solver_cfg)
    except (SolverError, ValueError) as exc:
        report = _report("dilaton", input=cfg["input"], passed=False, error=str(exc))
        return report, EXIT_MATH
    res_sup = float(np.abs(dilaton_residual(domain, u, w)).max())
    report = _report("dilaton", input=cfg["input"], passed=True, u=u.tolist(),
                     trace=trace.summary(), residual_sup=res_sup)
    if R is not None:
        report["fibration_diagnostics"] = fibration_diagnostics(R, u, h)
    return report, EXIT_OK


def run_catalog(cfg) -> tuple:
    entries = [{"name": e.name, "kind": e.kind, "description": e.describe}
               for e in CATALOG.values()]
    return _report("catalog", entries=entries, passed=True), EXIT_OK


def _report(command: str, **fields) -> dict:
    """A command's report: the artifact/version/command head, then
    ``fields`` in the order given."""
    return {"artifact": "torsiongeo", "version": __version__, "command": command,
            **fields}


def _assemble(command, source, reports) -> tuple:
    passed = all(r.passed for r in reports)
    report = _report(command, input=source, passed=passed,
                     reports=[r.to_dict() for r in reports])
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
            lines += text_lines(sub)
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

    def common(p, geometry=True):
        """--input/--output/--format; verify and decompose add --example, --tol."""
        if geometry:
            group = p.add_mutually_exclusive_group(required=True)
            group.add_argument("--example", help="catalog entry name")
            group.add_argument("--input", help="path to a geometry JSON file")
            p.add_argument("--tol", type=float, default=1e-10,
                           help="assertion tolerance (default 1e-10)")
        else:
            p.add_argument("--input", required=True, help="path to the input JSON")
        p.add_argument("--output", help="write the report to this path")
        p.add_argument("--format", choices=("json", "text"), default="text")

    common(sub.add_parser("verify", help="run all applicable residual checks"))
    common(sub.add_parser("decompose", help="run the torsion splitting algorithm"))
    p_top = sub.add_parser("topology", help="characteristic-class arithmetic")
    common(p_top, geometry=False)
    p_top.add_argument("--kmax", type=int, default=12,
                       help="search bound for the integer condition")
    common(sub.add_parser("dilaton", help="solve the conformal-factor equation"),
           geometry=False)
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
    cfg.setdefault("format", "text")
    try:
        if "tol" in cfg and not 0 < cfg["tol"] < np.inf:
            raise InputError(f"--tol must be positive and finite, not {cfg['tol']}")
        report, status = _RUNNERS[args.command](cfg)
    except (InputError, KeyError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    _emit(report, cfg)
    return status


if __name__ == "__main__":
    sys.exit(main())
