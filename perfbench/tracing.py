"""In-memory spans around the torsiongeo functions each layer is made of.

The tracer rebinds the listed functions in every loaded ``torsiongeo``
module namespace (and the listed methods on their classes), so calls made
through ``from .x import f`` aliases are recorded too.  A span is
``[name_id, start_ns, end_ns, parent, op_id, raised]``; self time is the
span's duration minus the part of it covered by its child spans.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import sys
import time

# (layer metric prefix, module, attribute or Class.method, counter hook).
# A hook maps (args, result) of a successful call to (counter, amount).
TARGETS = [
    ("frame_algebra.FrameTensor", "torsiongeo.frame_algebra", "FrameTensor.__post_init__",
     lambda args, _: ("frame_algebra.FrameTensor.elements",
                      int(args[0].dim) ** int(args[0].rank))),
    ("frame_algebra.wedge", "torsiongeo.frame_algebra", "wedge", None),
    ("frame_algebra.hodge_star", "torsiongeo.frame_algebra", "hodge_star", None),
    ("frame_algebra.wedge_top_coefficient", "torsiongeo.frame_algebra",
     "wedge_top_coefficient", None),
    ("frame_algebra.interior_product", "torsiongeo.frame_algebra", "interior_product", None),
    ("frame_algebra.antisymmetrize", "torsiongeo.frame_algebra", "antisymmetrize", None),
    ("invariant_geometry.d_invariant", "torsiongeo.invariant_geometry", "d_invariant", None),
    ("invariant_geometry.codifferential", "torsiongeo.invariant_geometry", "codifferential", None),
    ("invariant_geometry.curvature", "torsiongeo.invariant_geometry", "curvature", None),
    ("invariant_geometry.nabla_invariant", "torsiongeo.invariant_geometry",
     "nabla_invariant", None),
    ("invariant_geometry.with_torsion", "torsiongeo.invariant_geometry", "with_torsion", None),
    ("invariant_geometry.bianchi_report", "torsiongeo.invariant_geometry", "bianchi_report", None),
    ("invariant_geometry.bochner_report", "torsiongeo.invariant_geometry", "bochner_report", None),
    ("invariant_geometry.lee_form", "torsiongeo.invariant_geometry", "lee_form", None),
    ("special_structures.hkt_report", "torsiongeo.special_structures", "hkt_report", None),
    ("special_structures.kt_report", "torsiongeo.special_structures", "kt_report", None),
    ("special_structures.nijenhuis", "torsiongeo.special_structures", "nijenhuis", None),
    ("special_structures.bryant_positivity", "torsiongeo.special_structures",
     "bryant_positivity", None),
    ("special_structures.build_spin7", "torsiongeo.special_structures", "build_spin7", None),
    ("special_structures.build_su3", "torsiongeo.special_structures", "build_su3", None),
    ("decomposition.decompose", "torsiongeo.decomposition", "decompose", None),
    ("fibration_topology.build_su3_fibration", "torsiongeo.fibration_topology",
     "build_su3_fibration", None),
    ("random_geometry.random_geometry", "torsiongeo.random_geometry", "random_geometry", None),
    ("random_geometry.project_to_jacobi", "torsiongeo.random_geometry",
     "project_to_jacobi", None),
    ("random_geometry.random_closed_torsion", "torsiongeo.random_geometry",
     "random_closed_torsion", None),
    ("geometry_io.save_geometry", "torsiongeo.geometry_io", "save_geometry", None),
    ("geometry_io.geometry_from_dict", "torsiongeo.geometry_io", "geometry_from_dict", None),
    ("dilaton.DiscreteDomain", "torsiongeo.dilaton", "DiscreteDomain.__post_init__", None),
    ("dilaton.build_flat_torus", "torsiongeo.dilaton", "build_flat_torus", None),
    ("dilaton._ShiftedSolver", "torsiongeo.dilaton", "_ShiftedSolver.__init__",
     lambda args, _: ("dilaton.nnz", int(args[0].op.nnz))),
    ("dilaton.solve", "torsiongeo.dilaton", "_ShiftedSolver.solve", None),
    ("dilaton.residual", "torsiongeo.dilaton", "residual", None),
    ("dilaton.monotone_iterate", "torsiongeo.dilaton", "monotone_iterate", None),
    ("cli._emit", "torsiongeo.cli", "_emit", None),
    ("cli.build_parser", "torsiongeo.cli", "build_parser", None),
    ("reporting.StructureReport.to_dict", "torsiongeo.reporting", "StructureReport.to_dict", None),
]


class Tracer:
    """Records spans and counters while installed; nothing while not."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list[list[int]] = []
        self.counters: dict[str, int] = {}
        self._stack: list[int] = []
        self._undo: list = []
        self.op_id = 0

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def count(self, counter: str, amount: int):
        self.counters[counter] = self.counters.get(counter, 0) + amount

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span; an exception closes the span as raised."""
        index = len(self.spans)
        record = [self.name_id(name), 0, 0,
                  self._stack[-1] if self._stack else -1, self.op_id, 0]
        self.spans.append(record)
        self._stack.append(index)
        record[1] = self.clock()
        try:
            return fn(*args, **kwargs)
        except BaseException:
            record[5] = 1
            raise
        finally:
            record[2] = self.clock()
            self._stack.pop()

    def wrap(self, name: str, fn, hook=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = self.span(name, fn, *args, **kwargs)
            if hook is not None:
                self.count(*hook(args, result))
            return result
        return traced

    def install(self, targets=TARGETS):
        """Rebind every target; uninstall() restores the originals."""
        for name, module_name, attr, hook in targets:
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                orig = cls.__dict__[meth]
                self._undo.append((cls, meth, orig))
                setattr(cls, meth, self.wrap(name, orig, hook))
                continue
            orig = getattr(module, attr)
            traced = self.wrap(name, orig, hook)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or mod_name.split(".")[0] != "torsiongeo":
                    continue
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._undo.append((mod, key, orig))
                        setattr(mod, key, traced)

    def uninstall(self):
        for owner, key, orig in reversed(self._undo):
            setattr(owner, key, orig)
        self._undo.clear()

    def write(self, path, meta: dict):
        start = min((s[1] for s in self.spans), default=0)
        rows = [[s[0], s[1] - start, s[2] - start, s[3], s[4], s[5]]
                for s in self.spans]
        doc = dict(meta, names=self.names, counters=self.counters,
                   columns=["name", "start_ns", "end_ns", "parent", "op", "raised"],
                   spans=rows)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump(doc, fh, separators=(",", ":"))


def _covered(intervals, lo: int, hi: int) -> int:
    """Length of the union of intervals clipped to [lo, hi]."""
    total, reach = 0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def layer_totals(spans, names) -> dict:
    """Per span name: calls, raised calls, total and self nanoseconds."""
    children: dict[int, list] = {}
    for s in spans:
        if s[3] >= 0:
            children.setdefault(s[3], []).append((s[1], s[2]))
    out: dict[str, dict] = {}
    for index, s in enumerate(spans):
        dur = s[2] - s[1]
        own = dur - _covered(children.get(index, ()), s[1], s[2])
        agg = out.setdefault(names[s[0]],
                             {"calls": 0, "raised": 0, "total_ns": 0, "self_ns": 0})
        agg["calls"] += 1
        agg["raised"] += s[5]
        agg["total_ns"] += dur
        agg["self_ns"] += own
    return out
