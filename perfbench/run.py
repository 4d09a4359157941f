"""torsiongeo benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the program is imported from
./src.  The workload's inputs are made from --seed during set-up, then
passes over them run until --seconds have elapsed.  Every operation's
output is checked.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; a summary,
with the machine record, goes to standard error.  Failures present at
the seed commit (workloads.KNOWN_FAILURES) count as failed; any other
failure makes ``correct`` false.

--trace 0 reports the end-to-end metrics and stops after the round
that ends past the deadline: setup_s (import time plus the median of
three set-ups, each making the inputs and running a warm-up), ok_frac
(operations that succeeded and passed their check / attempted),
round_s.p50 and round_s.p75 (summed operation time of one round), and
work_per_s (units of work completed per second of operation time:
operations on catalog-sweep, samples on random-suite, grid nodes on
dilaton-grids, where a failed solve adds its time and no nodes).

--trace 1 alternates untraced and traced passes and reports per-layer
metrics from the traced ones, each per pass over the inputs, plus the
tracing overhead (traced over untraced median pass time, minus one) and
the torus and graph halves of dilaton-grids from the untraced passes.
Its spans are written to .perfbench/ at exit.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import shutil
import statistics
import sys
import time
import traceback

from tracing import TARGETS, Tracer, layer_totals

ROOT = pathlib.Path.cwd()
OUT_DIR = ROOT / ".perfbench"
SETUP_REPEATS = 3
TAIL_QUARTILE = 2   # index into statistics.quantiles(n=4): the 75th percentile
BLAS_THREADS = "1"


class Stats:
    """Outcome tallies of the operations run in one pass or more."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.unexpected: list = []
        self.known: dict = {}
        self.busy_s = 0.0
        self.units = 0.0
        self.by_kind: dict = {}     # kind -> [busy seconds, units]

    def add(self, other: "Stats"):
        self.attempted += other.attempted
        self.failed += other.failed
        self.unexpected += other.unexpected
        self.known.update(other.known)
        self.busy_s += other.busy_s
        self.units += other.units
        for kind, (busy, units) in other.by_kind.items():
            acc = self.by_kind.setdefault(kind, [0.0, 0.0])
            acc[0] += busy
            acc[1] += units


def run_op(op, stats: Stats, tracer=None, is_known=lambda label, err: False) -> float:
    """Time op.call, check its result, and tally the outcome.  A raising
    call is timed up to the raise and counted as a failed operation."""
    result, error = None, None
    start = time.perf_counter()
    try:
        if tracer is None:
            result = op.call()
        else:
            tracer.op_id += 1
            result = tracer.span(f"op {op.label}", op.call)
    except Exception as exc:
        error = f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    if error is None:
        if tracer is not None and hasattr(result, "text"):
            tracer.count("cli.bytes_out", len(result.text.encode()))
        try:
            error = op.check(result)
        except Exception as exc:
            error = f"output check raised {type(exc).__name__}: {exc}"
    stats.attempted += 1
    stats.busy_s += elapsed
    kind = stats.by_kind.setdefault(op.kind, [0.0, 0.0])
    kind[0] += elapsed
    if error is None:
        stats.units += op.units
        kind[1] += op.units
    else:
        stats.failed += 1
        if is_known(op.label, error):
            stats.known[op.label] = error
        else:
            stats.unexpected.append(f"{op.label}: {error}")
    return elapsed


def run_pass(rounds, stats: Stats, tracer=None, is_known=lambda label, err: False,
             deadline=None) -> list:
    """Run every round once, or stop after the round that ends past the
    deadline; returns each round's summed operation time."""
    times = []
    for ops in rounds:
        times.append(sum(run_op(op, stats, tracer, is_known) for op in ops))
        if deadline is not None and time.perf_counter() >= deadline:
            break
    return times


def machine() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(numpy),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def _blas_threads(numpy):
    """Thread count reported by the bundled OpenBLAS, else the setting."""
    import ctypes
    libs = pathlib.Path(numpy.__file__).parent.with_name("numpy.libs")
    for lib in sorted(libs.glob("*openblas*")) if libs.is_dir() else ():
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            try:
                return int(getattr(ctypes.CDLL(str(lib)), symbol)())
            except (OSError, AttributeError):
                continue
    return int(BLAS_THREADS)


def _metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(setup_s, stats: Stats, round_times) -> dict:
    return {
        "setup_s": _metric(setup_s, "s"),
        "ok_frac": _metric((stats.attempted - stats.failed) / stats.attempted, "ratio"),
        "round_s.p50": _metric(statistics.median(round_times), "s"),
        "round_s.p75": _metric(statistics.quantiles(round_times, n=4)[TAIL_QUARTILE]
                               if len(round_times) > 1 else round_times[0], "s"),
        "work_per_s": _metric(stats.units / stats.busy_s, "1/s"),
    }


def per_layer(tracer, passes: int, untraced: Stats, overhead: float) -> dict:
    totals = layer_totals(tracer.spans, tracer.names)
    zero = {"calls": 0, "raised": 0, "total_ns": 0, "self_ns": 0}
    out = {}
    for name, *_ in TARGETS:
        agg = totals.get(name, zero)
        out[f"{name}.calls"] = _metric(agg["calls"] / passes, "count")
        out[f"{name}.self_s"] = _metric(agg["self_ns"] * 1e-9 / passes, "s")
        out[f"{name}.total_s"] = _metric(agg["total_ns"] * 1e-9 / passes, "s")
    for counter, unit in (("frame_algebra.FrameTensor.elements", "count"),
                          ("dilaton.nnz", "count"), ("cli.bytes_out", "bytes")):
        out[counter] = _metric(tracer.counters.get(counter, 0) / passes, unit)
    sample = totals.get("random_geometry.random_geometry", zero)
    projections = totals.get("random_geometry.project_to_jacobi", zero)["calls"]
    out["random_geometry.accept_ratio"] = _metric(
        (sample["calls"] - sample["raised"]) / projections if projections else 0.0, "ratio")
    out["dilaton.iterations"] = _metric(totals.get("dilaton.solve", zero)["calls"] / passes,
                                        "count")
    for kind in ("torus", "graph"):
        busy, units = untraced.by_kind.get(kind, (0.0, 0.0))
        out[f"dilaton.{kind}.nodes_per_s"] = _metric(units / busy if busy else 0.0, "1/s")
    out["trace.overhead_frac"] = _metric(overhead, "ratio")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "torsiongeo" / "__init__.py").is_file():
        print(f"no torsiongeo sources under {src}; run from a checkout root",
              file=sys.stderr)
        return 2
    # one BLAS thread, fixed before numpy loads, so runs do not contend
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(src))

    t0 = time.perf_counter()
    import workloads
    import_s = time.perf_counter() - t0
    if not pathlib.Path(workloads.cli.__file__).resolve().is_relative_to(src.resolve()):
        print("torsiongeo was not imported from ./src", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    workdir = OUT_DIR / f"work-{os.getpid()}"
    try:
        return _measure(args, workloads, import_s, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _measure(args, workloads, import_s, workdir) -> int:
    build = workloads.WORKLOADS[args.workload]
    known = workloads.is_known_failure

    setups = []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        start = time.perf_counter()
        rounds, warmup = build(args.seed, workdir)
        run_pass([warmup], Stats(), None, known)
        setups.append(time.perf_counter() - start)
    setup_s = import_s + statistics.median(setups)

    stats, untraced = Stats(), Stats()
    tracer = Tracer() if args.trace else None
    round_times, pass_times = [], {False: [], True: []}
    deadline = time.perf_counter() + args.seconds
    while True:
        traced = bool(args.trace) and len(pass_times[False]) > len(pass_times[True])
        one = Stats()
        if traced:
            tracer.install()
        try:
            # traced runs keep whole passes so that per-pass counts are exact
            times = run_pass(rounds, one, tracer if traced else None, known,
                             None if args.trace else deadline)
        finally:
            if traced:
                tracer.uninstall()
        stats.add(one)
        if not traced:
            untraced.add(one)
        round_times += times
        pass_times[traced].append(sum(times))
        if time.perf_counter() >= deadline and (not args.trace or pass_times[True]):
            break

    info = {"workload": args.workload, "seed": args.seed, "machine": machine(),
            "import_s": import_s, "setup_repeats_s": setups,
            "passes": len(pass_times[False]) + len(pass_times[True]),
            "rounds": len(round_times), "known_failures": stats.known,
            "unexpected_failures": stats.unexpected[:20]}
    if args.trace:
        overhead = (statistics.median(pass_times[True])
                    / statistics.median(pass_times[False]) - 1.0)
        metrics = per_layer(tracer, len(pass_times[True]), untraced, overhead)
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"spans-{args.workload}-{args.seed}.json.gz"
        tracer.write(spans_path, {"workload": args.workload, "seed": args.seed})
        info["spans"] = str(spans_path.relative_to(ROOT))
    else:
        metrics = end_to_end(setup_s, stats, round_times)
    print(json.dumps(info), file=sys.stderr)
    print(json.dumps({"correct": not stats.unexpected, "attempted": stats.attempted,
                      "failed": stats.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
