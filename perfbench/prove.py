"""Repeat the benchmark over seeds and report each metric's spread.

    python3 perfbench/prove.py [--workloads a,b] [--seeds 10] [--first-seed 1]
                               [--trace 0|1] [--out FILE]

Run from the checkout root.  For every workload it runs run.py once per
seed, one after another, and prints each metric's median and its
quartile spread, (q3 - q1) / median from statistics.quantiles(n=4), next
to a third of the metric's bound in BENCHMARK.json.  --out also writes
the runs, the medians and the machine record as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=180, check=True)
    wall = time.perf_counter() - start
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    info = json.loads(proc.stderr.strip().splitlines()[-1])
    return result, info, wall


def spread(values) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / abs(med) if med else 0.0


def main(argv=None) -> int:
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    report = {"run_seconds": bench["run_seconds"], "trace": args.trace, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            result, info, wall = run_once(workload, seed, bench["run_seconds"], args.trace)
            report["machine"] = info["machine"]
            runs.append({"seed": seed, "wall_s": wall, "correct": result["correct"],
                         "attempted": result["attempted"], "failed": result["failed"],
                         "rounds": info["rounds"],
                         "metrics": {k: v["value"] for k, v in result["metrics"].items()}})
            print(f"{workload} seed {seed}: {wall:.1f} s wall, {info['rounds']} rounds, "
                  f"correct={result['correct']} failed={result['failed']}/"
                  f"{result['attempted']}", file=sys.stderr)
        summary = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name] for r in runs]
            summary[name] = {"median": statistics.median(values), "spread": spread(values)}
            bound = bounds.get(name)
            mark = "" if bound is None or summary[name]["spread"] < bound / 3 else "  WIDE"
            limit = f"{bound / 3:.4f}" if bound is not None else "-"
            print(f"{workload:14} {name:44} median {summary[name]['median']:<14.6g} "
                  f"spread {summary[name]['spread']:.4f} (bound/3 {limit}){mark}")
        report["workloads"][workload] = {"summary": summary, "runs": runs}
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
