#!/usr/bin/env python3
"""Steadiness report: how far each end-to-end metric moves from run to run.

    python3 perfbench/steadiness.py [--runs 10] [--first-seed 1]
                                    [--workloads a,b] [--out report.json]

Run it from the repository root. For each workload it makes --runs runs of
perfbench/run.py with consecutive seeds, and for each end-to-end metric of
BENCHMARK.json prints the median, the first and third quartiles (Python's
statistics.quantiles(values, n=4)), the spread (q3 - q1) / median, and the
metric's bound. A spread above its bound means two sets of runs of the same
code may disagree by more than the bound; setup_s is listed but exempt.
Exits 1 when a run fails, reports a failed operation, or a spread (other
than setup_s) exceeds its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: run.py exited {done.returncode}")
    return json.loads(done.stdout.rstrip("\n").split("\n")[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--out", default="")
    args = ap.parse_args()
    if args.runs < 2:
        ap.error("--runs must be at least 2")

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = args.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    report = {"runs": args.runs, "first_seed": args.first_seed, "workloads": {}}
    ok = True
    print(f"{'workload':<18} {'metric':<16} {'median':>14} {'q1':>14} {'q3':>14} "
          f"{'spread':>8} {'bound':>6}")
    for name in names:
        values = {m: [] for m in bounds}
        failed = 0
        for i in range(args.runs):
            result = run_once(name, args.first_seed + i, bench["run_seconds"])
            failed += result["failed"]
            ok = ok and result["correct"] and result["failed"] == 0
            for m in bounds:
                values[m].append(result["metrics"][m]["value"])
            print(f"  {name} seed {args.first_seed + i}: " +
                  " ".join(f"{m}={values[m][-1]:.6g}" for m in bounds), flush=True)
        rows = {}
        for m, vs in values.items():
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            rows[m] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                       "bound": bounds[m], "values": vs}
            if m != "setup_s" and spread > bounds[m]:
                ok = False
            print(f"{name:<18} {m:<16} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} "
                  f"{spread:>8.4f} {bounds[m]:>6}")
        report["workloads"][name] = {"failed_ops": failed, "metrics": rows}
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=2)
    print("steady" if ok else "NOT steady (or failed operations)")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
