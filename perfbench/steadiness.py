#!/usr/bin/env python3
"""Runs the benchmark in two sets of runs of the same build and compares them.

    python3 perfbench/steadiness.py [--runs 10] [--workloads a,b]

Run from the root of the checkout. Each set runs every selected workload
once per seed 1..runs, for BENCHMARK.json's run_seconds. For every
end-to-end metric the script prints, per set and per workload, the median,
the quartiles (statistics.quantiles with n=4) and the spread: the distance
between the quartiles as a share of the median. It marks a metric SPREAD
when its spread exceeds the metric's bound, and DRIFT when the two sets'
medians differ by more than the bound, in either direction. It also prints
the share of failed operations per set. Exits 1 if anything is marked.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SETS = 2


def run_once(spec, workload, seed):
    cmd = list(spec["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                         stderr=subprocess.DEVNULL, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / q2 if q2 else float("inf")
    return q1, q2, q3, spread


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    args = parser.parse_args()
    workloads = args.workloads.split(",")

    results = {}  # (set, workload) -> [result, ...]
    for s in range(SETS):
        for w in workloads:
            for seed in range(1, args.runs + 1):
                r = run_once(spec, w, seed)
                results.setdefault((s, w), []).append(r)
                print("set %d %-18s seed %2d correct=%s attempted=%d failed=%d"
                      % (s + 1, w, seed, r["correct"], r["attempted"],
                         r["failed"]), file=sys.stderr)

    marked = False
    for w in workloads:
        print("\n== %s" % w)
        for s in range(SETS):
            rs = results[(s, w)]
            att = sum(r["attempted"] for r in rs)
            failed = sum(r["failed"] for r in rs)
            correct = all(r["correct"] for r in rs)
            print("set %d: correct=%s failed share %d/%d" %
                  (s + 1, correct, failed, att))
            marked |= not correct
        print("%-18s %4s %12s %12s %12s %8s %6s  %s" %
              ("metric", "set", "q1", "median", "q3", "spread", "bound",
               "mark"))
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            medians = []
            for s in range(SETS):
                values = [r["metrics"][name]["value"] for r in results[(s, w)]]
                q1, q2, q3, spread = summarize(values)
                medians.append(q2)
                mark = "SPREAD" if spread > bound else ""
                if s == 1 and abs(q2 - medians[0]) > bound * medians[0]:
                    mark = (mark + " DRIFT").strip()
                marked |= bool(mark)
                print("%-18s %4d %12.6g %12.6g %12.6g %8.4f %6.3f  %s" %
                      (name, s + 1, q1, q2, q3, spread, bound, mark))
    return 1 if marked else 0


if __name__ == "__main__":
    sys.exit(main())
