#!/usr/bin/env python3
"""Steadiness mode: repeat each workload and compare two sets of runs.

    python3 perfbench/steady.py [--workloads a,b] [--runs 10] [--sets 2]

Each run uses its own seed.  For every end-to-end metric it prints the
median, the quartiles and the quartile spread as a share of the median,
against the metric's bound in BENCHMARK.json.  With two sets it also checks
that the second set's median is no worse than the first's by more than the
bound, and that both sets fail the same share of operations; the two sets
take turns, run by run.  Exits 1 when a spread or a median shift passes its
bound.
"""

import argparse
import json
from fractions import Fraction
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def one_run(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit("%s seed %d exited with %d"
                         % (workload, seed, proc.returncode))
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit("%s seed %d: output checks failed" % (workload, seed))
    return result


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, choices=(1, 2), default=1)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = ap.parse_args()
    metrics = bench["end_to_end"]
    ok = True
    seed = args.first_seed
    for workload in args.workloads.split(","):
        sets = [[] for _ in range(args.sets)]
        # The sets take turns, run by run, so a change in the machine's load
        # falls on both of them.
        for _ in range(args.runs):
            for runs in sets:
                runs.append(one_run(workload, seed, args.seconds))
                print("  %s seed %d done" % (workload, seed), file=sys.stderr,
                      flush=True)
                seed += 1
        print("== %s (%d runs per set)" % (workload, args.runs))
        for m in metrics:
            name, bound, lower = m["name"], m["bound"], m["better"] == "lower"
            rows = []
            for runs in sets:
                med, q1, q3, spread = summary(
                    [r["metrics"][name]["value"] for r in runs])
                rows.append(med)
                flag = ""
                if spread > bound:
                    flag = "  SPREAD OVER BOUND"
                    ok = False
                elif spread > bound / 3:
                    flag = "  (spread over a third of the bound)"
                print("  %-22s median %-12.6g q1 %-12.6g q3 %-12.6g "
                      "spread %6.2f%% bound %5.1f%%%s"
                      % (name, med, q1, q3, 100 * spread, 100 * bound, flag))
            if len(rows) == 2:
                worse = (rows[1] - rows[0]) / rows[0]
                if not lower:
                    worse = -worse
                if worse > bound:
                    ok = False
                print("  %-22s second set worse by %.2f%%%s"
                      % ("", 100 * worse,
                         "  OVER BOUND" if worse > bound else ""))
        shares = {Fraction(r["failed"], r["attempted"])
                  for runs in sets for r in runs}
        print("  failed share per run: %s" % sorted(map(str, shares)))
        if len(shares) > 1:
            ok = False
            print("  FAILED SHARE DIFFERS BETWEEN RUNS")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
