#!/usr/bin/env python3
"""Steadiness check: two interleaved sets of runs of every workload.

Usage (from the repository root):
  python3 perfbench/steady.py [--runs N] [--seed S]

Runs set A and set B of N runs each for every workload in
BENCHMARK.json, interleaved (A B, then B A, ...) so that slow drifts of
the host hit both sets alike; every run uses its own seed. For every
end-to-end metric it prints each set's median and quartiles, the
quartile spread as a share of the median, and whether set B's median
is within the metric's bound of set A's in the worse direction. Exits
1 when any median disagrees, any spread but setup_s exceeds its bound,
or the failed share differs between the sets. The spread of setup_s is
not gated: a run sets up only 3 to 9 times, and a set-up lasts
milliseconds to a few tenths of a second, so one slow spawn or warm-up
moves a run's figure more than host noise moves the timed phase. Its
two medians are still held to its bound, which is what catches work
moved into set-up.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(bench, workload, seed):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]),
                              "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit("run failed: %s (exit %d)" % (" ".join(cmd), proc.returncode))
    return json.loads(lines[-1])


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]

    results = {w: {"A": [], "B": []} for w in workloads}
    for i in range(args.runs):
        order = ("A", "B") if i % 2 == 0 else ("B", "A")
        for s in order:
            seed = args.seed + i + (0 if s == "A" else 1000)
            for w in workloads:
                results[w][s].append(run_once(bench, w, seed))
                print("run %d set %s %s done" % (i, s, w), file=sys.stderr)

    ok = True
    for w in workloads:
        print("== %s" % w)
        shares = {}
        for s in ("A", "B"):
            att = sum(r["attempted"] for r in results[w][s])
            fail = sum(r["failed"] for r in results[w][s])
            shares[s] = (fail, att)
            if not all(r["correct"] for r in results[w][s]):
                ok = False
        if shares["A"][0] * shares["B"][1] != shares["B"][0] * shares["A"][1]:
            print("  failed share differs: %s" % shares)
            ok = False
        print("  %-12s %-34s %-34s %-26s %s" % (
            "metric", "set A med [q1, q3] spread", "set B med [q1, q3] spread",
            "B vs A (bound)", "all runs spread"))
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            row = []
            meds = {}
            for s in ("A", "B"):
                vals = [r["metrics"][name]["value"] for r in results[w][s]]
                med, q1, q3, spread = summary(vals)
                meds[s] = med
                row.append("%.5g [%.5g, %.5g] %.3f" % (med, q1, q3, spread))
                if name != "setup_s" and spread > bound:
                    ok = False
            change = (meds["B"] - meds["A"]) / meds["A"]
            worse = change if m["better"] == "lower" else -change
            agree = worse <= bound
            ok = ok and agree
            pooled = summary([r["metrics"][name]["value"]
                              for s in ("A", "B") for r in results[w][s]])[3]
            print("  %-12s %-34s %-34s %+.3f (%.2f) %-9s %.3f" % (
                name, row[0], row[1], change, bound,
                "agree" if agree else "DISAGREE", pooled))
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
