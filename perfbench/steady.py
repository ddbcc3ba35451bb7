#!/usr/bin/env python3
"""Steadiness evidence: two interleaved sets of runs per workload.

    python3 perfbench/steady.py [--runs 10] [--seconds 30] [--workloads a,b]

For each workload this alternates runs of set A and set B (A1 B1 A2 B2 ...),
each run with its own seed, and prints per end-to-end metric the median and
the interquartile range (q3 - q1, as statistics.quantiles(n=4) gives them) as
a share of the median for each set, and the disagreement between the two
medians as a share of set A's. It then checks those figures against the
bounds in BENCHMARK.json: every spread, setup_s's included, must stay within
a third of its metric's bound, each median of set B may be worse than set
A's by at most the bound, and the failed share of operations must be the
same in every run. It prints a verdict per metric and overall, and exits 1
when any check fails. Bounds in BENCHMARK.json are set from this output.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SEED_BASE = 1000


def run_once(workload, seed, seconds):
    out = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                          "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                         capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {out.returncode}\n{out.stdout}\n{out.stderr}")
    return json.loads(lines[-1])


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10, help="runs per set")
    ap.add_argument("--seconds", type=int, default=None,
                    help="run_seconds (default: BENCHMARK.json's)")
    ap.add_argument("--workloads", default=None, help="comma-separated (default: all)")
    args = ap.parse_args()

    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]

    ok = True
    for workload in workloads:
        sets = {"A": [], "B": []}
        for i in range(args.runs):
            for k, name in enumerate("AB"):
                sets[name].append(run_once(workload, SEED_BASE + 2 * i + k, seconds))
        shares = {n: {r["failed"] / r["attempted"] for r in runs} for n, runs in sets.items()}
        same_share = len(shares["A"] | shares["B"]) == 1
        ok &= same_share
        print(f"\n== {workload}: {args.runs} runs per set, {seconds} s each")
        print(f"failed share per run: A {sorted(shares['A'])}  B {sorted(shares['B'])}  "
              f"{'ok' if same_share else 'FAIL'}")
        print(f"{'metric':12s} {'unit':4s} {'median A':>11s} {'iqr/med A':>9s} "
              f"{'median B':>11s} {'iqr/med B':>9s} {'B vs A':>8s} {'bound':>5s}")
        for m in bench["end_to_end"]:
            metric, bound = m["name"], m["bound"]
            a = [r["metrics"][metric]["value"] for r in sets["A"]]
            b = [r["metrics"][metric]["value"] for r in sets["B"]]
            ma, mb = statistics.median(a), statistics.median(b)
            disagree = (mb - ma) / ma
            worse = disagree if m["better"] == "lower" else -disagree
            good = max(spread(a), spread(b)) <= bound / 3 and worse <= bound
            ok &= good
            print(f"{metric:12s} {m['unit']:4s} {ma:11.6g} {spread(a):9.2%} {mb:11.6g} "
                  f"{spread(b):9.2%} {disagree:+8.2%} {bound:5.2f} {'ok' if good else 'FAIL'}",
                  flush=True)
    print(f"\nverdict: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
