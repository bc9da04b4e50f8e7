#!/usr/bin/env python3
"""Steadiness runner: repeats the benchmark and reports each end-to-end
metric's median, quartiles and spread against its bound.

    python3 perfbench/steady.py [--workloads fig7_sweep,des_fleet]
        [--runs 10] [--sets 1] [--seed0 1] [--seconds S] [--verbose]

For every workload it runs `run.py` --runs times per set, each run with
another seed, and prints per metric the median, the first and third
quartile (statistics.quantiles(values, n=4)) and the spread
(q3 - q1) / median next to the metric's bound from BENCHMARK.json and a
third of it, the target. With --sets 2 or more it also compares each later
set's median with the first set's, in the metric's worse direction,
against the bound. Exits 1 when a run fails or a spread (setup_s
excepted) or a median shift exceeds its bound.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: incorrect result")
    return {k: v["value"] for k, v in result["metrics"].items()}


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--verbose", action="store_true",
                    help="also print every run's value")
    args = ap.parse_args()

    ok = True
    for workload in args.workloads.split(","):
        sets = []
        for s in range(args.sets):
            runs = []
            for r in range(args.runs):
                seed = args.seed0 + s * args.runs + r
                try:
                    runs.append(run_once(workload, seed, args.seconds))
                except RuntimeError as e:
                    print(f"FAILED: {e}")
                    ok = False
            sets.append(runs)
        print(f"\n== {workload}: {args.runs} runs x {args.sets} set(s), "
              f"{args.seconds:g} s each")
        if args.verbose:
            for m in bench["end_to_end"]:
                print(f"  {m['name']}: " + " | ".join(
                    " ".join(f"{r[m['name']]:.6g}" for r in runs)
                    for runs in sets))
        print(f"{'metric':22} {'median':>14} {'q1':>14} {'q3':>14} "
              f"{'spread':>8} {'bound':>6} {'target':>7}  verdict")
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            medians = []
            for runs in sets:
                values = [r[name] for r in runs if name in r]
                if len(values) < 2:
                    print(f"{name:22} (too few runs)")
                    ok = False
                    continue
                med, q1, q3, spread = summarize(values)
                medians.append(med)
                steady = spread <= bound / 3
                verdict = "steady" if steady else (
                    "within bound" if spread <= bound else "TOO WIDE")
                if name != "setup_s" and spread > bound:
                    ok = False
                print(f"{name:22} {med:14.6g} {q1:14.6g} {q3:14.6g} "
                      f"{spread:8.2%} {bound:6.2f} {bound / 3:7.3f}  {verdict}")
            for k, med in enumerate(medians[1:], start=2):
                worse = (med - medians[0]) / medians[0]
                if m["better"] == "higher":
                    worse = -worse
                flag = "ok" if worse <= bound else "SHIFTED"
                ok = ok and worse <= bound
                print(f"{'':22} set {k} vs set 1: {worse:+.2%} worse ({flag})")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
