#!/usr/bin/env python3
"""Interleaved A/B of the repository benchmark across two source trees.

    python3 tools/ab_perfbench.py BASE_TREE CHANGE_TREE
        [--workloads fig7_sweep,des_fleet] [--pairs 10] [--seconds S]
        [--seed0 1] [--build-root DIR] [--verbose]

Runs `perfbench/run.py` from each tree, each with its own
CARGO_TARGET_DIR (BUILD_ROOT/base and BUILD_ROOT/change, default
.ab_build), so the two builds never share objects. Pair i uses seed
seed0 + i for both sides, and the side that runs first alternates from
pair to pair, so slow drift of the host hits both sides alike. Before the
pairs, one short untimed run per side builds its tree.

For every workload it prints, per metric of BENCHMARK.json (end-to-end
first, then per-layer), each side's median and quartiles
(statistics.quantiles(values, n=4)), the change/base ratio of the medians,
and the change's wins: the pairs in which the change's value is better
in the metric's direction. End-to-end rows also show the change's median
shift in the worse direction against the metric's bound; an op-fail row
reports each side's failed/attempted totals. Exits 1 when a run fails or
is incorrect, or when an end-to-end median shift exceeds its bound.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SIDES = ("base", "change")


def run_once(tree, build_dir, workload, seed, seconds):
    env = dict(os.environ, CARGO_TARGET_DIR=build_dir)
    proc = subprocess.run(
        [sys.executable, os.path.join(tree, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(
            f"{tree}: {workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError(f"{tree}: {workload} seed {seed}: incorrect")
    return result


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def better(change, base, direction):
    return change > base if direction == "higher" else change < base


def report(workload, runs, bench, verbose):
    """Prints the per-metric table; returns False on a bound breach."""
    ok = True
    pairs = len(runs["base"])
    print(f"\n== {workload}: {pairs} interleaved pairs")
    print(f"{'metric':32} {'base median [q1, q3]':>34} "
          f"{'change median [q1, q3]':>34} {'ratio':>7} {'wins':>6}  bound")
    metrics = [(m, True) for m in bench["end_to_end"]]
    metrics += [(m, False) for m in bench.get("per_layer", [])]
    for m, end_to_end in metrics:
        name = m["name"]
        values = {s: [r["metrics"][name]["value"] for r in runs[s]
                      if name in r["metrics"]] for s in SIDES}
        if len(values["base"]) != pairs or len(values["change"]) != pairs:
            continue  # the workload does not report this metric
        stats = {s: quartiles(values[s]) for s in SIDES}
        cells = [f"{med:.6g} [{q1:.6g}, {q3:.6g}]"
                 for med, q1, q3 in (stats[s] for s in SIDES)]
        base_med, change_med = stats["base"][0], stats["change"][0]
        ratio = change_med / base_med if base_med else float("nan")
        wins = sum(better(c, b, m["better"])
                   for b, c in zip(values["base"], values["change"]))
        verdict = ""
        if end_to_end:
            worse = (change_med - base_med) / base_med if base_med else 0.0
            if m["better"] == "higher":
                worse = -worse
            breach = worse > m["bound"]
            ok = ok and not breach
            verdict = (f"{worse:+.2%} worse vs {m['bound']:.2f} "
                       f"({'EXCEEDED' if breach else 'ok'})")
        print(f"{name:32} {cells[0]:>34} {cells[1]:>34} {ratio:7.3f} "
              f"{wins:>3}/{pairs:<2}  {verdict}")
        if verbose:
            for s in SIDES:
                print(f"{'':34}{s}: " +
                      " ".join(f"{v:.6g}" for v in values[s]))
    for s in SIDES:
        attempted = sum(r["attempted"] for r in runs[s])
        failed = sum(r["failed"] for r in runs[s])
        ratio = failed / attempted if attempted else 0.0
        print(f"{'op-fail ' + s:32} {failed}/{attempted} = {ratio:.4g}")
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base")
    ap.add_argument("change")
    ap.add_argument("--workloads", default=None,
                    help="comma-separated; default: BENCHMARK.json's")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=None,
                    help="per run; default: BENCHMARK.json run_seconds")
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--build-root", default=".ab_build")
    ap.add_argument("--verbose", action="store_true",
                    help="also print every run's value")
    args = ap.parse_args()
    if args.pairs < 10:
        ap.error("--pairs must be >= 10 for a readable win count")

    trees = {"base": os.path.abspath(args.base),
             "change": os.path.abspath(args.change)}
    for tree in trees.values():
        if not os.path.isfile(os.path.join(tree, "perfbench", "run.py")):
            ap.error(f"{tree} has no perfbench/run.py")
    with open(os.path.join(trees["change"], "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = (args.workloads.split(",") if args.workloads else
                 [w["name"] for w in bench["workloads"]])
    seconds = args.seconds if args.seconds else bench["run_seconds"]
    build_root = os.path.abspath(args.build_root)
    build_dirs = {s: os.path.join(build_root, s) for s in SIDES}

    ok = True
    for workload in workloads:
        for s in SIDES:  # build each tree outside the timed pairs
            run_once(trees[s], build_dirs[s], workload, args.seed0, 1)
        runs = {s: [] for s in SIDES}
        for i in range(args.pairs):
            seed = args.seed0 + i
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            for s in order:
                try:
                    runs[s].append(run_once(trees[s], build_dirs[s],
                                            workload, seed, seconds))
                except RuntimeError as e:
                    print(f"FAILED: {e}")
                    sys.exit(1)
            print(f"{workload}: pair {i + 1}/{args.pairs} done",
                  file=sys.stderr)
        ok = report(workload, runs, bench, args.verbose) and ok
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
