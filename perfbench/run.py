#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload fig7_sweep|des_fleet|skpd_serve \
        --seed N --seconds S --trace 0|1

Run from the repository root. On first use it configures and builds the
benchmark package (perfbench/CMakeLists.txt: the library, the skpd daemon
and the perfbench driver) into $CARGO_TARGET_DIR, default .bench_build;
later runs only rebuild what changed. It then runs one workload and
relays its output: one line per metric, then the JSON result object as
the last line. The exit code is perfbench's: 0 when every correctness
check passed. The traced run (--trace 1) also writes its spans to
<build dir>/traces/<workload>-seed<N>.csv.
"""
import argparse
import ctypes
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fig7_sweep", "des_fleet", "skpd_serve")
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "sim", "runtime.hpp")):
        fail(f"repository sources not found under {ROOT}")
    for tool in ("cmake", "ninja"):
        if shutil.which(tool) is None:
            fail(f"{tool} is required to build the benchmark")
    if not os.path.isfile(os.path.join(build_dir, "build.ninja")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir, "-G", "Ninja",
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", build_dir, "-j", "4", "--target", "perfbench"],
        stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "perfbench")


def reap_children():
    """Waits for every remaining child, the daemon included."""
    while True:
        try:
            pid, _ = os.waitpid(-1, 0)
        except ChildProcessError:
            return
        if pid == 0:
            return


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_dir):
        build_dir = os.path.join(ROOT, build_dir)
    try:
        binary = build(build_dir)
    except subprocess.CalledProcessError as e:
        fail(f"build failed: {e}")

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        trace_dir = os.path.join(build_dir, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(trace_dir, f"{args.workload}-seed{args.seed}.csv")]

    # Orphans (a daemon whose parent died) are re-parented here, so every
    # process the run starts can be stopped and waited for.
    try:
        ctypes.CDLL(None, use_errno=True).prctl(36, 1, 0, 0, 0)  # SUBREAPER
    except (OSError, AttributeError):
        pass
    child = subprocess.Popen(cmd, start_new_session=True)
    try:
        code = child.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        code = 124
    try:
        os.killpg(child.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    time.sleep(0.01)
    reap_children()
    sys.exit(code)


if __name__ == "__main__":
    main()
