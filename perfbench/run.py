#!/usr/bin/env python3
"""Builds the msim benchmark program from source and runs one workload.

    python3 perfbench/run.py --workload run4t --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  msim_perfbench is compiled (Release) into
$CARGO_TARGET_DIR, default .bench_build, on first use; later calls only
rebuild what changed.  The last line of standard output is the result
object {"correct", "attempted", "failed", "metrics"}.  Without the
simulator's sources next to this directory the script exits 2 and prints
no result.  Workloads and metrics are described in perfbench/NOTES.md.
"""
import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("run4t", "sweep4t", "serve4c")
RUN_TIMEOUT_S = 175


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "smt", "pipeline.cpp")):
        fail("simulator sources (src/) not found; run from a full checkout")
    # Configure on every call: it is quick when nothing changed, and CMake
    # refuses a build directory configured from another checkout instead of
    # silently building that checkout's sources.
    steps = [["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", build_dir, "-j4"]]
    for cmd in steps:
        # Build output goes to stderr: stdout carries only the results.
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "msim_perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    binary = build(build_dir)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--work-dir", os.path.join(build_dir, "work"),
           "--pins", os.path.join(HERE, "pinned.json")]
    # Own process group, so a timeout also stops forked sweep workers.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = out.splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"{args.workload} exited with code {proc.returncode}")
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("malformed result line: " + lines[-1])
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
