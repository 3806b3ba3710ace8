#!/usr/bin/env python3
"""A/B comparison of two checkouts on the benchmark, in alternating pairs.

    python3 tools/perf_ab.py --base ../parent --change . --workload sweep4t

Pair i (i = 1..N) runs perfbench/run.py at --seed i in both checkouts: the
base first in odd pairs, the change first in even ones.  Each checkout
builds its own msim_perfbench (into its .bench_build, as run.py does); an
untimed first run per side does the build.  Both sides use the same
--seconds.

For every metric the report gives each side's median and quartiles, the
ratio of the medians (change / base) and the change's wins: pairs where it
beat the base in the metric's direction from BENCHMARK.json, ties counting
for neither.  A gain holds when the change wins at least nine tenths of the
pairs and the medians differ by more than the base's interquartile range;
the verdict column says so for the end-to-end metrics.  Every run must
report "correct": true with no failed operation, or the script exits 1.
--json PATH writes every run's result line as well.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run_once(checkout, workload, seed, seconds):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"perf_ab: {' '.join(cmd)} in {checkout} exited {proc.returncode}")
    return json.loads(lines[-1])


def directions(checkout):
    """Metric name -> "lower" or "higher", from BENCHMARK.json."""
    with open(os.path.join(checkout, "BENCHMARK.json")) as f:
        bench = json.load(f)
    out = {}
    for group in ("end_to_end", "per_layer"):
        for m in bench.get(group, []):
            out[m["name"]] = m["better"]
    return out, [m["name"] for m in bench.get("end_to_end", [])]


def value_of(entry):
    return entry["value"] if isinstance(entry, dict) else entry


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True, help="parent checkout")
    ap.add_argument("--change", required=True, help="checkout under test")
    ap.add_argument("--workload", required=True, help="comma-separated workloads")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--json", help="write every run's result here")
    args = ap.parse_args()
    if args.pairs < 1:
        sys.exit("perf_ab: --pairs must be at least 1")
    sides = {"base": os.path.abspath(args.base), "change": os.path.abspath(args.change)}
    better, end_to_end = directions(sides["change"])

    record = {}
    failed = False
    for workload in args.workload.split(","):
        for side, checkout in sides.items():
            print(f"[{workload}] building and warming {side} ({checkout})", file=sys.stderr)
            run_once(checkout, workload, 1, 0.1)
        runs = {"base": [], "change": []}
        for seed in range(1, args.pairs + 1):
            order = ("base", "change") if seed % 2 == 1 else ("change", "base")
            for side in order:
                result = run_once(sides[side], workload, seed, args.seconds)
                if not result["correct"] or result["failed"] != 0:
                    print(f"[{workload}] {side} seed {seed}: correct={result['correct']} "
                          f"failed={result['failed']}", file=sys.stderr)
                    failed = True
                runs[side].append(result)
            print(f"[{workload}] pair {seed}/{args.pairs} done", file=sys.stderr)
        record[workload] = runs
        report(workload, runs, better, end_to_end)
    if args.json:
        with open(args.json, "w") as f:
            json.dump(record, f, indent=1)
    return 1 if failed else 0


def report(workload, runs, better, end_to_end):
    names = [n for n in runs["base"][0]["metrics"] if n in better]
    names.sort(key=lambda n: (n not in end_to_end, n))
    pairs = len(runs["base"])
    print(f"\n{workload}: {pairs} pairs; median [q1, q3] per side, wins of {pairs}")
    print(f"{'metric':32} {'base':>30} {'change':>30} {'ratio':>7} {'wins':>5}  verdict")
    for name in names:
        base = [value_of(r["metrics"][name]) for r in runs["base"]]
        change = [value_of(r["metrics"][name]) for r in runs["change"]]
        sign = 1 if better[name] == "higher" else -1
        wins = sum(1 for b, c in zip(base, change) if sign * (c - b) > 0)
        b1, bm, b3 = quartiles(base)
        c1, cm, c3 = quartiles(change)
        ratio = cm / bm if bm else float("nan")
        verdict = ""
        if name in end_to_end:
            gain = wins * 10 >= pairs * 9 and sign * (cm - bm) > b3 - b1
            verdict = "gain" if gain else "no gain shown"
        print(f"{name:32} {fmt(bm, b1, b3):>30} {fmt(cm, c1, c3):>30} "
              f"{ratio:7.3f} {wins:5d}  {verdict}")


def fmt(median, q1, q3):
    return f"{median:.4g} [{q1:.4g}, {q3:.4g}]"


if __name__ == "__main__":
    sys.exit(main())
