#!/usr/bin/env python3
"""Steadiness check: run one workload N times and report each metric's spread.

    python3 perfbench/steady.py --workload mc-sweep --runs 10 [--first-seed 1] [--trace 0]

Run from the repository root. Each run uses its own seed (first-seed,
first-seed+1, ...). For every metric it prints the median, the first and
third quartiles (Python's statistics.quantiles, n=4) and the spread,
(Q3 - Q1) / median. In an untraced run every end-to-end metric whose
spread exceeds its bound in BENCHMARK.json is flagged FAIL, and one
above a third of its bound is flagged warn; setup_s is exempt from the
spread check. The helper also checks that every run is correct and
reports exactly the metrics BENCHMARK.json names. Exits non-zero if any
check fails.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        raise RuntimeError(f"seed {seed}: exit {p.returncode}")
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    specs = bench["per_layer"] if args.trace else bench["end_to_end"]
    want = {m["name"]: m for m in specs}

    ok = True
    values = {name: [] for name in want}
    for i in range(args.runs):
        seed = args.first_seed + i
        res = run_once(args.workload, seed, seconds, args.trace)
        got = set(res["metrics"])
        if got != set(want):
            print(f"FAIL seed {seed}: metrics missing {sorted(set(want) - got)}, "
                  f"unexpected {sorted(got - set(want))}")
            ok = False
        if not res["correct"] or res["failed"]:
            print(f"FAIL seed {seed}: correct={res['correct']} failed={res['failed']} of {res['attempted']}")
            ok = False
        for name in want:
            if name in res["metrics"]:
                values[name].append(res["metrics"][name]["value"])
        print(f"seed {seed}: " + ", ".join(
            f"{n}={res['metrics'][n]['value']:.6g}" for n in want if n in res["metrics"] and not args.trace),
            flush=True)

    print(f"\n{args.workload}: {args.runs} runs of {seconds} s, trace {args.trace}")
    print(f"{'metric':36} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for name, vs in values.items():
        if len(vs) < 2:
            continue
        q1, med, q3 = statistics.quantiles(vs, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        bound = want[name].get("bound")
        flag = ""
        if bound is not None and name != "setup_s":
            if spread > bound:
                flag, ok = "FAIL", False
            elif spread > bound / 3:
                flag = "warn"
        b = f"{bound:6.2f}" if bound is not None else "     -"
        print(f"{name:36} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} {b} {flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
