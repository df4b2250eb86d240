#!/usr/bin/env python3
"""Compares hxbench runs of one or two builds, metric by metric.

    python3 bench/perf/runs.py --build A [--build B] [--workload W ...]
                               [--runs K] [--first-seed N] [--seconds S]

Run i uses seed N+i on every build; with two builds the order alternates
(A B, B A, ...) so drift hits both sides alike.  For every workload and
every end-to-end metric of BENCHMARK.json it prints each side's median and
quartiles and the spread (q3 - q1) / median.  With two builds it adds a
verdict against the metric's bound:

  regression  B's median is worse than A's by more than the bound
              (for setup_s, by more than max(bound, 50 ms))
  improved    B wins >= 9/10 of the pairs and the medians differ by more
              than A's quartile distance
  unresolved  a side's quartile distance exceeds that tolerance, unless
              every run of one side beats every run of the other
  same        none of the above

Comparing a build with itself (--build X --build X) checks that two sets
of runs of one commit agree within the bounds.  Every run must also report
correct outputs and no failed op.  Exits 1 on a regression, an unresolved
metric or a failed run.  Standard library only.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
OUT = os.path.join(ROOT, "build-perf", "runs")
# Smallest change a verdict resolves, in the metric's unit, where the
# relative bound of BENCHMARK.json would be smaller.
ABSOLUTE_FLOOR = {"setup_s": 0.05}


def run_once(build, workload, seed, seconds, tag):
    path = os.path.join(OUT, f"{tag}.{workload}.seed{seed}.json")
    cmd = [os.path.join(build, "hxbench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--passes", "1",
           "--json", path]
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
    with open(path) as f:
        return json.load(f)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(metric, a, b):
    """The tolerance is the bound's share of A's median, and never less than
    the metric's absolute floor: pkt_sweep's set-up takes ~30 ms, where a
    share of it is below what a shared host's noise moves."""
    lower = metric["better"] == "lower"
    worse = (lambda x, y: x > y) if lower else (lambda x, y: x < y)
    qa, qb = quartiles(a), quartiles(b)
    tolerance = max(metric["bound"] * abs(qa[1]),
                    ABSOLUTE_FLOOR.get(metric["name"], 0.0))
    change = (qb[1] - qa[1]) / qa[1] if qa[1] else 0.0
    if worse(qb[1], qa[1] + tolerance if lower else qa[1] - tolerance):
        return "regression", change
    b_better = all(worse(x, y) for x in a for y in b)
    a_better = all(worse(y, x) for x in a for y in b)
    wins = sum(worse(x, y) for x, y in zip(a, b))
    if wins >= 0.9 * len(a) and abs(qb[1] - qa[1]) > qa[2] - qa[0]:
        return "improved", change
    if max(qa[2] - qa[0], qb[2] - qb[0]) > tolerance and \
            not (a_better or b_better):
        return "unresolved", change
    return "same", change


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(
        description=__doc__.split("\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--build", action="append", required=True,
                    help="hxbench build dir (give one or two)")
    ap.add_argument("--workload", action="append", choices=names)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = ap.parse_args()
    if len(args.build) > 2 or args.runs < 1:
        ap.error("give one or two --build dirs and --runs >= 1")
    os.makedirs(OUT, exist_ok=True)

    ok = True
    for workload in args.workload or names:
        runs = [[] for _ in args.build]
        for i in range(args.runs):
            seed = args.first_seed + i
            order = list(range(len(args.build)))
            if i % 2 == 1:
                order.reverse()
            for side in order:
                r = run_once(args.build[side], workload, seed, args.seconds,
                             f"side{side}")
                if not r["correct"] or r["failed"] != 0:
                    print(f"{workload} seed {seed} build {args.build[side]}: "
                          f"correct={r['correct']} failed={r['failed']}")
                    ok = False
                runs[side].append(r)
        print(f"== {workload}: {args.runs} runs per build, seeds "
              f"{args.first_seed}..{args.first_seed + args.runs - 1}")
        for metric in spec["end_to_end"]:
            values = [[r["metrics"][metric["name"]]["value"] for r in side]
                      for side in runs]
            cells = []
            for v in values:
                q1, q2, q3 = quartiles(v)
                cells.append(f"median {q2:.6g} [{q1:.6g}, {q3:.6g}] "
                             f"spread {(q3 - q1) / q2 if q2 else 0:.1%}")
            line = f"  {metric['name']:<14} {metric['unit']:<5} " + \
                " | ".join(cells)
            if len(values) == 2:
                what, change = verdict(metric, values[0], values[1])
                line += f" | {change:+.1%} {what} (bound {metric['bound']:.0%})"
                ok = ok and what in ("same", "improved")
            print(line)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
