#!/usr/bin/env python3
"""Builds hxbench from this checkout and runs one workload.

    python3 bench/perf/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of the checkout.  The first call configures and builds
bench/perf (and through it src/) into build-perf/, the build directory
README.md documents; later calls only rebuild what changed.  hxbench's own
report goes to stderr.  The last line on stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding the end-to-end metrics of BENCHMARK.json (--trace 0) or its
per-layer metrics (--trace 1, a separate traced run).  Exits non-zero,
printing no result, when the build or the run fails.  Standard library only.
"""
import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, "build-perf")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def call(cmd, timeout):
    """Runs cmd in its own process group, output to stderr; on timeout or
    interrupt the whole group is killed and reaped."""
    proc = subprocess.Popen(cmd, stdout=sys.stderr, stderr=sys.stderr,
                            start_new_session=True)
    try:
        return proc.wait(timeout=timeout)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise


def build():
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        if call(["cmake", "-S", HERE, "-B", BUILD,
                 "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S) != 0:
            sys.exit("run.py: cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if call(["cmake", "--build", BUILD, "-j", jobs], BUILD_TIMEOUT_S) != 0:
        sys.exit("run.py: build failed")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        sys.exit(f"run.py: unknown workload '{args.workload}'")
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    build()
    out_dir = os.path.join(BUILD, "runs")
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, f"{args.workload}.seed{args.seed}"
                                 f"{'.traced' if args.trace else ''}")
    cmd = [os.path.join(BUILD, "hxbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--passes", "1", "--json", stem + ".json"]
    if args.trace:
        cmd += ["--trace", stem + ".trace.json"]
    if os.path.exists(stem + ".json"):
        os.remove(stem + ".json")
    if call(cmd, RUN_TIMEOUT_S) != 0:
        sys.exit("run.py: hxbench failed")

    with open(stem + ".json") as f:
        result = json.load(f)
    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"] or got["value"] is None:
            sys.exit(f"run.py: hxbench reported no {m['name']} [{m['unit']}]")
        metrics[m["name"]] = got
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
