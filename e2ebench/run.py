#!/usr/bin/env python3
"""End-to-end benchmark entry point.

Builds the benchmark package (this directory's CMakeLists.txt, which compiles
the repository's src/ tree) into $CARGO_TARGET_DIR or .bench_build under the
current directory, then runs one workload:

    python3 e2ebench/run.py --workload live_failover --seed 7 --seconds 30 --trace 0

The last line of standard output is one JSON object with the metrics. It is
printed only after it was checked against BENCHMARK.json: every end-to-end
metric (--trace 0, each non-zero) or every per-layer metric (--trace 1), in
its unit, and nothing else. Build output goes to standard error.
`--selftest` builds and runs the benchmark's own tests of its failover,
agreement and percentile code instead.
"""
import argparse
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("live_failover", "sim_hier_failover")


def build(build_dir, target):
    if not os.path.isfile(os.path.join(ROOT, "src", "omega.hpp")):
        print("e2ebench: no program sources next to the benchmark "
              "(src/omega.hpp is missing)", file=sys.stderr)
        return False
    cmake_dir = os.path.join(build_dir, "cmake")
    if not os.path.isfile(os.path.join(cmake_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", cmake_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.call(configure, stdout=sys.stderr) != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    return subprocess.call(["cmake", "--build", cmake_dir, "--target", target,
                            "-j", jobs], stdout=sys.stderr) == 0


def check_result(line, trace):
    """Returns what is wrong with the result line, or None."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        manifest = json.load(f)
    wanted = {m["name"]: m["unit"]
              for m in manifest["per_layer" if trace else "end_to_end"]}
    try:
        result = json.loads(line)
    except ValueError:
        return "the last line is not JSON"
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        return "the result has keys %s" % sorted(result)
    if result["correct"] is not True or result["attempted"] < 1:
        return "the result is not correct or attempted nothing"
    metrics = result["metrics"]
    if sorted(metrics) != sorted(wanted):
        return "metrics %s differ from BENCHMARK.json's %s" % (
            sorted(set(metrics) ^ set(wanted)), "per_layer" if trace else "end_to_end")
    for name, m in metrics.items():
        value = m["value"]
        if m["unit"] != wanted[name]:
            return "%s is in %s, not %s" % (name, m["unit"], wanted[name])
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            return "%s has no value" % name
        if not trace and value == 0:
            return "end-to-end metric %s is 0" % name
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    target = "e2ebench_selftest" if args.selftest else "e2ebench"
    if not build(build_dir, target):
        print("e2ebench: build failed", file=sys.stderr)
        return 2
    binary = os.path.join(build_dir, "cmake", target)
    if args.selftest:
        return subprocess.call([binary])
    spans_dir = os.path.join(build_dir, "spans")
    os.makedirs(spans_dir, exist_ok=True)
    run = subprocess.run([binary, "--workload", args.workload,
                          "--seed", str(args.seed),
                          "--seconds", str(args.seconds),
                          "--trace", str(args.trace),
                          "--spans-dir", spans_dir],
                         stdout=subprocess.PIPE, text=True)
    lines = run.stdout.splitlines()
    if run.returncode != 0 or not lines:
        sys.stdout.write(run.stdout)
        return run.returncode or 1
    wrong = check_result(lines[-1], args.trace)
    print("\n".join(lines[:-1]))
    if wrong:
        print("e2ebench: output check failed: " + wrong, file=sys.stderr)
        return 1
    print(lines[-1])
    return 0


if __name__ == "__main__":
    sys.exit(main())
