#!/usr/bin/env python3
"""Alternating-pairs A/B of the working tree against a parent revision.

    python3 scripts/ab_pairs.py --parent HEAD~1 --workload sim_hier_failover \\
        --first-seed 301 --pairs 10

Exports REV with `git archive` into a temporary directory and builds each
side's e2ebench with its own CARGO_TARGET_DIR there (the working tree's own
.bench_build is left alone; leave the working tree's sources unchanged while
it runs, since each run rebuilds incrementally). Pair k uses seed
first-seed + k and runs the parent first when k is even, the change first
when k is odd, each as `e2ebench/run.py --seconds 30 --trace 0`.

For each end-to-end metric in BENCHMARK.json it prints the parent's median
[q1, q3] (inclusive quartiles), the change's median, and in how many pairs
the change read lower, equal and higher than the parent; then each side's
failed share of kills. On sim_hier_failover it also prints whether each
seed's fingerprint matched, or MISSING when either run's notes lack one.
Exits non-zero when any run fails the benchmark's own output check.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def export(rev, dest):
    os.makedirs(dest)
    archive = subprocess.run(["git", "-C", ROOT, "archive", rev],
                             stdout=subprocess.PIPE, check=True).stdout
    subprocess.run(["tar", "-x", "-C", dest], input=archive, check=True)


def run_side(tree, build_dir, workload, seed):
    """One benchmark run: its result line plus the fingerprint note, or
    None when the run or its output check failed."""
    env = dict(os.environ, CARGO_TARGET_DIR=build_dir)
    proc = subprocess.run(
        [sys.executable, os.path.join(tree, "e2ebench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", "30", "--trace", "0"],
        cwd=tree, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        return None
    result = json.loads(lines[-1])
    result["fingerprint"] = next(
        (line.split()[1] for line in lines[:-1]
         if line.startswith("fingerprint ")), None)
    return result


def report(args, end_to_end, results):
    """Prints the comparison of the pairs in which both runs passed."""
    pairs = [(seed, p, c) for seed, p, c in results if p and c]
    print("%s, %d pairs (seeds %d-%d), parent %s vs working tree" % (
        args.workload, len(pairs), args.first_seed,
        args.first_seed + args.pairs - 1, args.parent))
    if not pairs:
        return
    print("%-22s %-36s %-14s %s" % ("metric", "parent median [q1, q3]",
                                    "change median",
                                    "change lower/equal/higher"))
    for name in end_to_end:
        parent = [p["metrics"][name]["value"] for _, p, _ in pairs]
        change = [c["metrics"][name]["value"] for _, _, c in pairs]
        q1, median, q3 = (statistics.quantiles(parent, n=4, method="inclusive")
                          if len(parent) > 1 else parent * 3)
        lower = sum(c < p for p, c in zip(parent, change))
        equal = sum(c == p for p, c in zip(parent, change))
        print("%-22s %-36s %-14.6g %d/%d/%d" % (
            name, "%.6g [%.6g, %.6g]" % (median, q1, q3),
            statistics.median(change), lower, equal,
            len(pairs) - lower - equal))
    for side, index in (("parent", 1), ("change", 2)):
        done = [r[index] for r in results if r[index]]
        print("%s: %d of %d kills failed" % (
            side, sum(r["failed"] for r in done),
            sum(r["attempted"] for r in done)))
    if args.workload == "sim_hier_failover":
        for seed, p, c in pairs:
            if p["fingerprint"] is None or c["fingerprint"] is None:
                verdict = "MISSING"
            elif p["fingerprint"] == c["fingerprint"]:
                verdict = "matches"
            else:
                verdict = "DIFFERS"
            print("seed %d fingerprint %s (parent %s, change %s)" % (
                seed, verdict, p["fingerprint"], c["fingerprint"]))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision")
    parser.add_argument("--workload", required=True,
                        choices=("live_failover", "sim_hier_failover"))
    parser.add_argument("--first-seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        end_to_end = [m["name"] for m in json.load(f)["end_to_end"]]

    work = tempfile.mkdtemp(prefix="ab_pairs_")
    try:
        parent_tree = os.path.join(work, "parent")
        export(args.parent, parent_tree)
        sides = {
            "parent": (parent_tree, os.path.join(work, "parent_build")),
            "change": (ROOT, os.path.join(work, "change_build")),
        }
        results = []  # (seed, parent run, change run); None for a failed run
        for k in range(args.pairs):
            seed = args.first_seed + k
            got = {}
            for side in ("parent", "change")[::1 if k % 2 == 0 else -1]:
                got[side] = run_side(*sides[side], args.workload, seed)
                if got[side] is None:
                    print("ab_pairs: %s run of seed %d failed" % (side, seed),
                          file=sys.stderr)
            results.append((seed, got["parent"], got["change"]))
            print("ab_pairs: pair %d/%d (seed %d) done" % (
                k + 1, args.pairs, seed), file=sys.stderr)
        report(args, end_to_end, results)
        return 0 if all(p and c for _, p, c in results) else 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
