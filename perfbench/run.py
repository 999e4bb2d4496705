#!/usr/bin/env python3
"""Campaign benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a druzhba checkout.  It builds perfbench/bench.exe
with dune into .bench_build (the first build compiles the whole library),
runs one workload and passes the benchmark's output through; the last line
is the result as one JSON object.  `--workload all` runs every workload in
turn and exits non-zero if any of them fails a check.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ["rmt-short", "rmt-long", "hunt", "native-cold"]
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build(root):
    if not (os.path.isfile(os.path.join(root, "dune-project")) and os.path.isdir(os.path.join(root, "lib"))):
        fail("run from the root of a druzhba checkout (no dune-project and lib/ here)")
    build_dir = os.path.join(root, ".bench_build")
    cmd = ["dune", "build", "--root", root, "--build-dir", build_dir, "./perfbench/bench.exe",
           "./perfbench/refslice.exe"]
    try:
        done = subprocess.run(cmd, cwd=root, stdout=sys.stderr, stderr=sys.stderr)
    except OSError as e:
        fail("cannot run dune: %s" % e)
    if done.returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, "default", "perfbench", "bench.exe")


def run_one(exe, root, workload, args):
    cmd = [exe, "--workload", workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--scratch", os.path.join(root, ".bench_scratch")]
    if args.phvs:
        cmd += ["--phvs", str(args.phvs)]
    done = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    if done.returncode != 0:
        return done.returncode, None
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("%s: the last line is not a JSON result" % workload)
    if set(result) != RESULT_KEYS:
        fail("%s: result keys %s" % (workload, sorted(result)))
    return 0, result


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--phvs", type=int, default=0, help="override the workload's PHVs per trial")
    args = parser.parse_args()
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    exe = build(root)
    # One CPU for the benchmark and its reference process, so that the
    # reference samples the same CPU the campaigns run on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    try:
        sys.exit(run_all(exe, root, args))
    finally:
        try:
            os.rmdir(os.path.join(root, ".bench_scratch"))  # each run empties what it wrote
        except OSError:
            pass


def run_all(exe, root, args):
    if args.workload != "all":
        code, _ = run_one(exe, root, args.workload, args)
        return code
    # every workload in turn; the summary line prefixes each metric with its workload
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for workload in WORKLOADS:
        code, result = run_one(exe, root, workload, args)
        if result is None:
            merged["correct"] = False
            worst = worst or code
            continue
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            merged["metrics"][workload + "/" + name] = metric
    print(json.dumps(merged))
    return worst or (0 if merged["correct"] else 1)


if __name__ == "__main__":
    main()
