#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload <cnt-md|si64-dist> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The package in this directory is built
in release mode (into $CARGO_TARGET_DIR, or perfbench/target) and run on
the workload. Its report goes to standard output; the last line is the
result object, holding every end-to-end metric of BENCHMARK.json
(--trace 0) or every per-layer metric (--trace 1). A traced run also
writes its spans under perfbench/out/. The exit code is not 0, and no
result is printed, if the build, the run or the result's shape fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 870
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=[0, 1])
    return p.parse_args()


def build():
    """Build the release binary and return its path."""
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if done.returncode != 0:
        fail(f"build failed with exit code {done.returncode}")
    return os.path.join(target, "release", "tbmd-perfbench")


def expected_metrics(trace):
    """Name -> unit of the metrics BENCHMARK.json promises for this run."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    args = parse_args()
    binary = build()
    names = expected_metrics(args.trace)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", os.path.join(HERE, "out")]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"benchmark did not finish: {e}")
    if done.returncode != 0:
        sys.stderr.write(done.stdout)
        fail(f"benchmark exited with code {done.returncode}")
    lines = done.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError as e:
        fail(f"last line is not a result object: {e}")
    if set(result) != RESULT_KEYS:
        fail(f"result keys {sorted(result)} are not {sorted(RESULT_KEYS)}")
    got = {k: v.get("unit") for k, v in result["metrics"].items()}
    if got != names:
        fail(f"metrics {sorted(got.items())} are not {sorted(names.items())}")
    sys.stdout.write(done.stdout)


if __name__ == "__main__":
    main()
