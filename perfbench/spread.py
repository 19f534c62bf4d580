#!/usr/bin/env python3
"""Run one workload on several seeds and print each metric's spread.

    python3 perfbench/spread.py --workload <name> [--seeds 1-10] [--trace 0]

Run from the root of a checkout. Each run goes through perfbench/run.py
with BENCHMARK.json's run_seconds; per metric this prints the median, the
quartiles from statistics.quantiles(values, n=4), and their distance as a
share of the median next to the metric's bound. The run's host figures
(load average, CPU time) are printed as they come, so an outlier can be
traced to the host. Writes nothing.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    values = {}
    for seed in args.seeds:
        cmd = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(spec["run_seconds"]),
               "--trace", str(args.trace)]
        out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                             text=True, check=True).stdout.splitlines()
        result = json.loads(out[-1])
        ref = next((l for l in out if l.startswith("host reference:")), "")
        print(f"seed {seed}: correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']} {ref}", flush=True)
        print("    " + " ".join(f"{k}={v['value']:.5g}"
                                for k, v in result["metrics"].items()))
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    print(f"{'metric':32} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>6}")
    for name, v in values.items():
        q1, _, q3 = statistics.quantiles(v, n=4)
        med = statistics.median(v)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        print(f"{name:32} {med:12.6g} {q1:12.6g} {q3:12.6g} "
              f"{spread:8.4f} {bound if bound is not None else '':>6}")


if __name__ == "__main__":
    main()
