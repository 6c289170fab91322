#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, as the stability note quotes it.

Runs perfbench/run.py --trace 0 once per seed on each workload and prints,
per metric, the median, the quartile spread (Q3 - Q1) / median from
statistics.quantiles(values, n=4), and that spread against the metric's
bound in BENCHMARK.json. From the repository root:

  python3 perfbench/spread.py --workloads cnn_honest --seeds 1-5
  python3 perfbench/spread.py --seeds 1-10
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads",
                        default="cnn_honest,mlp_byz90,rescnn_sampled")
    parser.add_argument("--seeds", default="1-10", help="first-last")
    args = parser.parse_args()
    first, last = (int(x) for x in args.seeds.split("-"))
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    run = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--seconds", str(bench["run_seconds"]), "--trace", "0"]

    worst = 0.0
    for workload in args.workloads.split(","):
        values = {name: [] for name in bounds}
        for seed in range(first, last + 1):
            proc = subprocess.run(
                run + ["--workload", workload, "--seed", str(seed)],
                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
                cwd=ROOT, check=False)
            lines = proc.stdout.splitlines()
            result = json.loads(lines[-1])
            if proc.returncode != 0 or not result["correct"]:
                sys.exit("%s seed %d failed its correctness gate"
                         % (workload, seed))
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            steal = json.loads(lines[-2])["meta"]["steal_frac"]
            print("  seed %3d  steal %.3f  " % (seed, steal or 0.0)
                  + "  ".join("%s %.6g" % (name, values[name][-1])
                              for name in bounds), flush=True)
        print("%s (seeds %d-%d)" % (workload, first, last))
        for name, bound in bounds.items():
            v = values[name]
            median = statistics.median(v)
            q1, _, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / median if median else 0.0
            if name != "setup_s":
                worst = max(worst, spread / bound)
            print("  %-14s median %12.6g  spread %6.2f%%  bound %4.0f%%  "
                  "spread/bound %.2f" % (name, median, 100 * spread,
                                         100 * bound, spread / bound))
    print("worst spread/bound (setup_s excluded): %.2f" % worst)


if __name__ == "__main__":
    main()
