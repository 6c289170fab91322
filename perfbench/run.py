#!/usr/bin/env python3
"""End-to-end round benchmark of the dpbr federated trainer.

Builds perfbench_runner from the checkout it sits in (CMake, Release, into
.bench_build/) and runs workloads through the real FederatedTrainer, one
process per workload so peak RSS is the workload's own. From the
repository root:

  python3 perfbench/run.py --workload cnn_honest --seed 1 --seconds 25 --trace 0
  python3 perfbench/run.py --workload all --seed 1 --trace 0
  python3 perfbench/run.py --smoke [--trace 1]

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones
(see perfbench/README.md). --smoke runs all three workloads at tiny size
through the same code and correctness gate, in seconds. The last stdout
line is one JSON object with the keys correct, attempted, failed and
metrics; the line before it carries run metadata, to which this script
adds the host's CPU steal fraction over the run. The exit code is non-zero
when the build fails or a correctness check fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
SCRATCH_DIR = os.path.join(BUILD_ROOT, "scratch")
RUNNER = os.path.join(BUILD_DIR, "perfbench_runner")
WORKLOADS = ["cnn_honest", "mlp_byz90", "rescnn_sampled"]
# A workload run that takes longer than this is killed and fails (a quiet
# host needs about 25 s).
RUN_TIMEOUT_S = 170


def build():
    """Configures and builds the runner; exits non-zero on failure."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        sys.exit("perfbench: no dpbr sources (CMakeLists.txt, src/) in " + ROOT)
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_ROOT, "build.log")
    steps = [
        ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD_DIR, "-j", str(os.cpu_count() or 1),
         "--target", "perfbench_runner"],
    ]
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              check=False).returncode != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                sys.exit("perfbench: build failed (log: %s)" % log_path)


def cpu_ticks():
    """(steal, total) jiffies of all CPUs, or None where /proc is absent."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
    except OSError:
        return None
    if not fields or fields[0] != "cpu":
        return None
    # user nice system idle iowait irq softirq steal; guest time is
    # already inside user.
    ticks = [int(x) for x in fields[1:9]]
    return ticks[7] if len(ticks) > 7 else 0, sum(ticks)


def run_workload(workload, args):
    """Runs one workload; returns (exit code, stdout lines, steal fraction)."""
    cmd = [RUNNER, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scratch_dir", SCRATCH_DIR]
    if args.smoke:
        cmd.append("--smoke")
    if args.min_accuracy is not None:
        cmd += ["--min_accuracy", repr(args.min_accuracy)]
    before = cpu_ticks()
    try:
        # On timeout subprocess.run kills the runner and waits for it.
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: %s did not finish within %d s"
                 % (workload, RUN_TIMEOUT_S))
    finally:
        shutil.rmtree(SCRATCH_DIR, ignore_errors=True)
    after = cpu_ticks()
    steal = None
    if before and after and after[1] > before[1]:
        steal = (after[0] - before[0]) / (after[1] - before[1])
    return proc.returncode, proc.stdout.splitlines(), steal


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        help="one of %s, or all" % ", ".join(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="all workloads at tiny size (the benchmark's "
                             "own tests)")
    parser.add_argument("--min_accuracy", type=float, default=None,
                        help="override every workload's final-accuracy "
                             "floor")
    args = parser.parse_args()
    if args.smoke or args.workload == "all":
        workloads = WORKLOADS
    elif args.workload in WORKLOADS:
        workloads = [args.workload]
    else:
        parser.error("unknown workload: " + args.workload)

    build()
    results = []
    for workload in workloads:
        code, lines, steal = run_workload(workload, args)
        if not lines or not lines[-1].startswith("{\"correct\""):
            sys.stdout.write("\n".join(lines) + "\n")
            sys.exit("perfbench: %s printed no result (exit code %d)"
                     % (workload, code))
        for line in lines[:-1]:
            if line.startswith("{\"meta\""):
                meta = json.loads(line)
                meta["meta"]["steal_frac"] = steal
                line = json.dumps(meta)
            print(line)
        results.append((workload, code, lines[-1]))

    if len(results) == 1:
        workload, code, line = results[0]
        print(line)
        sys.exit(code)
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload, code, line in results:
        result = json.loads(line)
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][workload + "." + name] = metric
    print(json.dumps(combined))
    sys.exit(0 if all(code == 0 for _, code, _ in results) else 1)


if __name__ == "__main__":
    main()
