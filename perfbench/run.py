#!/usr/bin/env python3
"""End-to-end benchmark of commsched.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the commsched libraries and perfbench/driver.cpp from source into
.bench_build/perfbench (rebuilt incrementally), then runs the driver, which
prints one JSON result line last on stdout. Build output goes to stderr.
Exits non-zero without a result when the build or the run fails.

Workloads (see BENCHMARK.json for why each exists):
  experiment  the paper's Fig. 3 evaluation with a shortened load sweep
  schedule    parallel fixed-budget Tabu restarts on 128-switch networks
  served_hot  batch frames of cache-hit requests through a warmed daemon
  served_cold schedules on networks the daemon's caches no longer hold
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = os.path.join(".bench_build", "perfbench")
DRIVER = os.path.join(BUILD_DIR, "perfbench_driver")
WORKLOADS = ("experiment", "schedule", "served_hot", "served_cold")


def build():
    """Configures (once) and builds the driver; True on success."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "--build", BUILD_DIR, "--target", "perfbench_driver", "-j", jobs]]
    if not os.path.exists(DRIVER):
        # Later builds re-run the configure step themselves when a
        # CMakeLists.txt changes.
        steps.insert(0, ["cmake", "-S", HERE, "-B", BUILD_DIR,
                         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    # Compiler temporaries stay inside the build tree too.
    tmp = os.path.abspath(os.path.join(BUILD_DIR, "tmp"))
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    for step in steps:
        # Build chatter goes to stderr: stdout's last line is the result.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr, env=env).returncode != 0:
            return False
    return os.path.exists(DRIVER)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    command = [DRIVER, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
