#!/usr/bin/env python3
"""Builds the simulator benchmark from source and runs it.

Usage, from the repository root:

  python3 simbench/run.py --workload W --seed N --seconds S --trace 0|1
  python3 simbench/run.py --compare --workload W --seed N
  python3 simbench/run.py --test

The first form prints one JSON object as the last line of standard output.
The build (CMake, Release) lives in .bench_build/simbench under the root and
is reused by later runs; its output goes to standard error.
"""

import fcntl
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "simbench")
TRACE_DIR = os.path.join(BUILD, "traces")
JOBS = str(max(1, min(4, os.cpu_count() or 1)))


def log(message):
    print("simbench: " + message, file=sys.stderr, flush=True)


def run_quiet(command):
    """Runs a build step with its output on stderr; returns its exit code."""
    return subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr).returncode


def build(targets):
    if not os.path.isfile(os.path.join(ROOT, "src", "sim", "simulator.h")):
        log("no simulator sources under %s/src; nothing to benchmark" % ROOT)
        return False
    os.makedirs(BUILD, exist_ok=True)
    # One build at a time per checkout.
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            if run_quiet(["cmake", "-S", HERE, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=Release"]) != 0:
                log("configure failed")
                return False
        command = ["cmake", "--build", BUILD, "-j", JOBS]
        for target in targets:
            command += ["--target", target]
        if run_quiet(command) != 0:
            log("build failed")
            return False
    return True


def main(argv):
    if argv == ["--test"]:
        if not build(["simbench", "simbench_test"]):
            return 1
        code = run_quiet([os.path.join(BUILD, "simbench_test")])
        if code != 0:
            return code
        return run_quiet([sys.executable, os.path.join(HERE, "benchmark_json_test.py"),
                          os.path.join(BUILD, "simbench")])
    if not build(["simbench"]):
        return 1
    args = list(argv)
    if "--trace" in args and "--compare" not in args:
        os.makedirs(TRACE_DIR, exist_ok=True)
        args += ["--trace-dir", TRACE_DIR]
    return subprocess.run([os.path.join(BUILD, "simbench")] + args).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
