#!/usr/bin/env python3
"""Checks that BENCHMARK.json names exactly the workloads and metrics the
benchmark binary reports, with the same units and directions.

Usage: benchmark_json_test.py <path to the simbench binary>
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main(binary):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    described = json.loads(subprocess.run([binary, "--describe"], check=True,
                                          capture_output=True, text=True).stdout)
    errors = []
    if [w["name"] for w in bench["workloads"]] != described["workloads"]:
        errors.append("workloads differ: %s" % described["workloads"])
    for key in ("end_to_end", "per_layer"):
        listed = [{k: m[k] for k in ("name", "unit", "better")} for m in bench[key]]
        if listed != described[key]:
            errors.append("%s metrics differ from the binary's table" % key)
    for metric in bench["end_to_end"]:
        if not 0 < metric.get("bound", 0) <= 0.25:
            errors.append("%s: bound must be in (0, 0.25]" % metric["name"])
    setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["bound"] != max(m["bound"] for m in bench["end_to_end"]):
        errors.append("setup_s must carry the largest bound")
    for error in errors:
        print("benchmark_json_test: " + error, file=sys.stderr)
    print("benchmark_json_test: %s" % ("FAIL" if errors else "pass"), file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
