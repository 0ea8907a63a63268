#!/usr/bin/env python3
"""Pinned-behaviour gate over the benchmark of record (perfbench/).

    python3 tools/perfbench_gate.py

Run from the repository root. Runs perfbench/selftest.py, then
`perfbench/run.py --workload W --seed S --seconds 1 --trace 0` for every
workload at seeds 1 and 2. Exits 1 when the self-test fails, a run exits
nonzero, a run's stderr says "behaviour changed" (its digest differs from
perfbench/reference.json) or "no reference digest" (nothing to compare
against), or a run's result line reports failed operations. Timings are
printed for information only; they never fail the gate, because shared CI
runners are too noisy to judge them.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("mesh-200", "dynamic-100", "zoo-sweep")
SEEDS = (1, 2)


def run_one(workload, seed):
    """Returns a list of problems with one perfbench invocation."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    sys.stderr.write(proc.stderr)
    problems = []
    if proc.returncode != 0:
        problems.append("exit code %d" % proc.returncode)
    if "behaviour changed" in proc.stderr:
        problems.append("behaviour changed against perfbench/reference.json")
    if "no reference digest" in proc.stderr:
        problems.append("no reference digest in perfbench/reference.json")
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        problems.append("no JSON result line on stdout")
        return problems
    if result.get("failed", 1) != 0 or not result.get("correct", False):
        problems.append("failed %s of %s operations" %
                        (result.get("failed"), result.get("attempted")))
    steady = result.get("metrics", {}).get("steady_ns_per_event", {}).get("value")
    print("%-12s seed %s: failed %s/%s, steady_ns_per_event %s" %
          (workload, seed, result.get("failed"), result.get("attempted"),
           "%.1f" % steady if steady is not None else "?"))
    return problems


def main():
    failures = []
    selftest = subprocess.run([sys.executable, os.path.join("perfbench", "selftest.py")],
                              cwd=ROOT)
    if selftest.returncode != 0:
        failures.append("perfbench/selftest.py exit code %d" % selftest.returncode)
    for workload in WORKLOADS:
        for seed in SEEDS:
            for problem in run_one(workload, seed):
                failures.append("%s seed %s: %s" % (workload, seed, problem))
    for failure in failures:
        print("perfbench gate: " + failure, file=sys.stderr)
    if failures:
        return 1
    print("perfbench gate: behaviour pinned, 0 failed operations")
    return 0


if __name__ == "__main__":
    sys.exit(main())
