#!/usr/bin/env python3
"""A/B comparison of a parent revision against the working tree on the
benchmark of record (perfbench/).

    python3 tools/perfbench_ab.py PARENT_REV WORKLOAD SEED

Run from anywhere inside the repository. Checks PARENT_REV out into a
temporary `git worktree`, then runs 10 pairs of
`perfbench/run.py --workload WORKLOAD --seed SEED --seconds S --trace 0`,
once in the parent checkout and once in this one, alternating which side
runs first. S is BENCHMARK.json's `run_seconds`. Each side builds its own
harness from its own sources the first time.

Prints, for every end-to-end metric in BENCHMARK.json: each side's median
and quartiles, the change in the median, whether that change is larger
than the parent's quartile distance, and how many pairs the working tree
won (ties count for neither side). Then the number of runs whose stderr
said "behaviour changed" and the failed operations, per side.

Exits 1 when a run did not produce a result line, or when any run of the
working tree said "behaviour changed": a pure performance change must
never move a digest. The timing numbers themselves never fail it.

Exits 2 before the first pair when this checkout's `.bench_build/` was
configured for another tree (it was copied or moved along with the
checkout): perfbench/run.py reuses an existing CMake cache, so the
working-tree side would build and time that other tree's sources.

SIGTERM and SIGHUP (from `timeout`, a closed terminal) stop it like
Ctrl-C: the perfbench run in flight, with its build or harness, is
terminated and the temporary worktree is removed.
"""

import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PAIRS = 10


def stale_build_home():
    """The source tree this checkout's harness build was configured for,
    when that is not this checkout's perfbench/; None otherwise."""
    cache = os.path.join(ROOT, ".bench_build", "perfbench", "CMakeCache.txt")
    try:
        with open(cache) as f:
            for line in f:
                if line.startswith("CMAKE_HOME_DIRECTORY:"):
                    home = line.split("=", 1)[1].strip()
                    break
            else:
                return None
    except OSError:
        return None
    if os.path.realpath(home) == os.path.realpath(os.path.join(ROOT, "perfbench")):
        return None
    return home


def exit_on_signal(signum, frame):
    """Turn SIGTERM/SIGHUP into a normal exit, so `finally` blocks run."""
    sys.exit(128 + signum)


def run_side(checkout, command, workload, seed, seconds):
    """One perfbench invocation. Returns (result or None, behaviour_changed)."""
    cmd = command + ["--workload", workload, "--seed", str(seed),
                     "--seconds", str(seconds), "--trace", "0"]
    # Its own process group: perfbench/run.py starts the build and the
    # harness as children of its own, and stopping must reach them too.
    proc = subprocess.Popen(cmd, cwd=checkout, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, stderr = proc.communicate()
    except BaseException:
        os.killpg(proc.pid, signal.SIGTERM)
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        raise
    changed = "behaviour changed" in stderr
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stderr.write(stderr)
        return None, changed
    return result, changed


def main(argv):
    if len(argv) != 4:
        sys.stderr.write("usage: perfbench_ab.py PARENT_REV WORKLOAD SEED\n")
        return 2
    parent_rev, workload, seed = argv[1], argv[2], int(argv[3])
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    command = bench["command"]
    seconds = bench["run_seconds"]
    metrics = bench["end_to_end"]
    stale_home = stale_build_home()
    if stale_home is not None:
        sys.stderr.write("%s was configured for %s, so the working tree would build and time "
                         "that tree's sources; delete %s and run again\n" % (
                             os.path.join(ROOT, ".bench_build", "perfbench"), stale_home,
                             os.path.join(ROOT, ".bench_build")))
        return 2

    for signum in (signal.SIGTERM, signal.SIGHUP):
        signal.signal(signum, exit_on_signal)
    worktree = tempfile.mkdtemp(prefix="perfbench-ab-")
    sides = {"parent": worktree, "change": ROOT}
    results = {"parent": [], "change": []}
    changed = {"parent": 0, "change": 0}
    missing = 0
    try:
        subprocess.run(["git", "-C", ROOT, "worktree", "add", "--detach", worktree, parent_rev],
                       check=True, capture_output=True)
        for pair in range(PAIRS):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            row = {}
            for side in order:
                result, behaviour_changed = run_side(sides[side], command, workload, seed,
                                                     seconds)
                changed[side] += behaviour_changed
                row[side] = result
            if row["parent"] is None or row["change"] is None:
                missing += 1
                print("pair %d: a run produced no result line" % (pair + 1))
                continue
            for side in order:
                results[side].append(row[side])
            print("pair %d (%s first): steady_ns_per_event parent %.1f, change %.1f" % (
                pair + 1, order[0],
                row["parent"]["metrics"]["steady_ns_per_event"]["value"],
                row["change"]["metrics"]["steady_ns_per_event"]["value"]), flush=True)
    finally:
        subprocess.run(["git", "-C", ROOT, "worktree", "remove", "--force", worktree],
                       capture_output=True)
        shutil.rmtree(worktree, ignore_errors=True)

    pairs = len(results["parent"])
    print("\n%s seed %d: %d pairs of %s s runs, parent %s vs working tree" % (
        workload, seed, pairs, seconds, parent_rev))
    if pairs >= 2:
        print("%-24s %-30s %-30s %8s %6s %6s" % (
            "metric", "parent median [q1, q3]", "change median [q1, q3]", "delta",
            "> iqr", "wins"))
        for metric in metrics:
            name = metric["name"]
            lower = metric["better"] == "lower"
            parent = [r["metrics"][name]["value"] for r in results["parent"]]
            change = [r["metrics"][name]["value"] for r in results["change"]]
            p_q1, p_med, p_q3 = statistics.quantiles(parent, n=4, method="inclusive")
            c_q1, c_med, c_q3 = statistics.quantiles(change, n=4, method="inclusive")
            delta = (c_med - p_med) / p_med if p_med else 0.0
            wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
            print("%-24s %-30s %-30s %+7.1f%% %6s %3d/%d" % (
                name, "%.4g [%.4g, %.4g]" % (p_med, p_q1, p_q3),
                "%.4g [%.4g, %.4g]" % (c_med, c_q1, c_q3), 100.0 * delta,
                "yes" if abs(c_med - p_med) > p_q3 - p_q1 else "no", wins, pairs))
    for side in ("parent", "change"):
        failed = sum(r["failed"] for r in results[side])
        attempted = sum(r["attempted"] for r in results[side])
        print("%s: behaviour changed in %d runs, %d/%d operations failed" % (
            side, changed[side], failed, attempted))
    if changed["change"]:
        print("FAIL: the working tree changed behaviour in %d runs" % changed["change"])
    return 1 if missing or changed["change"] else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
