#!/usr/bin/env python3
"""Self-test of the benchmark on reduced-scale versions of all three workloads.

    python3 perfbench/selftest.py

Run from the repository root. It checks that BENCHMARK.json describes what
run.py emits, and for each workload that:
  * the timed mode emits every end-to-end metric and the traced mode every
    per-layer metric, each a finite number with its unit;
  * the three correctness checks pass on the real results;
  * each check fails when fed a perturbed result (a different run seed);
  * every replay timing is finite and positive.
Exits 0 when all pass, 1 otherwise.
"""

import json
import math
import os
import sys

import run

# Small networks and short windows; everything else as in the real workloads.
SMOKE = {
    "mesh-200": {"topology_nodes": 30, "disk_radius": 90, "warmup_s": 60, "measure_s": 30},
    "dynamic-100": {"topology_nodes": 30, "disk_radius": 90, "warmup_s": 60, "measure_s": 120,
                    "walk_movers": 5, "crash_nodes": 3, "crash_first_fail_s": 70},
    "zoo-sweep": {"grid": "scheduler=gt-tsch,orchestra,alice,emsf;traffic_ppm=15",
                  "seeds": "7", "warmup_s": 30, "measure_s": 30},
}
REPLAYS = [name for name in run.TRACED_ONLY if name.endswith("_ns")]

failures = []


def expect(condition, what):
    print("%s  %s" % ("ok  " if condition else "FAIL", what), flush=True)
    if not condition:
        failures.append(what)


def emitted(line, units, what):
    """Every metric of `units` is in the result line, finite, with its unit."""
    result = json.loads(line)
    metrics = result["metrics"]
    missing = [name for name, unit in units.items()
               if name not in metrics or metrics[name]["unit"] != unit
               or not isinstance(metrics[name]["value"], (int, float))
               or not math.isfinite(metrics[name]["value"])]
    expect(set(metrics) == set(units) and not missing,
           "%s: every metric emitted with its unit%s"
           % (what, " (bad: %s)" % ", ".join(missing) if missing else ""))
    expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
           "%s: correct, %d/%d operations failed" % (what, result["failed"], result["attempted"]))


def test_workload(name):
    seed = run.DEFAULT_SEED
    workload = run.Workload(name, seed, SMOKE[name], tag="smoke")
    # The same inputs with another run seed: each check must reject it.
    perturbed_seed = ({"seeds": "8"} if workload.sweep
                      else {"seed": run.derive_seed(seed, 2) + 1})
    perturbed = run.Workload(name, seed, dict(SMOKE[name], **perturbed_seed),
                             tag="smoke-perturbed")
    expect(workload.prepare() and perturbed.prepare(), "%s: inputs generated" % name)

    timed = run.run_timed(workload, 0, record=False)
    expect(timed is not None, "%s: timed repetitions ran" % name)
    if timed is None:
        return
    metrics, attempted, failed = timed
    emitted(run.result_line(failed == 0, attempted, failed, metrics, run.END_TO_END),
            run.END_TO_END, "%s timed" % name)

    traced = run.run_traced(workload, record=False)
    expect(traced is not None, "%s: traced run ran" % name)
    if traced is None:
        return
    layers, attempted, failed = traced
    emitted(run.result_line(failed == 0, attempted, failed, layers, run.PER_LAYER),
            run.PER_LAYER, "%s traced" % name)
    bad = [r for r in REPLAYS if not (math.isfinite(layers[r]) and layers[r] > 0)]
    expect(not bad, "%s: replay timings finite%s" % (name, " (bad: %s)" % bad if bad else ""))

    # Feed each check a perturbed result.
    rep, _ = workload.rep()
    other_rep, _ = perturbed.rep()
    other_reference, _ = perturbed.reference()
    other_traced, _ = perturbed.traced()
    expect(not run.check_repeatable([rep, rep]) and run.check_repeatable([rep, other_rep]),
           "%s: repeatability check trips on another run seed" % name)
    reference, _ = workload.reference()
    expect(not run.check_reference_run([rep], reference)
           and run.check_reference_run([rep], other_reference),
           "%s: run_scenario check trips on another run seed" % name)
    traced_rep, _ = workload.traced()
    expect(not run.check_traced_run(rep, traced_rep, workload.sweep)
           and run.check_traced_run(rep, other_traced, workload.sweep),
           "%s: traced-run check trips on another run seed" % name)


def test_description():
    """BENCHMARK.json lists exactly the workloads and metrics run.py emits."""
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        described = json.load(f)
    expect([w["name"] for w in described["workloads"]] == list(run.WORKLOADS),
           "BENCHMARK.json: workloads match run.py")
    for key, units in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        expect({m["name"]: m["unit"] for m in described[key]} == units,
               "BENCHMARK.json: %s names and units match run.py" % key)


def main():
    test_description()
    if not run.build():
        print("FAIL  build")
        return 1
    for name in run.WORKLOADS:
        test_workload(name)
    print("%d check(s) failed" % len(failures) if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
