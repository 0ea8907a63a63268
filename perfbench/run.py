#!/usr/bin/env python3
"""GT-TSCH simulator benchmark.

    python3 perfbench/run.py --workload mesh-200 --seed 1 --seconds 20 --trace 0

Run from the repository root. Builds perfbench_harness from source into
.bench_build/, writes the workload's config (and trace file) from --seed,
runs timed repetitions (one process each) for about --seconds, checks the
outputs, and prints one JSON object as the last stdout line. --trace 0
reports the end-to-end metrics; --trace 1 runs one untraced repetition, one
traced run and the run_scenario reference, and reports the per-layer
metrics. See perfbench/README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
HARNESS = os.path.join(BUILD_DIR, "perfbench_harness")
REFERENCE_FILE = os.path.join(HERE, "reference.json")

DEFAULT_SEED = 1
HELD_OUT_SEED = 2  # never used while tuning the benchmark or a change
PROCESS_TIMEOUT_S = 60
MIN_REPS = 3
SINGLE_SETUP_REPS = 9
SWEEP_SETUP_REPS = 25

WORKLOADS = ("mesh-200", "dynamic-100", "zoo-sweep")

# name -> unit. Every workload reports every metric.
END_TO_END = {
    "setup_s": "s",
    "formation_ns_per_event": "ns",
    "steady_ns_per_event": "ns",
    "run_ns_per_event": "ns",
    "cpu_ns_per_event": "ns",
    "peak_rss_mib": "MiB",
}

PER_LAYER = {
    "sim.events_formation": "count",
    "sim.events_steady": "count",
    "sim.pending_end": "count",
    "sim.events_per_s": "1/s",
    "sim.steady_sim_rate": "sim-s/s",
    "sim.rearm_ns": "ns",
    "phy.tx": "count",
    "phy.deliveries": "count",
    "phy.collision_losses": "count",
    "phy.prr_losses": "count",
    "phy.delivery_ratio": "ratio",
    "phy.model_calls": "count",
    "phy.model_calls_formation": "count",
    "phy.model_s": "s",
    "phy.busy_until_ns": "ns",
    "phy.tx_resolve_ns": "ns",
    "mac.unicast_attempts": "count",
    "mac.unicast_success": "count",
    "mac.retransmissions": "count",
    "mac.unicast_drops": "count",
    "mac.eb_sent": "count",
    "mac.rx_frames": "count",
    "mac.ack_ratio": "ratio",
    "mac.cells": "count",
    "mac.next_active_ns": "ns",
    "sixp.requests": "count",
    "sixp.responses": "count",
    "sixp.timeouts": "count",
    "sixp.busy_rejections": "count",
    "sixp.success_ratio": "ratio",
    "sf.tx_cells": "count",
    "sf.rx_cells": "count",
    "sf.operational": "count",
    "net.joined": "count",
    "net.mean_hops": "hops",
    "net.parent_switches": "count",
    "net.detaches": "count",
    "app.generated": "count",
    "app.delivered": "count",
    "app.pdr_percent": "%",
    "app.avg_delay_ms": "ms",
    "app.queue_drops": "count",
    "app.mac_drops": "count",
    "app.no_route_drops": "count",
    "app.duty_cycle_percent": "%",
    "scenario.topology_s": "s",
    "scenario.build_s": "s",
    "scenario.start_s": "s",
    "scenario.trace_events": "count",
    "scenario.reboots": "count",
    "telemetry.records": "count",
    "telemetry.bytes": "bytes",
    "telemetry.write_s": "s",
    "campaign.expand_s": "s",
    "campaign.runner_s": "s",
    "campaign.report_s": "s",
    "campaign.journal_bytes": "bytes",
    "campaign.job_wall_p50_s": "s",
    "campaign.job_wall_p75_s": "s",
    "campaign.worker_busy_frac": "ratio",
    "campaign.jobs_per_min": "jobs/min",
    "trace.overhead_frac": "ratio",
    "trace.sampler_events": "count",
    "trace.host_slowdown": "ratio",
}


def derive_seed(seed, stream):
    """splitmix64 of (seed, stream): every input stream follows from --seed."""
    mask = (1 << 64) - 1
    z = (seed * 0x9E3779B97F4A7C15 + (stream + 1) * 0xD1B54A32D192ED03) & mask
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    return (z ^ (z >> 31)) % 1000000007


def workload_config(workload, seed, work_dir):
    """Config lines for the harness plus the trace-generator lines (if any)."""
    if workload == "mesh-200":
        return {
            "topology": "random-disk",
            "topology_nodes": 200,
            "disk_radius": 220,
            "traffic_ppm": 15,
            "gt_slotframe_length": 32,
            "warmup_s": 600,
            "measure_s": 600,
            "topology_seed": derive_seed(seed, 1),
            "seed": derive_seed(seed, 2),
            "setup_reps": SINGLE_SETUP_REPS,
        }
    if workload == "dynamic-100":
        return {
            "topology": "random-disk",
            "topology_nodes": 100,
            "disk_radius": 150,
            "traffic_ppm": 30,
            "warmup_s": 600,
            "measure_s": 1200,
            "topology_seed": derive_seed(seed, 1),
            "seed": derive_seed(seed, 2),
            "trace_kind": "file",
            "trace": os.path.relpath(os.path.join(work_dir, "dynamic.trace"), ROOT),
            "setup_reps": SINGLE_SETUP_REPS,
            # Trace generators (gen-trace): 20 random-walk movers and 10
            # crashloop nodes, first failure 60 s after formation.
            "walk_seed": derive_seed(seed, 3),
            "walk_movers": 20,
            "walk_speed_mps": 2.5,
            "walk_interval_s": 2,
            "crash_seed": derive_seed(seed, 4),
            "crash_nodes": 10,
            "crash_first_fail_s": 660,
            "crash_down_s": 30,
            "crash_cycle_s": 120,
            "crash_interval_s": 2,
        }
    if workload == "zoo-sweep":
        return {
            "grid": "scheduler=gt-tsch,orchestra,alice,emsf;traffic_ppm=15,60,120",
            "seeds": ",".join(str(derive_seed(seed, 10 + i)) for i in range(4)),
            "jobs": 2,
            "setup_reps": SWEEP_SETUP_REPS,
        }
    raise ValueError(workload)


def log(message):
    print("perfbench: " + message, file=sys.stderr, flush=True)


def clean_env():
    env = dict(os.environ)
    for key in ("GTTSCH_PARALLEL", "GTTSCH_FORCE_SEQUENTIAL", "GTTSCH_JOBS", "GTTSCH_LOG"):
        env.pop(key, None)
    return env


def build():
    """Configures and builds the harness; returns False when that fails."""
    if not os.path.isdir(os.path.join(ROOT, "src")):
        log("no simulator sources next to perfbench/ (expected ../src)")
        return False
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    with open(log_path, "w") as out:
        steps = []
        if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD_DIR, "-j", "4"])
        for step in steps:
            if subprocess.run(step, stdout=out, stderr=subprocess.STDOUT, cwd=ROOT).returncode:
                log("build failed, see " + os.path.relpath(log_path, ROOT))
                return False
    return os.path.exists(HARNESS)


def harness(*args):
    """Runs one harness process; returns (parsed last stdout line, wall s) or (None, wall)."""
    start = time.monotonic()
    try:
        proc = subprocess.run([HARNESS, *args], cwd=ROOT, env=clean_env(), capture_output=True,
                              text=True, timeout=PROCESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("harness %s timed out" % " ".join(args))
        return None, time.monotonic() - start
    wall = time.monotonic() - start
    if proc.returncode != 0:
        log("harness %s exited %d: %s" % (" ".join(args), proc.returncode, proc.stderr.strip()))
        return None, wall
    lines = proc.stdout.strip().splitlines()
    return (json.loads(lines[-1]) if lines else None), wall


def write_config(path, config):
    with open(path, "w") as out:
        for key, value in config.items():
            out.write("%s=%s\n" % (key, value))


class Workload:
    """Inputs of one (workload, seed) and the harness calls that run them.
    `overrides` replaces config lines (the self-test shrinks the workloads
    and perturbs run seeds with it); `tag` keeps such variants' files apart."""

    def __init__(self, name, seed, overrides=None, tag=""):
        self.name = name
        self.seed = seed
        self.tag = tag
        self.sweep = name == "zoo-sweep"
        self.work_dir = os.path.join(ROOT, ".bench_build", "work",
                                     "%s-%d%s" % (name, seed, "-" + tag if tag else ""))
        os.makedirs(self.work_dir, exist_ok=True)
        self.config = workload_config(name, seed, self.work_dir)
        self.config.update(overrides or {})
        self.config_path = os.path.join(self.work_dir, "workload.cfg")
        write_config(self.config_path, self.config)

    def prepare(self):
        """Writes the trace file dynamic-100 plays (its config names it)."""
        if self.name != "dynamic-100":
            return True
        gen_config = {k: v for k, v in self.config.items() if k not in ("trace", "trace_kind")}
        gen_path = os.path.join(self.work_dir, "gen-trace.cfg")
        write_config(gen_path, gen_config)
        out, _ = harness("gen-trace", gen_path, os.path.join(self.work_dir, "dynamic.trace"))
        return out is not None

    def sweep_run(self, mode):
        return harness("sweep", self.config_path, os.path.join(self.work_dir, mode), mode)

    def rep(self):
        return self.sweep_run("timed") if self.sweep else harness("run", self.config_path)

    def reference(self):
        if self.sweep:
            return self.sweep_run("reference")
        return harness("reference", self.config_path)

    def traced(self):
        if self.sweep:
            return self.sweep_run("traced")
        return harness("traced", self.config_path, os.path.join(self.work_dir, "traced.jsonl"))


# --- checks -----------------------------------------------------------------


def check_reference_run(reps, reference):
    """Gate 1: the hand-assembled run equals run_scenario on the same config."""
    if reference is None:
        return ["reference run failed"]
    return ["repetition %d: result %s differs from run_scenario's %s"
            % (i, rep["result_digest"], reference["result_digest"])
            for i, rep in enumerate(reps) if rep["result_digest"] != reference["result_digest"]]


def check_traced_run(untraced, traced, sweep):
    """Gate 2: the traced run changes no result, MAC or 6P counter, and no
    event count beyond the telemetry sampler's own (zoo-sweep jobs carry
    the sampler in both runs)."""
    errors = []
    if traced["result_digest"] != untraced["result_digest"]:
        errors.append("traced result %s differs from untraced %s"
                      % (traced["result_digest"], untraced["result_digest"]))
    counts_u, counts_t = untraced["counts"], traced["counts"]
    errors += ["traced %s %s differs from untraced %s" % (k, counts_t.get(k), counts_u[k])
               for k in counts_u
               if k.startswith(("mac.", "sixp.")) and counts_t.get(k) != counts_u[k]]
    events = lambda c: c["sim.events_formation"] + c["sim.events_steady"]
    extra = events(counts_t) - events(counts_u)
    sampler = 0 if sweep else traced["traced"]["trace.sampler_events"]
    if extra != sampler:
        errors.append("traced run processed %d extra events, the sampler %d" % (extra, sampler))
    return errors


def check_repeatable(reps):
    """Gate 3: every repetition of a workload and seed behaves identically."""
    first = reps[0]["behaviour_digest"]
    return ["repetition %d: behaviour digest %s differs from %s"
            % (i, rep["behaviour_digest"], first)
            for i, rep in enumerate(reps) if rep["behaviour_digest"] != first]


def compare_reference(workload, rep, record):
    """Behaviour digest against the stored reference for this workload and
    seed. A mismatch is reported, never failed: protocol fixes change it.
    Variants (self-test inputs) have no reference."""
    if workload.tag:
        return
    try:
        with open(REFERENCE_FILE) as f:
            references = json.load(f)
    except (OSError, ValueError):
        references = {}
    key = "%s/%d" % (workload.name, workload.seed)
    current = {"digest": rep["behaviour_digest"], "counts": rep["counts"]}
    if record:
        references[key] = current
        with open(REFERENCE_FILE, "w") as f:
            json.dump(references, f, indent=1, sort_keys=True)
            f.write("\n")
        log("recorded reference digest for " + key)
        return
    stored = references.get(key)
    if stored is None:
        log("no reference digest for %s" % key)
    elif stored["digest"] != current["digest"]:
        diffs = ["%s %s -> %s" % (name, stored["counts"].get(name), value)
                 for name, value in current["counts"].items()
                 if stored["counts"].get(name) != value]
        log("behaviour changed for %s: digest %s -> %s; %s" % (
            key, stored["digest"], current["digest"], "; ".join(diffs) or "results differ"))


# --- metrics ----------------------------------------------------------------


def ratio(a, b):
    return a / b if b else 0.0


def normalised_chunks(reps, phase):
    """A phase's wall time at nominal host speed: each slice's wall divided
    by the host slowdown probed next to it, the median over repetitions
    taken per slice (every repetition runs the same events slice by slice),
    and the medians summed."""
    slices = [[wall / slowdown for wall, slowdown in
               zip(rep[phase + "_chunks"], rep[phase + "_slowdowns"])] for rep in reps]
    return sum(statistics.median(column) for column in zip(*slices))


def end_to_end(reps, workload):
    """The end-to-end metrics over a workload's timed repetitions. Timings
    are at nominal host speed (divided by the probed host slowdown) and take
    the median over repetitions, as does memory."""
    def median(fn):
        return statistics.median(fn(rep) for rep in reps)

    def at_nominal(rep, seconds):
        return seconds / rep["timings"]["trace.host_slowdown"]

    if workload.sweep:
        def events(rep):
            return rep["counts"]["sim.events_formation"] + rep["counts"]["sim.events_steady"]

        def slowdown(rep):
            return rep["layers"]["trace.host_slowdown"]
        return {
            "setup_s": median(lambda r: r["timings"]["setup_s"] / slowdown(r)),
            "formation_ns_per_event": median(lambda r: 1e9 * r["layers"]["formation_norm_s"]
                                             / r["counts"]["sim.events_formation"]),
            "steady_ns_per_event": median(lambda r: 1e9 * r["layers"]["steady_norm_s"]
                                          / r["counts"]["sim.events_steady"]),
            "run_ns_per_event": median(lambda r: 1e9 * r["timings"]["campaign.workers"] * (
                r["timings"]["campaign.runner_s"] + r["timings"]["campaign.report_s"])
                / slowdown(r) / events(r)),
            "cpu_ns_per_event": median(lambda r: 1e9 * r["cpu_s"] / slowdown(r) / events(r)),
            "peak_rss_mib": median(lambda r: r["peak_rss_mib"]),
        }
    counts = reps[0]["counts"]  # identical across repetitions (checked)
    events_formation = counts["sim.events_formation"]
    events_steady = counts["sim.events_steady"]
    events = events_formation + events_steady
    formation = normalised_chunks(reps, "formation")
    steady = normalised_chunks(reps, "steady")
    return {
        "setup_s": median(lambda r: at_nominal(r, r["timings"]["setup_s"])),
        "formation_ns_per_event": 1e9 * formation / events_formation,
        "steady_ns_per_event": 1e9 * steady / events_steady,
        "run_ns_per_event": 1e9 * (formation + steady) / events,
        "cpu_ns_per_event": median(lambda r: 1e9 * at_nominal(r, r["cpu_s"]) / events),
        "peak_rss_mib": median(lambda r: r["peak_rss_mib"]),
    }


# Per-layer values only the traced run measures.
TRACED_ONLY = ("phy.model_calls", "phy.model_calls_formation", "phy.model_s",
               "net.parent_switches", "net.detaches", "sim.rearm_ns", "phy.busy_until_ns",
               "phy.tx_resolve_ns", "mac.next_active_ns")


def per_layer(untraced, traced, workload):
    """Every per-layer metric from one untraced and one traced repetition.
    Metrics of a layer a workload does not run (campaign.* on single runs)
    read 0."""
    values = {name: 0.0 for name in PER_LAYER}
    if workload.sweep:
        layers = untraced["layers"]
        values.update(layers)
        values.update({k: v for k, v in untraced["timings"].items() if k in PER_LAYER})
        values["sim.events_per_s"] = ratio(layers["sim.events_steady"], layers["steady_wall_s"])
        values["sim.steady_sim_rate"] = ratio(layers["steady_sim_s"], layers["steady_wall_s"])
        values.update({k: traced["layers"][k] for k in TRACED_ONLY})
        overhead = ratio(traced["timings"]["campaign.runner_s"],
                         untraced["timings"]["campaign.runner_s"]) - 1
    else:
        values.update(untraced["counts"])
        values.update({k: v for k, v in untraced["timings"].items() if k in PER_LAYER})
        values.update(traced["traced"])
        timings = untraced["timings"]
        values["sim.steady_sim_rate"] = ratio(timings["steady_sim_s"], timings["steady_wall_s"])
        wall = lambda r: r["timings"]["formation_wall_s"] + r["timings"]["steady_wall_s"]
        overhead = ratio(wall(traced), wall(untraced)) - 1
    values["trace.overhead_frac"] = overhead
    values["phy.delivery_ratio"] = ratio(
        values["phy.deliveries"],
        values["phy.deliveries"] + values["phy.collision_losses"] + values["phy.prr_losses"])
    values["mac.ack_ratio"] = ratio(values["mac.unicast_success"], values["mac.unicast_attempts"])
    values["sixp.success_ratio"] = ratio(values["sixp.responses_received"],
                                         values["sixp.requests"])
    return {name: values[name] for name in PER_LAYER}


def result_line(correct, attempted, failed, metrics, units):
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    })


def run_timed(workload, seconds, record):
    """Timed repetitions (at least MIN_REPS, more while --seconds allows),
    then the checks. Returns (metrics, attempted, failed) or None."""
    reps, walls, failed_reps = [], [], 0
    start = time.monotonic()
    while failed_reps < MIN_REPS:
        rep, wall = workload.rep()
        if rep is None:
            failed_reps += 1
        else:
            reps.append(rep)
            walls.append(wall)
        elapsed = time.monotonic() - start
        if (len(reps) + failed_reps >= MIN_REPS
                and elapsed + statistics.median(walls or [wall]) > seconds):
            break
    if not reps:
        return None
    reference, _ = workload.reference()
    errors = check_repeatable(reps) + check_reference_run(reps, reference)
    for error in errors:
        log("check failed: " + error)
    compare_reference(workload, reps[0], record)

    # An operation is one simulated run; in zoo-sweep, one job.
    ops = int(reps[0]["jobs"]) if workload.sweep else 1
    attempted = (len(reps) + failed_reps + 1) * ops
    failed = (failed_reps + (reference is None) + (len(reps) if errors else 0)) * ops
    if workload.sweep and not errors:
        failed += sum(int(rep["jobs_failed"]) for rep in reps)
    log("%s seed %d: %d repetitions, %d/%d operations failed"
        % (workload.name, workload.seed, len(reps), failed, attempted))
    return end_to_end(reps, workload), attempted, failed


def run_traced(workload, record):
    """One untraced and one traced repetition plus the checks. Returns
    (per-layer metrics, attempted, failed) or None."""
    untraced, _ = workload.rep()
    traced, _ = workload.traced()
    reference, _ = workload.reference()
    if untraced is None or traced is None:
        return None
    errors = (check_traced_run(untraced, traced, workload.sweep)
              + check_reference_run([untraced, traced], reference))
    for error in errors:
        log("check failed: " + error)
    compare_reference(workload, untraced, record)
    ops = int(untraced["jobs"]) if workload.sweep else 1
    attempted = 3 * ops
    return per_layer(untraced, traced, workload), attempted, attempted if errors else 0


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="workload seed (default %d; %d is the held-out seed)"
                        % (DEFAULT_SEED, HELD_OUT_SEED))
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="store this run's behaviour digest as the reference")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    if not build():
        return 3
    workload = Workload(args.workload, args.seed)
    if not workload.prepare():
        log("could not generate the workload's inputs")
        return 3
    if args.trace:
        outcome = run_traced(workload, args.record)
        units = PER_LAYER
    else:
        outcome = run_timed(workload, args.seconds, args.record)
        units = END_TO_END
    if outcome is None:
        log("no repetition completed")
        return 3
    metrics, attempted, failed = outcome
    print(result_line(failed == 0, attempted, failed, metrics, units))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
