// perfbench_harness: the compiled half of the benchmark. run.py writes a
// workload config, then calls one subcommand per process:
//
//   gen-trace CONFIG OUT     write the dynamic-100 trace file: random-walk
//                            movers merged with crashloop nodes
//   run CONFIG               one timed single run (untraced)
//   traced CONFIG JSONL      the traced single run, with replays
//   reference CONFIG         run_scenario on the same config (gate input)
//   sweep CONFIG DIR MODE    one zoo-sweep repetition; MODE is timed,
//                            traced or reference (jobs via run_scenario)
//
// Each prints one JSON object on its last stdout line; errors exit 2.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "common.hpp"
#include "run.hpp"
#include "scenario/trace.hpp"
#include "sweep.hpp"

using namespace gttsch;
using namespace perfbench;

namespace {

TraceGenParams gen_params(const BenchConfig& config, const char* prefix) {
  const std::string p = prefix;
  TraceGenParams params;
  params.seed = static_cast<std::uint64_t>(config.number(p + "seed"));
  params.interval_s = config.number(p + "interval_s");
  params.start = config.scenario.warmup;
  params.end = config.scenario.warmup + config.scenario.measure;
  return params;
}

/// Random-walk movers and crashloop nodes in one time-ordered stream. At
/// equal times liveness events come first, and moves of a node that is
/// down are dropped (the trace grammar rejects events on dead nodes).
int gen_trace(const BenchConfig& config, const std::string& out) {
  const TopologySpec topology = config.scenario.make_topology();
  TraceGenParams walk = gen_params(config, "walk_");
  walk.movers = static_cast<int>(config.number("walk_movers"));
  walk.speed_mps = config.number("walk_speed_mps");
  TraceGenParams crash = gen_params(config, "crash_");
  crash.fail_count = static_cast<int>(config.number("crash_nodes"));
  crash.fail_at_s = config.number("crash_first_fail_s");
  crash.down_s = config.number("crash_down_s");
  crash.cycle_s = config.number("crash_cycle_s");

  Trace merged = generate_trace(TraceKind::kCrashloop, topology, crash);
  const Trace moves = generate_trace(TraceKind::kRandomWalk, topology, walk);
  merged.events.insert(merged.events.end(), moves.events.begin(), moves.events.end());
  std::stable_sort(merged.events.begin(), merged.events.end(),
                   [](const TraceEvent& a, const TraceEvent& b) { return a.at < b.at; });
  std::vector<bool> down(topology.size() + 1, false);
  Trace trace;
  for (const TraceEvent& e : merged.events) {
    if (e.node >= down.size()) die("trace event for an unknown node");
    if (e.kind == TraceEventKind::kFail) down[e.node] = true;
    if (e.kind == TraceEventKind::kRevive) down[e.node] = false;
    if (e.kind == TraceEventKind::kMove && down[e.node]) continue;
    trace.events.push_back(e);
  }
  std::string error;
  if (!save_trace(out, trace, &error)) die(error);
  std::printf("{\"trace_events\": %zu}\n", trace.events.size());
  return 0;
}

std::string array_json(const std::vector<double>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%s%.17g", i > 0 ? ", " : "", values[i]);
    out += buf;
  }
  return out + "]";
}

std::string report_json(const RunReport& report) {
  const std::string result = result_text(report.result);
  JsonObject out;
  out.add("result_digest", digest(result));
  out.add("behaviour_digest", digest(result + values_text(report.counts)));
  out.add("cpu_s", report.usage.cpu_s);
  out.add("peak_rss_mib", report.usage.peak_rss_mib);
  out.add_raw("timings", values_json(report.timings));
  out.add_raw("setup_samples", array_json(report.setup_samples));
  out.add_raw("formation_chunks", array_json(report.formation.walls));
  out.add_raw("formation_slowdowns", array_json(report.formation.slowdowns));
  out.add_raw("steady_chunks", array_json(report.steady.walls));
  out.add_raw("steady_slowdowns", array_json(report.steady.slowdowns));
  out.add_raw("counts", values_json(report.counts));
  out.add_raw("traced", values_json(report.traced));
  return out.render();
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_harness gen-trace CONFIG OUT | run CONFIG |\n"
               "       traced CONFIG JSONL | reference CONFIG |\n"
               "       sweep CONFIG DIR timed|traced|reference\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return usage();
  // Every run steps sequentially: island lanes stay off whatever the
  // caller's environment says.
  unsetenv("GTTSCH_PARALLEL");
  unsetenv("GTTSCH_FORCE_SEQUENTIAL");
  const std::string command = argv[1];
  const BenchConfig config = load_config(argv[2]);

  if (command == "gen-trace" && argc == 4) return gen_trace(config, argv[3]);
  if (command == "run" && argc == 3) {
    RunOptions options;
    options.setup_reps = static_cast<int>(config.number("setup_reps"));
    std::printf("%s\n", report_json(run_assembled(config.scenario, options)).c_str());
    return 0;
  }
  if (command == "traced" && argc == 4) {
    RunOptions options;
    options.traced = true;
    options.replays = true;
    options.telemetry_path = argv[3];
    std::printf("%s\n", report_json(run_assembled(config.scenario, options)).c_str());
    return 0;
  }
  if (command == "reference" && argc == 3) {
    const ExperimentResult result = run_scenario(config.scenario);
    std::printf("{\"result_digest\": \"%s\"}\n", digest(result_text(result)).c_str());
    return 0;
  }
  if (command == "sweep" && argc == 5) {
    const std::string mode = argv[4];
    SweepMode sweep_mode = SweepMode::kTimed;
    if (mode == "traced") {
      sweep_mode = SweepMode::kTraced;
    } else if (mode == "reference") {
      sweep_mode = SweepMode::kReference;
    } else if (mode != "timed") {
      return usage();
    }
    std::printf("%s\n", run_sweep(config, argv[3], sweep_mode).c_str());
    return 0;
  }
  return usage();
}
