// Trace-file parsing throughput: parse_trace over a text shaped like
// perfbench's dynamic-100 trace (a 100-node random disk, 20 random-walk
// movers merged with 10 crashloop nodes over 600-1800 s, about 12k
// lines). Every ScenarioRun with trace_kind=file, and every campaign
// job and spec check that names a trace file, pays this per load.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <string>

#include "scenario/experiment.hpp"
#include "scenario/trace.hpp"

namespace {

using namespace gttsch;
using namespace gttsch::literals;

std::string dynamic100_shaped_text() {
  ScenarioConfig sc;
  sc.topology = TopologyKind::kRandomDisk;
  sc.topology_nodes = 100;
  sc.disk_radius = 150.0;
  const TopologySpec topology = sc.make_topology();
  TraceGenParams walk;
  walk.seed = 11;  // one seed for both: movers and crashers stay disjoint
  walk.movers = 20;
  walk.speed_mps = 2.5;
  walk.interval_s = 2.0;
  walk.start = 600_s;
  walk.end = 1800_s;
  TraceGenParams crash = walk;
  crash.movers = 0;
  crash.fail_count = 10;
  crash.fail_at_s = 660.0;
  Trace trace = generate_trace(TraceKind::kCrashloop, topology, crash);
  const Trace moves = generate_trace(TraceKind::kRandomWalk, topology, walk);
  trace.events.insert(trace.events.end(), moves.events.begin(), moves.events.end());
  std::stable_sort(trace.events.begin(), trace.events.end(),
                   [](const TraceEvent& a, const TraceEvent& b) { return a.at < b.at; });
  return format_trace(trace);
}

void BM_ParseTrace(benchmark::State& state) {
  const std::string text = dynamic100_shaped_text();
  const std::int64_t lines = std::count(text.begin(), text.end(), '\n');
  Trace trace;
  std::string error;
  for (auto _ : state) {
    const bool ok = parse_trace(text, &trace, &error);
    benchmark::DoNotOptimize(ok);
    benchmark::DoNotOptimize(trace.events.data());
    benchmark::ClobberMemory();
  }
  if (trace.events.size() != static_cast<std::size_t>(lines)) {
    state.SkipWithError("parse_trace rejected the generated text");
  }
  state.SetItemsProcessed(state.iterations() * lines);
  state.counters["lines"] = static_cast<double>(lines);
}
BENCHMARK(BM_ParseTrace)->Unit(benchmark::kMillisecond);

}  // namespace
