// Microbenchmarks for the simulation substrate: event queue throughput,
// OneShotTimer re-arm churn on slot-aligned and drifted instants, medium
// delivery resolution, and end-to-end simulated-seconds-per-wall-
// second for formed GT-TSCH networks.
//
// Beyond the Google-Benchmark microbenches, this harness owns the repo's
// perf-trajectory baseline: a *multi-point* sweep over scenario classes —
//   sparse-7    7 nodes, slotframe 397 at 6TiSCH-minimal occupancy
//               (idle-slot-dominated; also run in GTTSCH_FORCE_PER_SLOT-
//               equivalent reference mode for the speedup ratio)
//   dense-50    50-node grid, denser schedule, heavier traffic
//   mobile-100  100-node random-disk mesh with a population of random-
//               walk movers (exercises the incremental medium cache)
//   nodes-200   200-node random-disk mesh over a full simulated hour
//   churn-100   100-node random-disk mesh under crashloop fault
//               injection (staggered fail -> revive cycles)
// — written to BENCH_simcore.json so every later PR can be compared per
// scenario class (tools/perf_diff.py prints the delta table; CI's
// perf-smoke job runs it against the committed baseline).
//
// Flags (consumed before Google Benchmark sees argv):
//   --simcore-json[=PATH]  write the end-to-end baseline (default path
//                          BENCH_simcore.json) after the microbenches
//   --simcore-only         skip the microbenches (CI perf-smoke mode)
#include <benchmark/benchmark.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "phy/dynamic_link.hpp"
#include "phy/medium.hpp"
#include "scenario/experiment.hpp"
#include "scenario/network.hpp"
#include "scenario/trace.hpp"
#include "sim/simulator.hpp"
#include "sim/timer.hpp"
#include "stats/telemetry.hpp"
#include "util/rng.hpp"

namespace {

using namespace gttsch;
using namespace gttsch::literals;

void BM_EventQueueScheduleRun(benchmark::State& state) {
  const int batch = static_cast<int>(state.range(0));
  for (auto _ : state) {
    Simulator sim(1);
    for (int i = 0; i < batch; ++i) sim.after((i * 7919) % 100000, [] {});
    sim.run_all();
    benchmark::DoNotOptimize(sim.events_processed());
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_EventQueueScheduleRun)->Range(1 << 8, 1 << 14);

/// OneShotTimer churn over a steady population of `pending` timers, one
/// per node and keyed by node id like the MAC slot timer. Each timer
/// re-arms itself when it fires, 1-16 slots ahead. Every iteration also
/// re-arms one random timer early, which kills its pending expiry, and
/// then advances the clock by an eighth of a slot. Instants are either
/// slot-aligned (all timers on the 10 ms grid, so expiries share
/// instants) or drifted (a per-timer offset inside the slot, as with
/// NodeConfig::max_drift_ppm, so almost every instant is distinct).
void BM_EventCoreRearm(benchmark::State& state) {
  const int pending = static_cast<int>(state.range(0));
  const bool drifted = state.range(1) != 0;
  constexpr TimeUs kSlot = 10'000;
  Simulator sim(1);
  Rng rng(7);
  std::vector<std::unique_ptr<OneShotTimer>> timers;
  std::vector<TimeUs> offset;
  for (int i = 0; i < pending; ++i) {
    timers.push_back(std::make_unique<OneShotTimer>(sim, static_cast<std::uint32_t>(i)));
    offset.push_back(drifted ? 1 + (static_cast<TimeUs>(i) * 7919) % (kSlot - 1) : 0);
  }
  std::function<void(int)> arm = [&](int i) {
    const std::size_t n = static_cast<std::size_t>(i);
    const TimeUs at = sim.now() / kSlot * kSlot +
                      kSlot * static_cast<TimeUs>(1 + rng.uniform(16)) + offset[n];
    timers[n]->start(at - sim.now(), [&arm, i] { arm(i); });
  };
  for (int i = 0; i < pending; ++i) arm(i);
  const std::uint64_t events_before = sim.events_processed();
  for (auto _ : state) {
    arm(static_cast<int>(rng.uniform(static_cast<std::uint64_t>(pending))));
    sim.run_until(sim.now() + kSlot / 8);
    benchmark::DoNotOptimize(sim.events_processed());
  }
  // One item per re-arm: the random one of each iteration plus the one
  // each fired timer makes.
  state.SetItemsProcessed(state.iterations() +
                          static_cast<std::int64_t>(sim.events_processed() - events_before));
}
BENCHMARK(BM_EventCoreRearm)
    ->ArgNames({"pending", "drifted"})
    ->Args({1000, 0})
    ->Args({1000, 1})
    ->Args({10000, 0})
    ->Args({10000, 1});

void BM_MediumBroadcastResolution(benchmark::State& state) {
  const int receivers = static_cast<int>(state.range(0));
  Simulator sim(3);
  Medium medium(sim, std::make_unique<UnitDiskModel>(100.0), Rng(3));
  std::vector<std::unique_ptr<Radio>> radios;
  radios.push_back(std::make_unique<Radio>(sim, medium, 0, Position{0, 0}));
  for (int i = 1; i <= receivers; ++i) {
    radios.push_back(std::make_unique<Radio>(sim, medium, static_cast<NodeId>(i),
                                             Position{static_cast<double>(i % 10), 1.0}));
    radios.back()->on_rx = [](FramePtr) {};
  }
  for (auto _ : state) {
    for (int i = 1; i <= receivers; ++i) radios[static_cast<std::size_t>(i)]->listen(17);
    radios[0]->transmit(make_data_frame(0, kBroadcastId, DataPayload{}), 17);
    sim.run_until(sim.now() + 10_ms);
  }
  state.SetItemsProcessed(state.iterations() * receivers);
}
BENCHMARK(BM_MediumBroadcastResolution)->Arg(4)->Arg(16)->Arg(64);

void BM_MediumSingleMoveRefresh(benchmark::State& state) {
  // Cost of one Radio::set_position + cache refresh in a spread-out
  // field: O(degree) with the grid index, not O(n^2).
  const int nodes = static_cast<int>(state.range(0));
  Simulator sim(5);
  Medium medium(sim, std::make_unique<UnitDiskModel>(40.0, 1.0, 1.6), Rng(5));
  std::vector<std::unique_ptr<Radio>> radios;
  Rng place(7);
  const double side = 30.0 * std::sqrt(static_cast<double>(nodes));
  for (int i = 0; i < nodes; ++i) {
    radios.push_back(std::make_unique<Radio>(
        sim, medium, static_cast<NodeId>(i),
        Position{place.uniform_double(0, side), place.uniform_double(0, side)}));
    radios.back()->on_rx = [](FramePtr) {};
  }
  // Build the cache once, then move one node back and forth; each
  // busy-path touch (a transmission) refreshes the single dirty row.
  double dx = 1.0;
  for (auto _ : state) {
    radios[0]->set_position(Position{radios[0]->position().x + dx, 5.0});
    dx = -dx;
    radios[1]->listen(17);
    radios[0]->transmit(make_data_frame(0, kBroadcastId, DataPayload{}), 17);
    sim.run_until(sim.now() + 10_ms);
    radios[1]->turn_off();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MediumSingleMoveRefresh)->Arg(50)->Arg(200);

/// Carrier sense as TSCH rx guards poll it: every eighth radio transmits on
/// one of the 16 channels, and every other radio polls busy_until on each
/// channel at one instant. One item per poll.
void BM_CarrierSense(benchmark::State& state) {
  constexpr int kChannels = 16;
  constexpr PhysChannel kFirstChannel = 11;
  const int nodes = static_cast<int>(state.range(0));
  Simulator sim(5);
  Medium medium(sim, std::make_unique<UnitDiskModel>(40.0, 1.0, 1.6), Rng(5));
  std::vector<std::unique_ptr<Radio>> radios;
  Rng place(7);
  const double side = 30.0 * std::sqrt(static_cast<double>(nodes));
  for (int i = 0; i < nodes; ++i) {
    radios.push_back(std::make_unique<Radio>(
        sim, medium, static_cast<NodeId>(i),
        Position{place.uniform_double(0, side), place.uniform_double(0, side)}));
  }
  std::vector<NodeId> listeners;
  for (int i = 0; i < nodes; ++i) {
    const auto id = static_cast<NodeId>(i);
    if (i % 8 != 0) {
      listeners.push_back(id);
      continue;
    }
    const auto channel = static_cast<PhysChannel>(kFirstChannel + (i / 8) % kChannels);
    radios[id]->transmit(make_data_frame(id, kBroadcastId, DataPayload{}), channel);
  }
  // The frames stay in flight: the clock never advances inside the loop.
  for (auto _ : state) {
    TimeUs acc = 0;
    for (int c = 0; c < kChannels; ++c) {
      const auto channel = static_cast<PhysChannel>(kFirstChannel + c);
      for (const NodeId id : listeners) acc += medium.busy_until(id, channel);
    }
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() * kChannels *
                          static_cast<std::int64_t>(listeners.size()));
}
BENCHMARK(BM_CarrierSense)->Arg(50)->Arg(200);

// ---------------------------------------------------------------------------
// The end-to-end multi-point baseline.
// ---------------------------------------------------------------------------

/// One scenario class of the perf baseline. Mobility rides on the shared
/// trace generator (config.trace_*), not bench-local walkers.
struct ScenarioPoint {
  const char* name;
  ScenarioConfig config;
  std::uint16_t broadcast_slots = 0;  ///< override; 0 = layout default
  TimeUs formation = 180_s;
  TimeUs measure = 600_s;
  bool with_per_slot = false;   ///< also time the per-slot reference
  bool with_telemetry = false;  ///< attach a Telemetry recorder to the run
};

ScenarioPoint sparse7_point() {
  ScenarioPoint p;
  p.name = "sparse-7";
  p.config.scheduler = "gt-tsch";
  p.config.dodag_count = 1;
  p.config.nodes_per_dodag = 7;
  p.config.traffic_ppm = 30;
  p.config.gt_slotframe_length = 397;
  // 6TiSCH-minimal-style occupancy: 2 broadcast slots instead of the
  // default m/8 = 49, leaving ~98% of the 397 slots idle. The scant
  // beacons make formation slow — give it time before measuring.
  p.broadcast_slots = 2;
  p.formation = 600_s;
  p.measure = 3600_s;
  p.with_per_slot = true;
  return p;
}

// sparse-7 again, but with the full telemetry recorder attached (1 s gauge
// sampling, 4 probe senders). Comparing against sparse-7's fast_path numbers
// puts a price on observability; perf_diff tracks it like any other point.
ScenarioPoint telemetry_overhead_point() {
  ScenarioPoint p = sparse7_point();
  p.name = "telemetry-overhead";
  p.with_per_slot = false;
  p.with_telemetry = true;
  return p;
}

// The larger points run the default slotframe (length 32): GT-TSCH's
// channel-family bootstrap needs the denser beacon/shared-cell supply to
// actually form at these scales, and a formed network is what loads the
// medium, queues and schedule machinery the points are meant to stress.

ScenarioPoint dense50_point() {
  ScenarioPoint p;
  p.name = "dense-50";
  p.config.scheduler = "gt-tsch";
  p.config.topology = TopologyKind::kGrid;
  p.config.topology_nodes = 50;
  p.config.traffic_ppm = 60;
  p.formation = 600_s;
  p.measure = 600_s;
  return p;
}

ScenarioPoint mobile100_point() {
  ScenarioPoint p;
  p.name = "mobile-100";
  p.config.scheduler = "gt-tsch";
  p.config.topology = TopologyKind::kRandomDisk;
  p.config.topology_nodes = 100;
  p.config.disk_radius = 150.0;
  p.config.traffic_ppm = 30;
  // 20 random-walk movers from the shared trace generator (~5 m per 2 s
  // tick, the pace of the old bench-local walker).
  p.config.trace_kind = TraceKind::kRandomWalk;
  p.config.trace_seed = 90210;
  p.config.trace_movers = 20;
  p.config.trace_speed_mps = 2.5;
  p.config.trace_interval_s = 2.0;
  p.formation = 600_s;
  p.measure = 600_s;
  return p;
}

ScenarioPoint nodes200_point() {
  ScenarioPoint p;
  p.name = "nodes-200";
  p.config.scheduler = "gt-tsch";
  p.config.topology = TopologyKind::kRandomDisk;
  p.config.topology_nodes = 200;
  p.config.disk_radius = 220.0;
  p.config.traffic_ppm = 15;
  p.formation = 600_s;
  p.measure = 3600_s;
  return p;
}

// The scheduler zoo's non-GT cost profiles at dense-50 scale, so per-SF
// overheads (ALICE's per-slotframe cell rehash timers, e-MSF's 6P
// monitor) ride the perf trajectory like any other point. Appended after
// the historical points: their event counts must stay byte-identical.

ScenarioPoint alice50_point() {
  ScenarioPoint p = dense50_point();
  p.name = "alice-50";
  p.config.scheduler = "alice";
  return p;
}

ScenarioPoint emsf50_point() {
  ScenarioPoint p = dense50_point();
  p.name = "emsf-50";
  p.config.scheduler = "emsf";
  return p;
}

// Fault-injection at mobile-100 scale: ten crashers in staggered
// fail -> revive cycles from the crashloop generator, so kill/revive
// medium-cache invalidation and reboot-driven beacon scans ride the perf
// trajectory. Appended after the historical points: their event counts
// must stay byte-identical.
ScenarioPoint churn100_point() {
  ScenarioPoint p;
  p.name = "churn-100";
  p.config.scheduler = "gt-tsch";
  p.config.topology = TopologyKind::kRandomDisk;
  p.config.topology_nodes = 100;
  p.config.disk_radius = 150.0;
  p.config.traffic_ppm = 30;
  p.config.trace_kind = TraceKind::kCrashloop;
  p.config.trace_seed = 90210;
  p.config.trace_fail_count = 10;
  p.config.trace_fail_at_s = 660.0;  // five 120 s cycles across the window
  p.config.trace_interval_s = 2.0;
  p.formation = 600_s;
  p.measure = 600_s;
  return p;
}

struct EndToEnd {
  double wall_seconds = 0.0;
  double sim_per_wall = 0.0;
  std::uint64_t events = 0;
  std::size_t nodes = 0;
  std::size_t joined = 0;
};

/// Build + form the point's network (`per_slot` selects the reference
/// stepping mode), then time `measure` sim-seconds of steady state.
EndToEnd run_point(const ScenarioPoint& p, bool per_slot) {
  auto nc = p.config.make_node_config();
  nc.app_end = 0;
  nc.mac.per_slot_stepping = per_slot;
  if (p.broadcast_slots > 0) nc.sf.gt.layout.broadcast_slots = p.broadcast_slots;

  // The shared generator synthesizes the point's dynamics over the
  // measured window (the bench's formation/measure override the config's
  // paper-default timing).
  ScenarioConfig trace_config = p.config;
  trace_config.warmup = p.formation;
  trace_config.measure = p.measure;
  const TopologySpec topology = trace_config.make_topology();
  Trace trace;
  std::string trace_error;
  if (!trace_config.make_trace(topology, &trace, &trace_error)) {
    std::fprintf(stderr, "bench_sim_core: %s\n", trace_error.c_str());
    std::abort();
  }

  DynamicLinkModel* failures = nullptr;
  auto net = std::make_unique<Network>(
      42, scenario_link_model_factory(trace_config, trace, &failures), topology, nc,
      nullptr);
  TracePlayer player(*net, std::move(trace), failures);
  std::unique_ptr<Telemetry> telemetry;
  if (p.with_telemetry) {
    TelemetryConfig tc;
    tc.sample_period = 1_s;
    tc.probe_count = 4;
    tc.probe_period = 10_s;
    telemetry = std::make_unique<Telemetry>(tc);
    telemetry->default_probe_window(p.formation, p.formation + p.measure);
    telemetry->attach(*net, /*stats=*/nullptr);
  }
  net->start();
  player.start();
  net->sim().run_until(p.formation);

  const std::uint64_t events_before = net->sim().events_processed();
  const auto wall_start = std::chrono::steady_clock::now();
  net->sim().run_until(p.formation + p.measure);
  const auto wall_end = std::chrono::steady_clock::now();

  EndToEnd r;
  r.wall_seconds = std::chrono::duration<double>(wall_end - wall_start).count();
  r.sim_per_wall = us_to_s(p.measure) / (r.wall_seconds > 0 ? r.wall_seconds : 1e-9);
  r.events = net->sim().events_processed() - events_before;
  r.nodes = net->size();
  r.joined = net->joined_count();
  return r;
}

void print_mode_json(FILE* f, const char* key, const EndToEnd& r, bool trailing_comma) {
  std::fprintf(f,
               "      \"%s\": {\"wall_seconds\": %.6f,\n"
               "        \"sim_seconds_per_wall_second\": %.1f,\n"
               "        \"events_processed\": %llu}%s\n",
               key, r.wall_seconds, r.sim_per_wall,
               static_cast<unsigned long long>(r.events), trailing_comma ? "," : "");
}

bool write_simcore_json(const std::string& path) {
  const std::vector<ScenarioPoint> points = {
      sparse7_point(),   telemetry_overhead_point(), dense50_point(),
      mobile100_point(), nodes200_point(),           alice50_point(),
      emsf50_point(),    churn100_point()};
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_sim_core: cannot write %s\n", path.c_str());
    return false;
  }
  std::fprintf(f, "{\n  \"bench\": \"sim_core_end_to_end\",\n  \"scenarios\": [\n");
  for (std::size_t i = 0; i < points.size(); ++i) {
    const ScenarioPoint& p = points[i];
    const EndToEnd fast = run_point(p, /*per_slot=*/false);
    std::fprintf(f,
                 "    {\"name\": \"%s\",\n"
                 "      \"topology\": \"%s\", \"nodes\": %zu, \"joined\": %zu,\n"
                 "      \"slotframe_length\": %u, \"traffic_ppm\": %.0f,\n"
                 "      \"movers\": %d,\n"
                 "      \"measured_sim_seconds\": %.0f,\n",
                 p.name, topology_name(p.config.topology), fast.nodes, fast.joined,
                 p.config.gt_slotframe_length, p.config.traffic_ppm,
                 p.config.trace_kind == TraceKind::kNone ? 0 : p.config.trace_movers,
                 us_to_s(p.measure));
    if (p.with_per_slot) {
      const EndToEnd ref = run_point(p, /*per_slot=*/true);
      const double speedup =
          ref.wall_seconds / (fast.wall_seconds > 0 ? fast.wall_seconds : 1e-9);
      const double event_reduction = static_cast<double>(ref.events) /
                                     static_cast<double>(fast.events > 0 ? fast.events : 1);
      print_mode_json(f, "fast_path", fast, true);
      print_mode_json(f, "per_slot", ref, true);
      std::fprintf(f, "      \"speedup\": %.2f,\n      \"event_reduction\": %.2f}%s\n",
                   speedup, event_reduction, i + 1 < points.size() ? "," : "");
      std::printf("%-10s fast %.0f sim-s/wall-s (%llu events), per-slot %.0f "
                  "(%llu events) -> %.2fx speedup, %.2fx fewer events\n",
                  p.name, fast.sim_per_wall, static_cast<unsigned long long>(fast.events),
                  ref.sim_per_wall, static_cast<unsigned long long>(ref.events), speedup,
                  event_reduction);
    } else {
      print_mode_json(f, "fast_path", fast, false);
      std::fprintf(f, "    }%s\n", i + 1 < points.size() ? "," : "");
      std::printf("%-10s fast %.0f sim-s/wall-s (%llu events, %zu/%zu joined), "
                  "%.1f wall-s for %.0f sim-s\n",
                  p.name, fast.sim_per_wall, static_cast<unsigned long long>(fast.events),
                  fast.joined, fast.nodes, fast.wall_seconds, us_to_s(p.measure));
    }
    std::fflush(f);
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  bool simcore_only = false;
  // Strip our flags before Google Benchmark validates argv.
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--simcore-only") == 0) {
      simcore_only = true;
      if (json_path.empty()) json_path = "BENCH_simcore.json";
    } else if (std::strcmp(arg, "--simcore-json") == 0) {
      json_path = "BENCH_simcore.json";
    } else if (std::strncmp(arg, "--simcore-json=", 15) == 0) {
      // An empty value (e.g. an unset shell variable) falls back to the
      // default path rather than silently disabling the baseline.
      json_path = arg[15] != '\0' ? arg + 15 : "BENCH_simcore.json";
    } else {
      argv[out++] = argv[i];
    }
  }
  argc = out;

  if (!simcore_only) {
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
  } else if (argc > 1) {
    // Google Benchmark never sees argv in this mode; reject leftovers
    // ourselves so a mistyped flag cannot silently change the output path.
    std::fprintf(stderr, "bench_sim_core: unrecognized flag %s\n", argv[1]);
    return 1;
  }
  if (!json_path.empty() && !write_simcore_json(json_path)) return 1;
  return 0;
}
