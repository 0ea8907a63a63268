// Telemetry determinism contract (stats/telemetry.hpp): attaching the
// recorder — gauge sampling and the structured event trace, probes OFF —
// must leave every simulation-visible quantity bit-identical to a bare
// run: per-node MAC counters, radio times, final ASN, Medium stats and
// RunMetrics, in both stepping modes, for both schedulers. Probe frames
// are the one deliberate exception (real traffic); they are excluded from
// the panel metrics.
//
// Also covers the JSONL stream invariants (monotone t_s, bounded event
// trace, trailing summary) and the Log redesign (per-component level
// grammar).
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "mac/tsch_mac.hpp"
#include "scenario/experiment.hpp"
#include "scenario/network.hpp"
#include "scenario/trace.hpp"
#include "sim/log.hpp"
#include "sim/simulator.hpp"
#include "stats/telemetry.hpp"

namespace gttsch {
namespace {

using namespace literals;

struct NodeSnapshot {
  MacCounters mac;
  TimeUs radio_on = 0;
  TimeUs radio_tx = 0;
  TimeUs radio_rx = 0;
  Asn asn = 0;
  std::uint64_t app_generated = 0;
  bool joined = false;
};

struct ModeResult {
  RunMetrics metrics;
  MediumStats medium;
  std::map<NodeId, NodeSnapshot> nodes;
  bool fully_formed = false;
};

/// run_scenario(config, telemetry) through ScenarioRun, keeping the
/// network alive long enough to snapshot per-node MAC counters, radio
/// times and the final ASN.
ModeResult run_mode(ScenarioConfig sc, std::uint64_t seed, bool per_slot,
                    Telemetry* telemetry) {
  sc.seed = seed;
  ScenarioRunOptions options;
  options.telemetry = telemetry;
  options.edit_node_config = [per_slot](NodeStackConfig& nc) {
    nc.mac.per_slot_stepping = per_slot;
  };
  ScenarioRun run(sc, options);
  run.start();
  const ExperimentResult result = run.finish();

  Network& net = run.network();
  ModeResult out;
  for (const auto& [id, node] : net.nodes()) {
    NodeSnapshot snap;
    snap.mac = node->mac().counters();
    snap.radio_on = node->radio().on_time();
    snap.radio_tx = node->radio().tx_time();
    snap.radio_rx = node->radio().rx_time();
    snap.asn = node->mac().asn();
    snap.app_generated = node->app_generated();
    snap.joined = node->is_root() || node->rpl().joined();
    out.nodes.emplace(id, snap);
  }
  out.metrics = result.metrics;
  out.medium = net.medium().stats();
  out.fully_formed = result.fully_formed;
  return out;
}

void expect_identical(const ModeResult& with, const ModeResult& without) {
  ASSERT_EQ(with.nodes.size(), without.nodes.size());
  for (const auto& [id, w] : with.nodes) {
    SCOPED_TRACE(::testing::Message() << "node " << id);
    const NodeSnapshot& b = without.nodes.at(id);
    EXPECT_EQ(w.mac.unicast_tx_attempts, b.mac.unicast_tx_attempts);
    EXPECT_EQ(w.mac.unicast_success, b.mac.unicast_success);
    EXPECT_EQ(w.mac.unicast_drops, b.mac.unicast_drops);
    EXPECT_EQ(w.mac.retransmissions, b.mac.retransmissions);
    EXPECT_EQ(w.mac.broadcast_sent, b.mac.broadcast_sent);
    EXPECT_EQ(w.mac.eb_sent, b.mac.eb_sent);
    EXPECT_EQ(w.mac.rx_frames, b.mac.rx_frames);
    EXPECT_EQ(w.mac.acks_sent, b.mac.acks_sent);
    EXPECT_EQ(w.radio_on, b.radio_on);
    EXPECT_EQ(w.radio_tx, b.radio_tx);
    EXPECT_EQ(w.radio_rx, b.radio_rx);
    EXPECT_EQ(w.asn, b.asn);
    EXPECT_EQ(w.app_generated, b.app_generated);
    EXPECT_EQ(w.joined, b.joined);
  }
  EXPECT_EQ(with.medium.transmissions, without.medium.transmissions);
  EXPECT_EQ(with.medium.deliveries, without.medium.deliveries);
  EXPECT_EQ(with.medium.collision_losses, without.medium.collision_losses);
  EXPECT_EQ(with.medium.prr_losses, without.medium.prr_losses);
  EXPECT_EQ(with.metrics.pdr_percent, without.metrics.pdr_percent);
  EXPECT_EQ(with.metrics.avg_delay_ms, without.metrics.avg_delay_ms);
  EXPECT_EQ(with.metrics.p95_delay_ms, without.metrics.p95_delay_ms);
  EXPECT_EQ(with.metrics.duty_cycle_percent, without.metrics.duty_cycle_percent);
  EXPECT_EQ(with.metrics.generated, without.metrics.generated);
  EXPECT_EQ(with.metrics.delivered, without.metrics.delivered);
  EXPECT_EQ(with.metrics.queue_drops, without.metrics.queue_drops);
  EXPECT_EQ(with.metrics.mac_drops, without.metrics.mac_drops);
  EXPECT_EQ(with.metrics.no_route_drops, without.metrics.no_route_drops);
  EXPECT_EQ(with.metrics.mean_hops, without.metrics.mean_hops);
  EXPECT_EQ(with.metrics.nodes_joined, without.metrics.nodes_joined);
  EXPECT_EQ(with.fully_formed, without.fully_formed);
}

/// 7-node single-DODAG scenario with movers and one mid-run failure, so
/// the event trace sees joins, parent switches, trace moves and a death.
ScenarioConfig churny_config(const std::string& kind) {
  ScenarioConfig sc;
  sc.scheduler = kind;
  sc.dodag_count = 1;
  sc.nodes_per_dodag = 7;
  sc.traffic_ppm = 120.0;
  sc.gt_slotframe_length = 32;
  sc.orchestra_unicast_length = 8;
  sc.warmup = 120_s;
  sc.measure = 120_s;
  sc.drain = 10_s;
  sc.trace_kind = TraceKind::kRandomWalk;
  sc.trace_seed = 42;
  sc.trace_movers = 3;
  sc.trace_speed_mps = 3.0;
  sc.trace_interval_s = 5.0;
  sc.trace_fail_count = 1;
  sc.trace_fail_at_s = 180.0;
  return sc;
}

/// Full recorder minus probes: gauges at 1 Hz plus the structured event
/// trace — everything that must be invisible.
TelemetryConfig passive_config() {
  TelemetryConfig tc;
  tc.sample_period = 1_s;
  tc.probe_count = 0;
  return tc;
}

TEST(TelemetryBitIdentity, GtTschBothSteppingModesTwoSeeds) {
  const ScenarioConfig sc = churny_config("gt-tsch");
  for (const std::uint64_t seed : {4000ull, 4017ull}) {
    for (const bool per_slot : {false, true}) {
      SCOPED_TRACE(::testing::Message() << "seed " << seed << " per_slot " << per_slot);
      Telemetry telemetry(passive_config());
      const ModeResult with = run_mode(sc, seed, per_slot, &telemetry);
      const ModeResult without = run_mode(sc, seed, per_slot, nullptr);
      expect_identical(with, without);
      EXPECT_GT(telemetry.records().size(), 0u);
      EXPECT_GT(telemetry.events_recorded(), 0u);
    }
  }
}

TEST(TelemetryBitIdentity, OrchestraBothSteppingModesTwoSeeds) {
  const ScenarioConfig sc = churny_config("orchestra");
  for (const std::uint64_t seed : {4000ull, 4017ull}) {
    for (const bool per_slot : {false, true}) {
      SCOPED_TRACE(::testing::Message() << "seed " << seed << " per_slot " << per_slot);
      Telemetry telemetry(passive_config());
      const ModeResult with = run_mode(sc, seed, per_slot, &telemetry);
      const ModeResult without = run_mode(sc, seed, per_slot, nullptr);
      expect_identical(with, without);
    }
  }
}

TEST(TelemetryProbes, ExcludedFromPanelsByDefault) {
  // Probes are real frames: they load the medium and may shift deliveries.
  // But the *generated* panel counter is pure application traffic, whose
  // generation schedule no probe can perturb — so it must match a
  // probe-free run exactly, while the probe time series itself flows.
  ScenarioConfig sc = churny_config("gt-tsch");
  sc.trace_fail_count = 0;  // keep every prospective probe sender alive
  const ModeResult base = run_mode(sc, 4000, /*per_slot=*/false, nullptr);

  TelemetryConfig tc = passive_config();
  tc.probe_count = 3;
  tc.probe_period = 5_s;
  Telemetry telemetry(tc);
  const ModeResult probed = run_mode(sc, 4000, /*per_slot=*/false, &telemetry);

  EXPECT_EQ(probed.metrics.generated, base.metrics.generated);
  EXPECT_GT(telemetry.probes_sent(), 0u);
  EXPECT_GT(telemetry.probes_delivered(), 0u);
  EXPECT_LE(telemetry.probes_delivered(), telemetry.probes_sent());
  EXPECT_EQ(probed.metrics.probes_sent, telemetry.probes_sent());
  EXPECT_EQ(probed.metrics.probes_delivered, telemetry.probes_delivered());
  EXPECT_GT(probed.metrics.probe_pdr_percent, 0.0);
  EXPECT_GT(probed.metrics.probe_avg_latency_ms, 0.0);
  // The base run reports no probe metrics at all.
  EXPECT_EQ(base.metrics.probes_sent, 0u);
  EXPECT_EQ(base.metrics.probe_pdr_percent, 0.0);

  bool saw_probe_record = false;
  for (const Telemetry::Record& r : telemetry.records()) {
    if (r.json.find("\"type\":\"probe\"") != std::string::npos) {
      saw_probe_record = true;
      EXPECT_NE(r.json.find("\"latency_ms\""), std::string::npos);
      EXPECT_NE(r.json.find("\"origin\""), std::string::npos);
      break;
    }
  }
  EXPECT_TRUE(saw_probe_record);
}

TEST(TelemetryStream, MonotoneTimestampsAndSummary) {
  const ScenarioConfig sc = churny_config("gt-tsch");
  TelemetryConfig tc = passive_config();
  tc.probe_count = 2;
  Telemetry telemetry(tc);
  run_mode(sc, 4000, /*per_slot=*/false, &telemetry);

  ASSERT_GT(telemetry.records().size(), 10u);
  TimeUs last = 0;
  for (const Telemetry::Record& r : telemetry.records()) {
    EXPECT_GE(r.at, last);
    last = r.at;
    ASSERT_FALSE(r.json.empty());
    EXPECT_EQ(r.json.front(), '{');
    EXPECT_EQ(r.json.back(), '}');
    EXPECT_NE(r.json.find("\"t_s\":"), std::string::npos);
    EXPECT_NE(r.json.find("\"type\":\""), std::string::npos);
  }

  const std::string path = ::testing::TempDir() + "telemetry_stream.jsonl";
  ASSERT_TRUE(telemetry.write_jsonl(path));
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line, last_line;
  std::size_t lines = 0;
  while (std::getline(in, line)) {
    if (!line.empty()) {
      last_line = line;
      ++lines;
    }
  }
  EXPECT_EQ(lines, telemetry.records().size() + 1);  // + trailing summary
  EXPECT_NE(last_line.find("\"type\":\"summary\""), std::string::npos);
  EXPECT_NE(last_line.find("\"probes_sent\""), std::string::npos);
}

TEST(TelemetryStream, EventTraceIsBounded) {
  const ScenarioConfig sc = churny_config("gt-tsch");
  TelemetryConfig tc = passive_config();
  tc.max_events = 5;
  Telemetry telemetry(tc);
  run_mode(sc, 4000, /*per_slot=*/false, &telemetry);

  EXPECT_EQ(telemetry.events_recorded(), 5u);
  EXPECT_GT(telemetry.events_dropped(), 0u);
  std::size_t event_lines = 0;
  for (const Telemetry::Record& r : telemetry.records()) {
    if (r.json.find("\"type\":\"event\"") != std::string::npos) ++event_lines;
  }
  EXPECT_EQ(event_lines, 5u);
}

TEST(TelemetryStream, SamplesCarryGaugePanel) {
  const ScenarioConfig sc = churny_config("gt-tsch");
  Telemetry telemetry(passive_config());
  run_mode(sc, 4000, /*per_slot=*/false, &telemetry);

  ASSERT_NE(telemetry.timeline(), nullptr);
  EXPECT_GT(telemetry.timeline()->samples().size(), 100u);  // 250 s at 1 Hz
  bool saw_sample = false;
  for (const Telemetry::Record& r : telemetry.records()) {
    if (r.json.find("\"type\":\"sample\"") == std::string::npos) continue;
    saw_sample = true;
    for (const char* key : {"\"joined\"", "\"queue\"", "\"tx_cells\"",
                            "\"mean_etx\"", "\"duty_percent\"", "\"drops\""}) {
      EXPECT_NE(r.json.find(key), std::string::npos) << key << " in " << r.json;
    }
    break;
  }
  EXPECT_TRUE(saw_sample);
}

// ---------------------------------------------------------------- Log ----

/// Restores the global Log state (level and overrides) on scope exit so
/// these tests cannot leak verbosity into each other.
struct LogStateGuard {
  ~LogStateGuard() { Log::configure("none", nullptr); }
};

TEST(LogConfigure, GrammarAcceptsLevelsAndOverrides) {
  LogStateGuard guard;
  std::string error;
  ASSERT_TRUE(Log::configure("warn,mac=debug,rpl=info", &error)) << error;
  EXPECT_EQ(Log::level(), LogLevel::kDebug);  // max over base + overrides
  EXPECT_EQ(Log::component_level("mac"), LogLevel::kDebug);
  EXPECT_EQ(Log::component_level("rpl"), LogLevel::kInfo);
  EXPECT_EQ(Log::component_level("medium"), LogLevel::kWarn);  // base

  // Re-configuring replaces the previous override set entirely.
  ASSERT_TRUE(Log::configure("error", &error)) << error;
  EXPECT_EQ(Log::level(), LogLevel::kError);
  EXPECT_EQ(Log::component_level("mac"), LogLevel::kError);

  // Last occurrence of a component wins.
  ASSERT_TRUE(Log::configure("mac=info,mac=none", &error)) << error;
  EXPECT_EQ(Log::component_level("mac"), LogLevel::kNone);
}

TEST(LogConfigure, RejectsMalformedSpecsWithoutApplying) {
  LogStateGuard guard;
  std::string error;
  ASSERT_TRUE(Log::configure("warn,mac=debug", &error)) << error;

  for (const char* bad : {"", "bogus", "mac=", "=debug", "mac=shout",
                          "warn,,mac=debug", "warn,info", "debug,warn"}) {
    SCOPED_TRACE(bad);
    error.clear();
    EXPECT_FALSE(Log::configure(bad, &error));
    EXPECT_FALSE(error.empty());
    // The previous configuration survives a failed parse untouched.
    EXPECT_EQ(Log::component_level("mac"), LogLevel::kDebug);
    EXPECT_EQ(Log::component_level("rpl"), LogLevel::kWarn);
  }
}

TEST(LogConfigure, ComponentOverridesGateEmission) {
  LogStateGuard guard;
  std::string error;
  ASSERT_TRUE(Log::configure("none,mac=info", &error)) << error;

  ::testing::internal::CaptureStderr();
  GTTSCH_LOG_INFO("mac", "cell %d fired", 7);
  GTTSCH_LOG_INFO("rpl", "should be muted");
  GTTSCH_LOG_DEBUG("mac", "below the override");
  const std::string out = ::testing::internal::GetCapturedStderr();
  EXPECT_EQ(out, "I mac      cell 7 fired\n");
}

}  // namespace
}  // namespace gttsch
