// Churn-phase windows (stats/run_stats.hpp): when a scenario's trace kills
// nodes mid-run, RunStats splits the measurement window at the first
// failure and at last failure + kChurnSettle, attributing both generated
// and delivered packets by *generation* time. The invariant locked here:
// the three per-phase counters partition the whole-run counters exactly —
// no packet lost or double-counted at a boundary — in both stepping modes.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "mac/tsch_mac.hpp"
#include "scenario/experiment.hpp"
#include "stats/run_stats.hpp"

namespace gttsch {
namespace {

using namespace literals;

/// 7 nodes, one killed mid-measurement: the kill at 180 s lands inside the
/// [120 s, 240 s) measurement window, so all three phases are non-trivial
/// (pre: 120-180, churn: 180-240 given the 60 s settle, post: empty here —
/// a second config below moves the kill early so post is populated too).
ScenarioConfig killed_config(const std::string& kind, double fail_at_s) {
  ScenarioConfig sc;
  sc.scheduler = kind;
  sc.dodag_count = 1;
  sc.nodes_per_dodag = 7;
  sc.traffic_ppm = 120.0;
  sc.gt_slotframe_length = 32;
  sc.orchestra_unicast_length = 8;
  sc.warmup = 120_s;
  sc.measure = 180_s;
  sc.drain = 10_s;
  sc.trace_kind = TraceKind::kRandomWalk;
  sc.trace_seed = 42;
  sc.trace_movers = 2;
  sc.trace_speed_mps = 2.0;
  sc.trace_interval_s = 5.0;
  sc.trace_fail_count = 1;
  sc.trace_fail_at_s = fail_at_s;
  return sc;
}

void expect_phases_partition(const RunMetrics& m) {
  EXPECT_EQ(m.churn_phases, 1u);
  EXPECT_EQ(m.pre_generated + m.churn_generated + m.post_generated, m.generated);
  EXPECT_EQ(m.pre_delivered + m.churn_delivered + m.post_delivered, m.delivered);
  // Phase PDRs are consistent with their own counters.
  if (m.pre_generated > 0) {
    EXPECT_DOUBLE_EQ(m.pre_pdr_percent,
                     100.0 * static_cast<double>(m.pre_delivered) /
                         static_cast<double>(m.pre_generated));
  }
  if (m.churn_generated > 0) {
    EXPECT_DOUBLE_EQ(m.churn_pdr_percent,
                     100.0 * static_cast<double>(m.churn_delivered) /
                         static_cast<double>(m.churn_generated));
  }
  if (m.post_generated > 0) {
    EXPECT_DOUBLE_EQ(m.post_pdr_percent,
                     100.0 * static_cast<double>(m.post_delivered) /
                         static_cast<double>(m.post_generated));
  }
}

TEST(ChurnPhases, PartitionExactlyGtTsch) {
  // Kill at 150 s: pre = [120, 150), churn = [150, 210), post = [210, 300).
  const ScenarioConfig sc = killed_config("gt-tsch", 150.0);
  for (const std::uint64_t seed : {4000ull, 4017ull}) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    ScenarioConfig run = sc;
    run.seed = seed;
    const ExperimentResult r = run_scenario(run);
    expect_phases_partition(r.metrics);
    EXPECT_GT(r.metrics.pre_generated, 0u);
    EXPECT_GT(r.metrics.churn_generated, 0u);
    EXPECT_GT(r.metrics.post_generated, 0u);
  }
}

TEST(ChurnPhases, PartitionExactlyOrchestra) {
  const ScenarioConfig sc = killed_config("orchestra", 150.0);
  ScenarioConfig run = sc;
  run.seed = 4000;
  const ExperimentResult r = run_scenario(run);
  expect_phases_partition(r.metrics);
}

TEST(ChurnPhases, FastPathAndPerSlotAgreeExactly) {
  ScenarioConfig sc = killed_config("gt-tsch", 150.0);
  sc.seed = 4000;
  const ExperimentResult fast = run_scenario(sc);
  ScenarioRunOptions options;
  options.edit_node_config = [](NodeStackConfig& nc) { nc.mac.per_slot_stepping = true; };
  ScenarioRun per_slot(sc, options);
  per_slot.start();
  const ExperimentResult ref = per_slot.finish();
  // The reference really stepped slot by slot, rebooted stacks included.
  for (const auto& [id, node] : per_slot.network().nodes()) {
    EXPECT_TRUE(node->mac().per_slot_stepping()) << "node " << id;
  }
  expect_phases_partition(fast.metrics);
  expect_phases_partition(ref.metrics);
  EXPECT_EQ(fast.metrics.pre_generated, ref.metrics.pre_generated);
  EXPECT_EQ(fast.metrics.churn_generated, ref.metrics.churn_generated);
  EXPECT_EQ(fast.metrics.post_generated, ref.metrics.post_generated);
  EXPECT_EQ(fast.metrics.pre_delivered, ref.metrics.pre_delivered);
  EXPECT_EQ(fast.metrics.churn_delivered, ref.metrics.churn_delivered);
  EXPECT_EQ(fast.metrics.post_delivered, ref.metrics.post_delivered);
  EXPECT_EQ(fast.metrics.pre_pdr_percent, ref.metrics.pre_pdr_percent);
  EXPECT_EQ(fast.metrics.churn_pdr_percent, ref.metrics.churn_pdr_percent);
  EXPECT_EQ(fast.metrics.post_pdr_percent, ref.metrics.post_pdr_percent);
  EXPECT_EQ(fast.metrics.pre_avg_delay_ms, ref.metrics.pre_avg_delay_ms);
  EXPECT_EQ(fast.metrics.churn_avg_delay_ms, ref.metrics.churn_avg_delay_ms);
  EXPECT_EQ(fast.metrics.post_avg_delay_ms, ref.metrics.post_avg_delay_ms);
  EXPECT_EQ(fast.medium.transmissions, ref.medium.transmissions);
  EXPECT_EQ(fast.medium.deliveries, ref.medium.deliveries);
  EXPECT_EQ(fast.medium.collision_losses, ref.medium.collision_losses);
  EXPECT_EQ(fast.medium.prr_losses, ref.medium.prr_losses);
}

TEST(ChurnPhases, LateKillLeavesPostEmpty) {
  // Kill at 280 s: churn runs to 340 s, past measure_end (300 s) — the
  // post phase window is empty and its counters must stay zero.
  ScenarioConfig sc = killed_config("gt-tsch", 280.0);
  sc.seed = 4000;
  const ExperimentResult r = run_scenario(sc);
  expect_phases_partition(r.metrics);
  EXPECT_GT(r.metrics.pre_generated, 0u);
  EXPECT_EQ(r.metrics.post_generated, 0u);
  EXPECT_EQ(r.metrics.post_delivered, 0u);
  EXPECT_EQ(r.metrics.post_pdr_percent, 0.0);
}

TEST(ChurnPhases, NoFailuresMeansNoPhases) {
  ScenarioConfig sc = killed_config("gt-tsch", 150.0);
  sc.trace_fail_count = 0;
  sc.seed = 4000;
  const ExperimentResult r = run_scenario(sc);
  EXPECT_EQ(r.metrics.churn_phases, 0u);
  EXPECT_EQ(r.metrics.pre_generated + r.metrics.churn_generated +
                r.metrics.post_generated,
            0u);
  EXPECT_EQ(r.metrics.pre_pdr_percent, 0.0);
}

}  // namespace
}  // namespace gttsch
