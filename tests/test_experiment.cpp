// Experiment-runner tests: config derivation, metric sanity, sliced
// ScenarioRun stepping, and the paper's headline comparison (GT-TSCH >=
// Orchestra under heavy load) on a reduced-size run.
#include <gtest/gtest.h>

#include "campaign/journal.hpp"
#include "scenario/experiment.hpp"

namespace gttsch {
namespace {

using namespace literals;

ScenarioConfig small(const std::string& kind, double ppm) {
  ScenarioConfig c;
  c.scheduler = kind;
  c.dodag_count = 1;
  c.nodes_per_dodag = 7;
  c.traffic_ppm = ppm;
  c.warmup = 180_s;
  c.measure = 120_s;
  c.seed = 5;
  return c;
}

TEST(ScenarioConfig, NodeConfigFollowsTableII) {
  ScenarioConfig c;
  const auto nc = c.make_node_config();
  EXPECT_EQ(nc.mac.timing.slot_duration, 15_ms);
  EXPECT_EQ(nc.mac.eb_period, 2_s);
  EXPECT_EQ(nc.mac.max_retries, 4);
  EXPECT_EQ(nc.mac.hopping.sequence(),
            (std::vector<PhysChannel>{17, 23, 15, 25, 19, 11, 13, 21}));
  EXPECT_EQ(nc.sf.gt.layout.length, 32);
  EXPECT_EQ(nc.sf.gt.layout.broadcast_slots, 4);
  EXPECT_EQ(nc.rpl.min_hop_rank_increase, 256);
}

TEST(ScenarioConfig, SlotframeScaling) {
  ScenarioConfig c;
  c.gt_slotframe_length = 80;
  const auto nc = c.make_node_config();
  EXPECT_EQ(nc.sf.gt.layout.length, 80);
  EXPECT_EQ(nc.sf.gt.layout.broadcast_slots, 10);
}

TEST(ScenarioConfig, TopologyMatchesCounts) {
  ScenarioConfig c;
  c.dodag_count = 2;
  c.nodes_per_dodag = 8;
  const auto t = c.make_topology();
  EXPECT_EQ(t.size(), 16u);
  EXPECT_EQ(t.root_count(), 2u);
}

TEST(Experiment, GtRunProducesSaneMetrics) {
  const auto r = run_scenario(small("gt-tsch", 30.0));
  EXPECT_TRUE(r.fully_formed);
  EXPECT_GT(r.metrics.generated, 40u);  // 6 senders x 30ppm x 2min x margin
  EXPECT_GT(r.metrics.pdr_percent, 85.0);
  EXPECT_GT(r.metrics.avg_delay_ms, 10.0);
  EXPECT_LT(r.metrics.avg_delay_ms, 1500.0);
  EXPECT_GT(r.metrics.duty_cycle_percent, 0.5);
  EXPECT_LT(r.metrics.duty_cycle_percent, 60.0);
}

TEST(Experiment, OrchestraRunProducesSaneMetrics) {
  const auto r = run_scenario(small("orchestra", 30.0));
  EXPECT_TRUE(r.fully_formed);
  EXPECT_GT(r.metrics.generated, 40u);
  EXPECT_GT(r.metrics.pdr_percent, 50.0);
}

TEST(Experiment, DeterministicPerSeed) {
  const auto a = run_scenario(small("gt-tsch", 60.0));
  const auto b = run_scenario(small("gt-tsch", 60.0));
  EXPECT_EQ(a.metrics.generated, b.metrics.generated);
  EXPECT_EQ(a.metrics.delivered, b.metrics.delivered);
  EXPECT_DOUBLE_EQ(a.metrics.avg_delay_ms, b.metrics.avg_delay_ms);
}

TEST(Experiment, SeedsChangeOutcomes) {
  auto c = small("gt-tsch", 60.0);
  const auto a = run_scenario(c);
  c.seed = 6;
  const auto b = run_scenario(c);
  EXPECT_NE(a.metrics.generated, b.metrics.generated);
}

TEST(Experiment, HeadlineComparisonUnderHeavyLoad) {
  // The paper's core claim (Fig 8): under heavy traffic GT-TSCH keeps PDR
  // high while Orchestra collapses toward ~50%.
  const auto gt = run_scenario(small("gt-tsch", 120.0));
  const auto orch = run_scenario(small("orchestra", 120.0));
  EXPECT_GT(gt.metrics.pdr_percent, orch.metrics.pdr_percent + 10.0);
  EXPECT_GT(gt.metrics.throughput_per_minute, orch.metrics.throughput_per_minute);
}

/// Every field of a result — all RunMetrics, the medium window and
/// fully_formed — in the journal's exact rendering.
std::string rendered(const ExperimentResult& result) {
  campaign::JournalRecord record;
  record.result = result;
  return campaign::render_journal_line(record);
}

TEST(ScenarioRun, SlicedSteppingMatchesRunScenario) {
  // A crashloop churn trace, so the churn-phase split and the recovery
  // accounting are in play; slices straddle the warmup (120 s) and the
  // end of the measurement window (300 s).
  ScenarioConfig c = small("gt-tsch", 120.0);
  c.warmup = 120_s;
  c.measure = 180_s;
  c.drain = 10_s;
  c.trace_kind = TraceKind::kCrashloop;
  c.trace_seed = 7;
  c.trace_fail_count = 2;
  c.trace_down_s = 20.0;
  c.trace_cycle_s = 90.0;
  const ExperimentResult whole = run_scenario(c);
  EXPECT_EQ(whole.metrics.churn_phases, 1u);
  EXPECT_GT(whole.metrics.node_revivals, 0u);

  ScenarioRun run(c);
  run.start();
  for (const TimeUs t : {37_s + 11, 120_s - 1, 181_s + 7, 295_s, 305_s + 3}) {
    run.step_until(t);
  }
  const ExperimentResult sliced = run.finish();
  EXPECT_EQ(rendered(sliced), rendered(whole));
}

TEST(Experiment, DefaultSeedsNonEmpty) {
  const auto seeds = default_seeds();
  EXPECT_GE(seeds.size(), 1u);
  // Distinct seeds.
  for (std::size_t i = 1; i < seeds.size(); ++i) EXPECT_NE(seeds[i], seeds[i - 1]);
}

TEST(Experiment, SchedulerNames) {
  EXPECT_STREQ(scheduler_name("gt-tsch"), "GT-TSCH");
  EXPECT_STREQ(scheduler_name("orchestra"), "Orchestra");
}

}  // namespace
}  // namespace gttsch
