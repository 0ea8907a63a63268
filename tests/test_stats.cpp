// Statistics tests: summary stats, histogram quantiles, run-metric
// windowing and the six panel computations.
#include <gtest/gtest.h>

#include "phy/medium.hpp"
#include "sim/simulator.hpp"
#include "stats/histogram.hpp"
#include "stats/run_stats.hpp"

namespace gttsch {
namespace {

using namespace literals;

TEST(SummaryStats, MeanAndCount) {
  SummaryStats s;
  for (double v : {2.0, 4.0, 6.0}) s.add(v);
  EXPECT_DOUBLE_EQ(s.mean(), 4.0);
  EXPECT_EQ(s.count(), 3u);
}

TEST(SummaryStats, EmptyIsZero) {
  SummaryStats s;
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
}

TEST(Histogram, QuantilesApproximate) {
  Histogram h(0, 100, 100);
  for (int i = 0; i < 100; ++i) h.add(i + 0.5);
  EXPECT_NEAR(h.quantile(0.5), 50.0, 1.5);
  EXPECT_NEAR(h.quantile(0.95), 95.0, 1.5);
  EXPECT_NEAR(h.quantile(0.0), 0.0, 1.5);
}

TEST(Histogram, ClampsOutOfRange) {
  Histogram h(0, 10, 10);
  h.add(-5);
  h.add(50);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_EQ(h.bins().front(), 1u);
  EXPECT_EQ(h.bins().back(), 1u);
}

class RunStatsTest : public ::testing::Test {
 protected:
  RunStatsTest() : stats_(10_s, 70_s) {
    stats_.register_node(1, true, nullptr);
    stats_.register_node(2, false, nullptr);
    stats_.register_node(3, false, nullptr);
  }

  DataPayload data(NodeId origin, TimeUs gen, std::uint8_t hops = 1) {
    DataPayload d;
    d.origin = origin;
    d.generated_at = gen;
    d.hops = hops;
    return d;
  }

  RunStats stats_;
};

TEST_F(RunStatsTest, CountsOnlyInsideWindow) {
  stats_.on_generated(2, 5_s);    // before warmup: ignored
  stats_.on_generated(2, 20_s);   // counted
  stats_.on_generated(2, 80_s);   // after end: ignored
  const auto m = stats_.finalize();
  EXPECT_EQ(m.generated, 1u);
}

TEST_F(RunStatsTest, DeliveryKeyedOnGenerationTime) {
  stats_.on_generated(2, 20_s);
  // Delivered after measure end, but generated inside: still counts.
  stats_.on_delivered(1, data(2, 20_s), 71_s);
  const auto m = stats_.finalize();
  EXPECT_EQ(m.delivered, 1u);
  EXPECT_DOUBLE_EQ(m.pdr_percent, 100.0);
}

TEST_F(RunStatsTest, WarmupTrafficExcludedFromDelivery) {
  stats_.on_delivered(1, data(2, 5_s), 12_s);  // generated pre-warmup
  const auto m = stats_.finalize();
  EXPECT_EQ(m.delivered, 0u);
}

TEST_F(RunStatsTest, DelayAveraged) {
  stats_.on_generated(2, 20_s);
  stats_.on_generated(3, 21_s);
  stats_.on_delivered(1, data(2, 20_s), 20_s + 100_ms);
  stats_.on_delivered(1, data(3, 21_s), 21_s + 300_ms);
  const auto m = stats_.finalize();
  EXPECT_NEAR(m.avg_delay_ms, 200.0, 1e-9);
}

TEST_F(RunStatsTest, PanelMetricArithmetic) {
  // 1 minute window: warmup 10s, end 70s.
  for (int i = 0; i < 10; ++i) stats_.on_generated(2, 20_s);
  for (int i = 0; i < 8; ++i) stats_.on_delivered(1, data(2, 20_s), 25_s);
  stats_.on_queue_drop(2, 30_s);
  stats_.on_queue_drop(3, 30_s);
  stats_.on_mac_drop(2, 30_s);
  const auto m = stats_.finalize();
  EXPECT_NEAR(m.pdr_percent, 80.0, 1e-9);
  EXPECT_NEAR(m.loss_per_minute, 2.0, 1e-9);        // 2 lost / 1 min
  EXPECT_NEAR(m.throughput_per_minute, 8.0, 1e-9);  // 8 delivered / 1 min
  EXPECT_NEAR(m.queue_loss_per_node, 2.0 / 3.0, 1e-9);
  EXPECT_EQ(m.mac_drops, 1u);
}

TEST_F(RunStatsTest, MeanHops) {
  stats_.on_generated(2, 20_s);
  stats_.on_generated(3, 20_s);
  stats_.on_delivered(1, data(2, 20_s, 1), 21_s);
  stats_.on_delivered(1, data(3, 20_s, 3), 21_s);
  EXPECT_DOUBLE_EQ(stats_.finalize().mean_hops, 2.0);
}

TEST_F(RunStatsTest, JoinedCounting) {
  stats_.set_joined(2, true);
  const auto m = stats_.finalize();
  // Root (1) + node 2.
  EXPECT_EQ(m.nodes_joined, 2u);
  EXPECT_EQ(m.node_count, 3u);
}

TEST(RunStatsDuty, DutyCycleFromRadioWindow) {
  Simulator sim(9);
  Medium medium(sim, std::make_unique<UnitDiskModel>(10.0), Rng(9));
  Radio radio(sim, medium, 1, {});
  RunStats stats(1_s, 2_s);
  stats.register_node(1, false, &radio);

  sim.at(1_s, [&] { stats.begin_measurement(); });
  // Radio on for 0.25s of the 1s window.
  sim.at(1200_ms, [&] { radio.listen(17); });
  sim.at(1450_ms, [&] { radio.turn_off(); });
  sim.at(2_s, [&] { stats.end_measurement(); });
  sim.run_until(3_s);

  const auto m = stats.finalize();
  EXPECT_NEAR(m.duty_cycle_percent, 25.0, 0.1);
}

}  // namespace
}  // namespace gttsch
