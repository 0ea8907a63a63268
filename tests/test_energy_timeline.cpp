// Energy model and timeline recorder tests.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "phy/medium.hpp"
#include "sim/simulator.hpp"
#include "stats/energy.hpp"
#include "stats/telemetry.hpp"

namespace gttsch {
namespace {

using namespace literals;

TEST(EnergyModel, AverageCurrentWeighted) {
  EnergyModel m;
  // 10% tx, 20% rx, 70% sleep.
  const double i = m.average_current_ma(100_ms, 200_ms, 1_s);
  EXPECT_NEAR(i, 0.1 * 24.0 + 0.2 * 20.0 + 0.7 * 0.0013, 1e-9);
}

TEST(EnergyModel, SleepOnlyIsTiny) {
  EnergyModel m;
  EXPECT_NEAR(m.average_current_ma(0, 0, 1_s), 0.0013, 1e-9);
}

TEST(EnergyModel, ChargeScalesWithTime) {
  EnergyModel m;
  const double one_hour = m.charge_mah(0, 1800_s, 3600_s);  // 50% rx duty
  EXPECT_NEAR(one_hour, 10.0, 0.01);  // 20mA * 0.5 * 1h
}

TEST(EnergyModel, LifetimeExtrapolation) {
  EnergyModel m;
  // 1% rx duty -> ~0.2 mA avg -> 2600 mAh AA pair -> ~540 days.
  const double days = m.lifetime_days(2600.0, 0, 10_ms, 1_s);
  EXPECT_GT(days, 400.0);
  EXPECT_LT(days, 700.0);
}

TEST(EnergyModel, HigherDutyShorterLife) {
  EnergyModel m;
  const double low = m.lifetime_days(2600.0, 5_ms, 50_ms, 1_s);
  const double high = m.lifetime_days(2600.0, 20_ms, 200_ms, 1_s);
  EXPECT_GT(low, high);
}

TEST(EnergyMeter, TracksWindowedRadioUse) {
  Simulator sim(5);
  Medium medium(sim, std::make_unique<UnitDiskModel>(10.0), Rng(5));
  Radio radio(sim, medium, 1, {});
  // Some pre-mark activity to be excluded.
  radio.listen(17);
  sim.run_until(500_ms);
  radio.turn_off();

  EnergyMeter meter(radio);
  meter.mark();
  sim.run_until(1_s);
  radio.listen(17);
  sim.run_until(1_s + 250_ms);
  radio.turn_off();
  EXPECT_EQ(meter.rx_time_since_mark(), 250_ms);
  EXPECT_EQ(meter.tx_time_since_mark(), 0);
  // 25% rx over a 1 s window.
  EXPECT_NEAR(meter.average_current_ma(1_s), 0.25 * 20.0, 0.01);
}

TEST(Timeline, SamplesGaugesPeriodically) {
  Simulator sim(1);
  Timeline tl(sim, 1_s);
  double value = 0.0;
  tl.add_gauge("v", [&] { return value; });
  tl.start();
  sim.at(1500_ms, [&] { value = 5.0; });
  sim.run_until(3500_ms);
  ASSERT_EQ(tl.samples().size(), 3u);
  EXPECT_DOUBLE_EQ(tl.samples()[0].values[0], 0.0);
  EXPECT_DOUBLE_EQ(tl.samples()[1].values[0], 5.0);
  EXPECT_DOUBLE_EQ(tl.latest("v"), 5.0);
}

TEST(Timeline, MultipleGaugesKeepOrder) {
  Simulator sim(1);
  Timeline tl(sim, 1_s);
  tl.add_gauge("a", [] { return 1.0; });
  tl.add_gauge("b", [] { return 2.0; });
  tl.start();
  sim.run_until(1_s);
  ASSERT_EQ(tl.gauge_names().size(), 2u);
  ASSERT_EQ(tl.samples().size(), 1u);
  EXPECT_DOUBLE_EQ(tl.samples()[0].values[0], 1.0);
  EXPECT_DOUBLE_EQ(tl.samples()[0].values[1], 2.0);
  EXPECT_DOUBLE_EQ(tl.latest("b"), 2.0);
}

TEST(Timeline, StopHaltsSampling) {
  Simulator sim(1);
  Timeline tl(sim, 1_s);
  tl.add_gauge("x", [] { return 0.0; });
  tl.start();
  sim.run_until(2500_ms);
  tl.stop();
  sim.run_until(10_s);
  EXPECT_EQ(tl.samples().size(), 2u);
}

TEST(Timeline, CsvRoundTrip) {
  Simulator sim(1);
  Timeline tl(sim, 1_s);
  tl.add_gauge("queue", [] { return 3.5; });
  tl.start();
  sim.run_until(2_s);
  const std::string path = ::testing::TempDir() + "/gttsch_timeline.csv";
  ASSERT_TRUE(tl.write_csv(path));
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "time_s,queue");
  std::getline(in, line);
  EXPECT_EQ(line, "1,3.5");
  std::remove(path.c_str());
}

TEST(Timeline, LatestOnUnknownGaugeIsNan) {
  Simulator sim(1);
  Timeline tl(sim, 1_s);
  tl.add_gauge("known", [] { return 1.0; });
  EXPECT_TRUE(std::isnan(tl.latest("unknown")));
  EXPECT_TRUE(std::isnan(tl.latest("known")));  // no samples yet
}

}  // namespace
}  // namespace gttsch
