// Scheduler-zoo conformance: every SF in the registry — not a hard-coded
// pair — must (a) register coherently (keys, aliases, display names),
// (b) surface through the campaign spec parser with registry-derived
// error text and a stable fingerprint, (c) cold-boot a fig8-style
// network to >=90% RPL join, and (d) honor the fast-path contract:
// idle-slot skipping bit-identical to per-slot reference stepping, on a
// static network and under mobility and crash-loop churn.
// A fifth scheduler registered tomorrow is swept by this file with zero
// edits here.
#include <gtest/gtest.h>

#include <map>
#include <string>

#include "campaign/spec.hpp"
#include "mac/tsch_mac.hpp"
#include "scenario/experiment.hpp"
#include "scenario/network.hpp"
#include "scenario/trace.hpp"
#include "sixp/sf_registry.hpp"

namespace gttsch {
namespace {

using namespace literals;

// ---------------------------------------------------------------- registry

TEST(SfRegistry, CanonicalEntriesInRegistrationOrder) {
  const auto& reg = SfRegistry::instance();
  ASSERT_GE(reg.entries().size(), 4u);
  // The four papers' schedulers, in the canonical display order.
  const std::vector<std::string> expected = {"gt-tsch", "orchestra", "alice", "emsf"};
  const std::vector<std::string> names = reg.names();
  ASSERT_EQ(names.size(), expected.size());
  EXPECT_EQ(names, expected);
  for (const auto& entry : reg.entries()) {
    EXPECT_FALSE(entry.key.empty());
    EXPECT_FALSE(entry.display_name.empty()) << entry.key;
    EXPECT_FALSE(entry.summary.empty()) << entry.key;
    EXPECT_TRUE(entry.factory != nullptr) << entry.key;
  }
}

TEST(SfRegistry, FindByKeyAliasAndUnknown) {
  const auto& reg = SfRegistry::instance();
  const SfRegistry::Entry* gt = reg.find("gt-tsch");
  ASSERT_NE(gt, nullptr);
  EXPECT_EQ(gt->display_name, "GT-TSCH");
  // Aliases resolve to the same entry as the canonical key.
  EXPECT_EQ(reg.find("gt"), gt);
  const SfRegistry::Entry* emsf = reg.find("emsf");
  ASSERT_NE(emsf, nullptr);
  EXPECT_EQ(reg.find("e-msf"), emsf);
  EXPECT_EQ(emsf->display_name, "e-MSF");
  ASSERT_NE(reg.find("alice"), nullptr);
  EXPECT_EQ(reg.find("alice")->display_name, "ALICE");
  ASSERT_NE(reg.find("orchestra"), nullptr);
  EXPECT_EQ(reg.find("tasa"), nullptr);
  EXPECT_EQ(reg.find(""), nullptr);
}

TEST(SfRegistry, NamesJoinedDrivesUsageText) {
  EXPECT_EQ(SfRegistry::instance().names_joined(), "gt-tsch, orchestra, alice, emsf");
  EXPECT_EQ(SfRegistry::instance().names_joined(","), "gt-tsch,orchestra,alice,emsf");
}

TEST(SfRegistry, DisplayNamesReachExperimentReports) {
  // experiment.cpp's scheduler_name() is a thin registry lookup now.
  EXPECT_STREQ(scheduler_name("gt-tsch"), "GT-TSCH");
  EXPECT_STREQ(scheduler_name("gt"), "GT-TSCH");  // alias resolves too
  EXPECT_STREQ(scheduler_name("orchestra"), "Orchestra");
  EXPECT_STREQ(scheduler_name("alice"), "ALICE");
  EXPECT_STREQ(scheduler_name("emsf"), "e-MSF");
  EXPECT_STREQ(scheduler_name("nope"), "?");
}

// ------------------------------------------------------- campaign surface

TEST(SchedulerAxis, ApplyFieldAcceptsEveryRegisteredName) {
  ScenarioConfig c;
  std::string error;
  for (const std::string& name : SfRegistry::instance().names()) {
    EXPECT_TRUE(campaign::apply_field(c, "scheduler", name, &error)) << error;
    EXPECT_EQ(c.scheduler, name);
  }
}

TEST(SchedulerAxis, UnknownSchedulerErrorEnumeratesRegistry) {
  ScenarioConfig c;
  std::string error;
  ASSERT_FALSE(campaign::apply_field(c, "scheduler", "tasa", &error));
  EXPECT_NE(error.find("tasa"), std::string::npos) << error;
  // The error text is registry-derived: every canonical name appears.
  for (const std::string& name : SfRegistry::instance().names())
    EXPECT_NE(error.find(name), std::string::npos) << error << " missing " << name;
}

TEST(SchedulerAxis, AliasesCanonicalizeBeforeFingerprinting) {
  // "gt" and "gt-tsch" are the same campaign: same labels, same
  // fingerprint — journals and CSV rows cannot fork on spelling.
  std::string error;
  campaign::CampaignSpec canonical;
  canonical.seeds = {1, 2};
  ASSERT_TRUE(campaign::parse_grid("scheduler=gt-tsch,emsf", &canonical.axes, &error));
  campaign::CampaignSpec aliased;
  aliased.seeds = {1, 2};
  ASSERT_TRUE(campaign::parse_grid("scheduler=gt,e-msf", &aliased.axes, &error));
  const auto a = campaign::expand_grid(canonical, &error);
  ASSERT_EQ(a.size(), 2u) << error;
  const auto b = campaign::expand_grid(aliased, &error);
  ASSERT_EQ(b.size(), 2u) << error;
  EXPECT_EQ(a[0].config.scheduler, b[0].config.scheduler);
  EXPECT_EQ(campaign::campaign_fingerprint(a, canonical.seeds),
            campaign::campaign_fingerprint(b, aliased.seeds));
}

TEST(SchedulerAxis, FingerprintMatchesCommittedGolden) {
  // The committed golden below pins the fingerprint of a fixed four-way
  // scheduler sweep. It must never drift across refactors: journal
  // records carry this value, so a silent change orphans every archived
  // campaign. If this fails, you changed campaign identity (config
  // serialization, label format, or scheduler canonicalization) — bump
  // the golden ONLY with a changelog note that old journals invalidate.
  std::string error;
  campaign::CampaignSpec spec;
  spec.seeds = {1, 2, 3};
  ASSERT_TRUE(campaign::parse_grid("scheduler=gt-tsch,orchestra,alice,emsf;traffic_ppm=30,120",
                                   &spec.axes, &error))
      << error;
  const auto points = campaign::expand_grid(spec, &error);
  ASSERT_EQ(points.size(), 8u) << error;
  const std::uint64_t fp = campaign::campaign_fingerprint(points, spec.seeds);
  // Golden bumped when trace_down_s / trace_cycle_s entered mix_config
  // (trace grammar v2): campaigns journaled before that change cannot be
  // resumed or merged across the boundary.
  EXPECT_EQ(fp, 0x5776e30641f0ec27ull);
}

// ----------------------------------------------------- per-SF conformance

class SchedulerZoo : public ::testing::TestWithParam<std::string> {
 protected:
  /// Fig 8 shape (paper Section VIII), shortened: 2 DODAGs x 7 nodes.
  static ScenarioConfig fig8(const std::string& scheduler) {
    ScenarioConfig sc;
    sc.scheduler = scheduler;
    sc.dodag_count = 2;
    sc.nodes_per_dodag = 7;
    sc.traffic_ppm = 60.0;
    sc.warmup = 120_s;
    sc.measure = 120_s;
    sc.drain = 10_s;
    return sc;
  }
};

TEST_P(SchedulerZoo, ColdBootFormsFig8Network) {
  ScenarioConfig sc = fig8(GetParam());
  sc.seed = 7001;
  // Light load and a longer warmup: this is the formation floor, not a
  // throughput comparison. 6P bootstraps (GT-TSCH, e-MSF) need the extra
  // time on the two-DODAG topology.
  sc.traffic_ppm = 30.0;
  sc.warmup = 180_s;
  const auto r = run_scenario(sc);
  const double total = static_cast<double>(sc.dodag_count * sc.nodes_per_dodag);
  // The conformance floor: >=90% of nodes joined, a sane delivery rate.
  // (No 100%-PDR bar here — autonomous SFs pay cross-DODAG hash
  // collisions on this topology, which is the paper's critique, not a
  // conformance failure.)
  EXPECT_GE(static_cast<double>(r.metrics.nodes_joined), 0.9 * total) << GetParam();
  EXPECT_TRUE(r.fully_formed) << GetParam();
  EXPECT_GT(r.metrics.generated, 0u);
  EXPECT_GT(r.metrics.pdr_percent, 60.0) << GetParam();
}

struct ZooModeResult {
  RunMetrics metrics;
  MediumStats medium;
  std::map<NodeId, std::pair<Asn, TimeUs>> nodes;  ///< asn, radio on-time
  std::map<NodeId, std::uint64_t> rx_frames;
  std::uint64_t events_processed = 0;
};

/// test_fast_path.cpp's run_mode, reduced to the zoo's needs: one knob
/// (per-slot reference vs skipping fast path), everything else — the
/// trace included — from the scenario config.
ZooModeResult zoo_run(const ScenarioConfig& sc, bool per_slot) {
  const TimeUs measure_end = sc.warmup + sc.measure;
  RunStats stats(sc.warmup, measure_end);
  auto nc = sc.make_node_config();
  nc.mac.per_slot_stepping = per_slot;
  const TopologySpec topology = sc.make_topology();
  Trace trace;
  std::string trace_error;
  if (!sc.make_trace(topology, &trace, &trace_error)) {
    ADD_FAILURE() << "trace: " << trace_error;
    return {};
  }
  DynamicLinkModel* failures = nullptr;
  Network net(sc.seed, scenario_link_model_factory(sc, trace, &failures), topology, nc,
              &stats);
  TracePlayer player(net, std::move(trace), failures);
  net.sim().at(sc.warmup, [&stats] { stats.begin_measurement(); });
  net.sim().at(measure_end, [&stats] { stats.end_measurement(); });
  net.start();
  player.start();
  net.sim().run_until(measure_end + sc.drain);
  ZooModeResult out;
  for (const auto& [id, node] : net.nodes()) {
    stats.set_joined(id, node->is_root() || node->rpl().joined());
    out.nodes.emplace(id, std::make_pair(node->mac().asn(), node->radio().on_time()));
    out.rx_frames.emplace(id, node->mac().counters().rx_frames);
  }
  out.metrics = stats.finalize();
  out.medium = net.medium().stats();
  out.events_processed = net.sim().events_processed();
  return out;
}

/// The observable-purity contract every SF must satisfy, whatever its
/// cell population looks like (negotiated, autonomous, or time-varying
/// ALICE rehashes): identical RunStats doubles, medium draws, per-node
/// ASN/radio/rx — on strictly fewer simulator events.
void expect_zoo_identical(const ZooModeResult& fast, const ZooModeResult& ref) {
  ASSERT_EQ(fast.nodes.size(), ref.nodes.size());
  for (const auto& [id, f] : fast.nodes) {
    SCOPED_TRACE(::testing::Message() << "node " << id);
    EXPECT_EQ(f.first, ref.nodes.at(id).first);    // ASN
    EXPECT_EQ(f.second, ref.nodes.at(id).second);  // radio on-time
    EXPECT_EQ(fast.rx_frames.at(id), ref.rx_frames.at(id));
  }
  EXPECT_EQ(fast.medium.transmissions, ref.medium.transmissions);
  EXPECT_EQ(fast.medium.deliveries, ref.medium.deliveries);
  EXPECT_EQ(fast.medium.collision_losses, ref.medium.collision_losses);
  EXPECT_EQ(fast.medium.prr_losses, ref.medium.prr_losses);
  EXPECT_EQ(fast.metrics.pdr_percent, ref.metrics.pdr_percent);
  EXPECT_EQ(fast.metrics.avg_delay_ms, ref.metrics.avg_delay_ms);
  EXPECT_EQ(fast.metrics.duty_cycle_percent, ref.metrics.duty_cycle_percent);
  EXPECT_EQ(fast.metrics.generated, ref.metrics.generated);
  EXPECT_EQ(fast.metrics.delivered, ref.metrics.delivered);
  EXPECT_EQ(fast.metrics.nodes_joined, ref.metrics.nodes_joined);
  EXPECT_EQ(fast.metrics.node_failures, ref.metrics.node_failures);
  EXPECT_EQ(fast.metrics.node_revivals, ref.metrics.node_revivals);
  EXPECT_EQ(fast.metrics.node_rejoins, ref.metrics.node_rejoins);
  EXPECT_EQ(fast.metrics.orphan_intervals, ref.metrics.orphan_intervals);
  EXPECT_EQ(fast.metrics.recovery_rejoin_s, ref.metrics.recovery_rejoin_s);
  EXPECT_EQ(fast.metrics.recovery_first_delivery_s,
            ref.metrics.recovery_first_delivery_s);
  EXPECT_EQ(fast.metrics.recovery_ttr_s, ref.metrics.recovery_ttr_s);
  EXPECT_LT(fast.events_processed, ref.events_processed);
}

TEST_P(SchedulerZoo, FastPathBitIdenticalToPerSlotStepping) {
  ScenarioConfig sc = fig8(GetParam());
  sc.seed = 7103;
  SCOPED_TRACE(GetParam());
  expect_zoo_identical(zoo_run(sc, /*per_slot=*/false), zoo_run(sc, /*per_slot=*/true));
}

TEST_P(SchedulerZoo, FastPathBitIdenticalUnderMobilityAndCrashloop) {
  // The same contract on the two-DODAG network under churn. Random-walk
  // movers dirty the medium's link cache and one node dies mid-measurement;
  // crash-looping nodes fail, reboot into a fresh stack and rejoin, which
  // drives the ScopedOwner entry points (Node::fail/reboot) and the
  // recovery accounting.
  ScenarioConfig walk = fig8(GetParam());
  walk.seed = 4000;
  walk.traffic_ppm = 120.0;
  walk.trace_kind = TraceKind::kRandomWalk;
  walk.trace_seed = 42;
  walk.trace_movers = 4;
  walk.trace_speed_mps = 3.0;
  walk.trace_interval_s = 5.0;
  walk.trace_fail_count = 1;
  walk.trace_fail_at_s = 180.0;  // mid-measurement

  ScenarioConfig crashloop = fig8(GetParam());
  crashloop.seed = 5000;
  crashloop.traffic_ppm = 120.0;
  crashloop.measure = 180_s;
  crashloop.trace_kind = TraceKind::kCrashloop;
  crashloop.trace_seed = 7;
  crashloop.trace_fail_count = 2;
  crashloop.trace_down_s = 20.0;
  crashloop.trace_cycle_s = 90.0;

  for (const ScenarioConfig& sc : {walk, crashloop}) {
    const bool crashes = sc.trace_kind == TraceKind::kCrashloop;
    SCOPED_TRACE(::testing::Message() << GetParam() << (crashes ? " crashloop" : " walk"));
    const ZooModeResult fast = zoo_run(sc, /*per_slot=*/false);
    expect_zoo_identical(fast, zoo_run(sc, /*per_slot=*/true));
    EXPECT_GT(fast.metrics.node_failures, 0u);
    // Crash-looping nodes come back: the reboot path really ran.
    if (crashes) {
      EXPECT_GT(fast.metrics.node_revivals, 0u);
    }
  }
}

TEST_P(SchedulerZoo, OperationalImpliesDedicatedCapacityShape) {
  // The widened introspection interface: after a settled run, every
  // non-root node of a 6P-negotiating SF reports operational() with
  // dedicated Tx capacity; autonomous SFs report operational() from
  // association alone and may run entirely on shared/autonomous cells.
  ScenarioConfig sc = fig8(GetParam());
  sc.dodag_count = 1;  // 7 nodes is enough to settle quickly
  const auto topo = sc.make_topology();
  auto nc = sc.make_node_config();
  Network net(7207, std::make_unique<UnitDiskModel>(40.0, 1.0, 1.6), topo, nc, nullptr);
  net.start();
  net.sim().run_until(300_s);
  ASSERT_TRUE(net.fully_formed()) << GetParam();
  for (const auto& [id, node] : net.nodes()) {
    if (node->is_root()) continue;
    SCOPED_TRACE(::testing::Message() << GetParam() << " node " << id);
    EXPECT_TRUE(node->sf().operational());
    EXPECT_GE(node->sf().dedicated_tx_cells(), 0);
    EXPECT_GE(node->sf().demand_estimate(), 0.0);
    EXPECT_EQ(node->sf().name(), SfRegistry::instance().find(GetParam())->key);
  }
}

INSTANTIATE_TEST_SUITE_P(AllRegisteredSfs, SchedulerZoo,
                         ::testing::ValuesIn(SfRegistry::instance().names()),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           std::string name = info.param;
                           for (char& ch : name)
                             if (ch == '-') ch = '_';
                           return name;
                         });

}  // namespace
}  // namespace gttsch
