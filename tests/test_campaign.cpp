// Campaign-engine tests: grid expansion (full cartesian product, loud
// validation failures), order-independent aggregation, report layout, and
// the determinism contracts — a parallel run produces metrics bit-identical
// to a serial run, merged shards reproduce the unsharded CSV byte for
// byte, --resume re-runs exactly the missing jobs, and adaptive seeding
// stops tight grid points early while noisy ones run to the cap.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <functional>
#include <random>
#include <set>
#include <thread>
#include <type_traits>
#include <utility>
#include <variant>

#include "campaign/journal.hpp"
#include "campaign/report.hpp"
#include "campaign/runner.hpp"
#include "campaign/shard.hpp"
#include "campaign/spec.hpp"

namespace gttsch {
namespace {

using namespace literals;
using campaign::Axis;
using campaign::CampaignSpec;
using campaign::GridPoint;
using campaign::Job;
using campaign::Fold;
using campaign::metric_ref;
using campaign::MetricRow;
using campaign::PointAccumulator;
using campaign::PointAggregate;
using campaign::SampleStats;

// Tiny scenario so the determinism tests stay fast: single DODAG, short
// warmup/measure windows.
ScenarioConfig tiny() {
  ScenarioConfig c;
  c.dodag_count = 1;
  c.nodes_per_dodag = 5;
  c.warmup = 60_s;
  c.measure = 60_s;
  return c;
}

CampaignSpec tiny_spec() {
  CampaignSpec spec;
  spec.base = tiny();
  spec.axes = {{"scheduler", {"gt-tsch", "orchestra"}}, {"traffic_ppm", {"30", "120"}}};
  spec.seeds = {1, 2, 3};
  return spec;
}

// ------------------------------------------------------------------ spec --

TEST(CampaignSpec, GridIsFullCartesianProduct) {
  CampaignSpec spec;
  spec.seeds = {1};
  spec.axes = {{"traffic_ppm", {"30", "75", "120"}},
               {"scheduler", {"gt-tsch", "orchestra"}}};
  std::string error;
  const auto points = campaign::expand_grid(spec, &error);
  ASSERT_EQ(points.size(), 6u) << error;

  // First axis varies slowest; every combination appears exactly once.
  EXPECT_EQ(points[0].label, "traffic_ppm=30 scheduler=gt-tsch");
  EXPECT_EQ(points[1].label, "traffic_ppm=30 scheduler=orchestra");
  EXPECT_EQ(points[5].label, "traffic_ppm=120 scheduler=orchestra");
  EXPECT_DOUBLE_EQ(points[4].config.traffic_ppm, 120.0);
  EXPECT_EQ(points[4].config.scheduler, "gt-tsch");
  EXPECT_EQ(points[5].config.scheduler, "orchestra");
  for (std::size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(points[i].index, i);
    EXPECT_EQ(points[i].coords.size(), 2u);
  }
}

TEST(CampaignSpec, NoAxesYieldsSingleBasePoint) {
  CampaignSpec spec;
  spec.base.traffic_ppm = 42.0;
  spec.seeds = {7};
  std::string error;
  const auto points = campaign::expand_grid(spec, &error);
  ASSERT_EQ(points.size(), 1u);
  EXPECT_DOUBLE_EQ(points[0].config.traffic_ppm, 42.0);
  EXPECT_TRUE(points[0].label.empty());
}

TEST(CampaignSpec, JobsArePointMajorWithSeedsApplied) {
  const CampaignSpec spec = tiny_spec();
  std::string error;
  const auto jobs = campaign::make_jobs(campaign::expand_grid(spec, &error), spec.seeds);
  ASSERT_EQ(jobs.size(), 4u * 3u) << error;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(jobs[i].index, i);
    EXPECT_EQ(jobs[i].point_index, i / 3);
    EXPECT_EQ(jobs[i].seed_index, i % 3);
    EXPECT_EQ(jobs[i].config.seed, spec.seeds[i % 3]);
  }
}

TEST(CampaignSpec, RejectsBadSpecs) {
  std::string error;

  CampaignSpec unknown = tiny_spec();
  unknown.axes.push_back({"warp_factor", {"9"}});
  EXPECT_FALSE(campaign::validate(unknown, &error));
  EXPECT_NE(error.find("warp_factor"), std::string::npos);
  EXPECT_TRUE(campaign::expand_grid(unknown, &error).empty());

  CampaignSpec empty_axis = tiny_spec();
  empty_axis.axes.push_back({"alpha", {}});
  EXPECT_FALSE(campaign::validate(empty_axis, &error));
  EXPECT_NE(error.find("alpha"), std::string::npos);

  CampaignSpec duplicate = tiny_spec();
  duplicate.axes.push_back({"scheduler", {"gt-tsch"}});
  EXPECT_FALSE(campaign::validate(duplicate, &error));
  EXPECT_NE(error.find("twice"), std::string::npos);

  CampaignSpec bad_value = tiny_spec();
  bad_value.axes.push_back({"link_prr", {"0.9", "1.5"}});
  EXPECT_FALSE(campaign::validate(bad_value, &error));
  EXPECT_NE(error.find("link_prr"), std::string::npos);

  CampaignSpec no_seeds = tiny_spec();
  no_seeds.seeds.clear();
  EXPECT_FALSE(campaign::validate(no_seeds, &error));

  CampaignSpec dup_seeds = tiny_spec();
  dup_seeds.seeds = {1, 2, 1};
  EXPECT_FALSE(campaign::validate(dup_seeds, &error));

  EXPECT_TRUE(campaign::validate(tiny_spec(), &error)) << error;
}

TEST(CampaignSpec, ApplyFieldParsesAndRangeChecks) {
  ScenarioConfig c;
  std::string error;
  EXPECT_TRUE(campaign::apply_field(c, "scheduler", "orchestra", &error));
  EXPECT_EQ(c.scheduler, "orchestra");
  EXPECT_TRUE(campaign::apply_field(c, "scheduler", "gt", &error));
  EXPECT_EQ(c.scheduler, "gt-tsch");
  EXPECT_TRUE(campaign::apply_field(c, "gt_slotframe_length", "64", &error));
  EXPECT_EQ(c.gt_slotframe_length, 64);
  EXPECT_TRUE(campaign::apply_field(c, "enforce_interleave", "false", &error));
  EXPECT_FALSE(c.enforce_interleave);
  EXPECT_TRUE(campaign::apply_field(c, "orchestra_channel_hash", "true", &error));
  EXPECT_TRUE(c.orchestra_channel_hash);
  EXPECT_TRUE(campaign::apply_field(c, "warmup_s", "90", &error));
  EXPECT_EQ(c.warmup, 90_s);
  EXPECT_TRUE(campaign::apply_field(c, "measure_s", "1e-6", &error)) << error;
  EXPECT_EQ(c.measure, 1);

  EXPECT_FALSE(campaign::apply_field(c, "scheduler", "tasa", &error));
  EXPECT_FALSE(campaign::apply_field(c, "traffic_ppm", "fast", &error));
  EXPECT_FALSE(campaign::apply_field(c, "dodag_count", "0", &error));
  EXPECT_FALSE(campaign::apply_field(c, "nope", "1", &error));
  // NaN must fail the range check (it would be UB cast to an int field).
  EXPECT_FALSE(campaign::apply_field(c, "dodag_count", "nan", &error));
  EXPECT_FALSE(campaign::apply_field(c, "traffic_ppm", "nan", &error));
  // Seconds fields too: NaN, infinities and values past 1e9 s would make
  // the µs conversion undefined, and a measure window that truncates to
  // 0 µs is as empty as measure_s=0.
  for (const char* bad : {"nan", "inf", "-inf", "1e300", "-1"}) {
    EXPECT_FALSE(campaign::apply_field(c, "warmup_s", bad, &error)) << bad;
  }
  for (const char* bad : {"nan", "inf", "1e300", "0", "1e-9"}) {
    EXPECT_FALSE(campaign::apply_field(c, "measure_s", bad, &error)) << bad;
  }
  EXPECT_EQ(c.warmup, 90_s);
  EXPECT_EQ(c.measure, 1);
  // drain and the per-job seed are envelope-only members.
  EXPECT_FALSE(campaign::apply_field(c, "drain", "1", &error));
  EXPECT_FALSE(campaign::apply_field(c, "seed", "1", &error));
  EXPECT_FALSE(campaign::known_fields().empty());
}

TEST(CampaignSpec, ApplyOverridesTakesOneValuePerKeyOnce) {
  ScenarioConfig c;
  std::string error;
  ASSERT_TRUE(campaign::apply_overrides(c, "alpha=2;warmup_s=60", &error)) << error;
  EXPECT_EQ(c.alpha, 2.0);
  EXPECT_EQ(c.warmup, 60_s);
  EXPECT_TRUE(campaign::apply_overrides(c, "", &error)) << error;

  EXPECT_FALSE(campaign::apply_overrides(c, "alpha=1;alpha=2", &error));
  EXPECT_EQ(error, "alpha: key appears twice");
  EXPECT_FALSE(campaign::apply_overrides(c, "alpha=1,2", &error));
  EXPECT_EQ(error, "alpha: exactly one value expected");
  EXPECT_FALSE(campaign::apply_overrides(c, "alpha", &error));
  EXPECT_FALSE(campaign::apply_overrides(c, "warp_factor=9", &error));
  EXPECT_EQ(error, "unknown field 'warp_factor'");
}

TEST(CampaignSpec, TopologyAxesSweepBuilderKinds) {
  ScenarioConfig c;
  std::string error;
  for (const char* name : {"multi-dodag", "grid", "line", "random-disk"}) {
    EXPECT_TRUE(campaign::apply_field(c, "topology", name, &error)) << error;
    EXPECT_STREQ(topology_name(c.topology), name);
  }
  EXPECT_TRUE(campaign::apply_field(c, "topology_nodes", "200", &error));
  EXPECT_EQ(c.topology_nodes, 200);
  EXPECT_TRUE(campaign::apply_field(c, "disk_radius", "220", &error));
  EXPECT_EQ(c.disk_radius, 220.0);
  // Seeds go through the exact-integer grammar, not strtod.
  EXPECT_TRUE(campaign::apply_field(c, "topology_seed", "9007199254740993", &error));
  EXPECT_EQ(c.topology_seed, 9007199254740993ull);  // 2^53 + 1: double-lossy
  EXPECT_FALSE(campaign::apply_field(c, "topology", "star", &error));
  EXPECT_FALSE(campaign::apply_field(c, "topology_nodes", "0", &error));
  EXPECT_FALSE(campaign::apply_field(c, "topology_seed", "-3", &error));

  // The new fields are campaign axes end to end: a 2x2 grid over topology
  // kind and size expands, and different node counts fingerprint apart.
  CampaignSpec spec;
  spec.seeds = {1};
  ASSERT_TRUE(campaign::parse_grid("topology=grid,line;topology_nodes=50,100",
                                   &spec.axes, &error))
      << error;
  const auto points = campaign::expand_grid(spec, &error);
  ASSERT_EQ(points.size(), 4u) << error;
  CampaignSpec other = spec;
  other.base.disk_radius = 300.0;  // not swept: only the fingerprint sees it
  const auto other_points = campaign::expand_grid(other, &error);
  EXPECT_NE(campaign::campaign_fingerprint(points, spec.seeds),
            campaign::campaign_fingerprint(other_points, other.seeds));
}

TEST(CampaignSpec, ParsesGridAndSeedStrings) {
  std::vector<Axis> axes;
  std::string error;
  ASSERT_TRUE(campaign::parse_grid("traffic_ppm=30,75;scheduler=gt-tsch", &axes, &error))
      << error;
  ASSERT_EQ(axes.size(), 2u);
  EXPECT_EQ(axes[0].field, "traffic_ppm");
  EXPECT_EQ(axes[0].values, (std::vector<std::string>{"30", "75"}));
  EXPECT_EQ(axes[1].values, (std::vector<std::string>{"gt-tsch"}));

  EXPECT_FALSE(campaign::parse_grid("=30", &axes, &error));
  EXPECT_FALSE(campaign::parse_grid("traffic_ppm", &axes, &error));
  EXPECT_FALSE(campaign::parse_grid("traffic_ppm=30,,75", &axes, &error));

  std::vector<std::uint64_t> seeds;
  ASSERT_TRUE(campaign::parse_seeds("1,2,30", &seeds, &error));
  EXPECT_EQ(seeds, (std::vector<std::uint64_t>{1, 2, 30}));
  EXPECT_FALSE(campaign::parse_seeds("1,x", &seeds, &error));
  EXPECT_FALSE(campaign::parse_seeds("", &seeds, &error));
  // No strtoull wraparound: a typo'd negative seed must be rejected, and
  // duplicates would silently bias the stddev/CI.
  EXPECT_FALSE(campaign::parse_seeds("-1", &seeds, &error));
  EXPECT_FALSE(campaign::parse_seeds("1,2,1", &seeds, &error));
}

TEST(CampaignSpec, FingerprintSeesBaseConfigAndSeedChanges) {
  const CampaignSpec spec = tiny_spec();
  std::string error;
  const auto points = campaign::expand_grid(spec, &error);
  ASSERT_FALSE(points.empty()) << error;
  const std::uint64_t fp = campaign::campaign_fingerprint(points, spec.seeds);
  EXPECT_NE(fp, 0u);
  EXPECT_EQ(fp, campaign::campaign_fingerprint(points, spec.seeds));  // stable

  // A base-config change outside the swept axes leaves every label/coord
  // identical; the fingerprint is the only thing that can tell them apart.
  CampaignSpec other = tiny_spec();
  other.base.nodes_per_dodag += 1;
  const auto other_points = campaign::expand_grid(other, &error);
  ASSERT_EQ(other_points.size(), points.size());
  EXPECT_EQ(other_points[0].label, points[0].label);
  EXPECT_NE(campaign::campaign_fingerprint(other_points, other.seeds), fp);

  EXPECT_NE(campaign::campaign_fingerprint(points, {9, 8, 7}), fp);
}

TEST(CampaignSpec, FingerprintCoversEveryField) {
  // Two campaigns differing in ANY config field but the per-job seed must
  // not share a fingerprint — this is what keeps journals from, say,
  // different trace_seeds (identical labels, coords and seeds) from being
  // merged or resumed together. The list is written out by hand so it
  // checks the field table rather than repeating it.
  const CampaignSpec spec = tiny_spec();
  std::string error;
  const auto points = campaign::expand_grid(spec, &error);
  ASSERT_FALSE(points.empty()) << error;
  const std::uint64_t fp = campaign::campaign_fingerprint(points, spec.seeds);

  using Mutation = std::pair<const char*, std::function<void(ScenarioConfig&)>>;
  const std::vector<Mutation> mutations = {
      {"scheduler", [](ScenarioConfig& c) { c.scheduler = "alice"; }},
      {"topology", [](ScenarioConfig& c) { c.topology = TopologyKind::kLine; }},
      {"dodag_count", [](ScenarioConfig& c) { c.dodag_count += 1; }},
      {"nodes_per_dodag", [](ScenarioConfig& c) { c.nodes_per_dodag += 1; }},
      {"hop_distance", [](ScenarioConfig& c) { c.hop_distance += 0.5; }},
      {"topology_nodes", [](ScenarioConfig& c) { c.topology_nodes += 1; }},
      {"disk_radius", [](ScenarioConfig& c) { c.disk_radius += 0.5; }},
      {"topology_seed", [](ScenarioConfig& c) { c.topology_seed += 1; }},
      {"radio_range", [](ScenarioConfig& c) { c.radio_range += 0.5; }},
      {"interference_factor", [](ScenarioConfig& c) { c.interference_factor += 0.1; }},
      {"link_prr", [](ScenarioConfig& c) { c.link_prr = 0.9; }},
      {"traffic_ppm", [](ScenarioConfig& c) { c.traffic_ppm += 1.0; }},
      {"gt_slotframe_length", [](ScenarioConfig& c) { c.gt_slotframe_length += 1; }},
      {"orchestra_unicast_length",
       [](ScenarioConfig& c) { c.orchestra_unicast_length += 1; }},
      {"orchestra_channel_hash",
       [](ScenarioConfig& c) { c.orchestra_channel_hash = !c.orchestra_channel_hash; }},
      {"alice_unicast_length", [](ScenarioConfig& c) { c.alice_unicast_length += 1; }},
      {"emsf_slotframe_length", [](ScenarioConfig& c) { c.emsf_slotframe_length += 1; }},
      {"queue_capacity", [](ScenarioConfig& c) { c.queue_capacity += 1; }},
      {"alpha", [](ScenarioConfig& c) { c.alpha += 0.5; }},
      {"beta", [](ScenarioConfig& c) { c.beta += 0.5; }},
      {"gamma", [](ScenarioConfig& c) { c.gamma += 0.5; }},
      {"enforce_tx_margin",
       [](ScenarioConfig& c) { c.enforce_tx_margin = !c.enforce_tx_margin; }},
      {"enforce_interleave",
       [](ScenarioConfig& c) { c.enforce_interleave = !c.enforce_interleave; }},
      {"warmup_s", [](ScenarioConfig& c) { c.warmup += 1; }},
      {"measure_s", [](ScenarioConfig& c) { c.measure += 1; }},
      {"drain", [](ScenarioConfig& c) { c.drain += 1; }},
      {"trace_kind", [](ScenarioConfig& c) { c.trace_kind = TraceKind::kRandomWalk; }},
      {"trace_seed", [](ScenarioConfig& c) { c.trace_seed = 99; }},
      {"trace_movers", [](ScenarioConfig& c) { c.trace_movers += 1; }},
      {"trace_fail_count", [](ScenarioConfig& c) { c.trace_fail_count += 1; }},
      {"trace_speed_mps", [](ScenarioConfig& c) { c.trace_speed_mps += 0.5; }},
      {"trace_interval_s", [](ScenarioConfig& c) { c.trace_interval_s += 0.5; }},
      {"trace_fail_at_s", [](ScenarioConfig& c) { c.trace_fail_at_s += 1.0; }},
      {"trace_down_s", [](ScenarioConfig& c) { c.trace_down_s += 1.0; }},
      {"trace_cycle_s", [](ScenarioConfig& c) { c.trace_cycle_s += 1.0; }},
      {"trace", [](ScenarioConfig& c) { c.trace = "some/file.trace"; }},
  };
  // Every --set field plus drain, which only the envelope carries.
  EXPECT_EQ(mutations.size(), campaign::known_fields().size() + 1);
  for (const auto& [field, mutate] : mutations) {
    SCOPED_TRACE(field);
    std::vector<campaign::GridPoint> mutated = points;
    for (campaign::GridPoint& p : mutated) mutate(p.config);
    EXPECT_FALSE(mutated[0].config == points[0].config);
    EXPECT_EQ(mutated[0].label, points[0].label);  // axes can't see it
    EXPECT_NE(campaign::campaign_fingerprint(mutated, spec.seeds), fp);
  }
}

TEST(CampaignSpec, FingerprintSeesTraceFileContentNotJustPath) {
  // Editing a trace file between runs must invalidate resume/merge like
  // any config change — the path string alone cannot see it.
  const std::string path = ::testing::TempDir() + "fp_content.trace";
  {
    std::ofstream f(path);
    f << "10 move 2 5 5\n";
  }
  CampaignSpec spec = tiny_spec();
  spec.base.trace_kind = TraceKind::kFile;
  spec.base.trace = path;
  std::string error;
  const auto points = campaign::expand_grid(spec, &error);
  ASSERT_FALSE(points.empty()) << error;
  const std::uint64_t fp = campaign::campaign_fingerprint(points, spec.seeds);
  // The files validation parsed stand in for a second read, same value.
  campaign::TraceFiles files;
  ASSERT_TRUE(campaign::validate_points_trace(points, &error, &files)) << error;
  ASSERT_EQ(files.count(path), 1u);
  EXPECT_EQ(campaign::campaign_fingerprint(points, spec.seeds, &files), fp);

  {
    std::ofstream f(path);
    f << "10 move 2 6 5\n";  // one coordinate differs
  }
  const std::uint64_t fp_edited = campaign::campaign_fingerprint(points, spec.seeds);
  EXPECT_NE(fp_edited, fp);

  {
    std::ofstream f(path);
    f << "# cosmetic rewrite only\n10   move 2 6 5\n";
  }
  // Canonicalized content: comments/whitespace do not break resumability.
  EXPECT_EQ(campaign::campaign_fingerprint(points, spec.seeds), fp_edited);
}

TEST(CampaignSpec, TraceAxesExpandAndValidate) {
  CampaignSpec spec = tiny_spec();
  spec.axes.push_back(
      campaign::Axis{"trace_kind", {"none", "random-walk", "random-waypoint"}});
  spec.axes.push_back(campaign::Axis{"trace_seed", {"1", "2"}});
  std::string error;
  const auto points = campaign::expand_grid(spec, &error);
  // tiny_spec's 2x2 grid times the two trace axes.
  EXPECT_EQ(points.size(), 4u * 3u * 2u) << error;
  EXPECT_TRUE(campaign::validate_points_trace(points, &error)) << error;

  // A generator axis with a bad companion knob fails the pre-run check
  // loudly, naming both the point and the knob.
  CampaignSpec bad = tiny_spec();
  bad.base.trace_interval_s = -1.0;
  bad.axes.push_back(campaign::Axis{"trace_kind", {"none", "random-walk"}});
  const auto bad_points = campaign::expand_grid(bad, &error);
  ASSERT_FALSE(bad_points.empty()) << error;
  EXPECT_FALSE(campaign::validate_points_trace(bad_points, &error));
  EXPECT_NE(error.find("trace_interval_s"), std::string::npos) << error;
}

// ------------------------------------------------------------- aggregate --

TEST(CampaignAggregate, SummarizeMatchesHandComputation) {
  const SampleStats s = campaign::summarize({1.0, 2.0, 3.0, 4.0});
  EXPECT_EQ(s.n, 4u);
  EXPECT_DOUBLE_EQ(s.mean, 2.5);
  EXPECT_NEAR(s.stddev, 1.2909944487358056, 1e-12);
  // t(df=3, 95%) = 3.182; half-width = t * sd / sqrt(4).
  EXPECT_NEAR(s.ci95_half, 3.182 * 1.2909944487358056 / 2.0, 1e-9);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 4.0);

  const SampleStats single = campaign::summarize({5.0});
  EXPECT_EQ(single.n, 1u);
  EXPECT_DOUBLE_EQ(single.mean, 5.0);
  EXPECT_DOUBLE_EQ(single.stddev, 0.0);
  EXPECT_DOUBLE_EQ(single.ci95_half, 0.0);

  EXPECT_EQ(campaign::summarize({}).n, 0u);
}

TEST(CampaignAggregate, TCriticalCoversSmallAndLargeDf) {
  EXPECT_DOUBLE_EQ(campaign::t_critical_95(1), 12.706);
  EXPECT_DOUBLE_EQ(campaign::t_critical_95(4), 2.776);
  EXPECT_DOUBLE_EQ(campaign::t_critical_95(30), 2.042);
  EXPECT_DOUBLE_EQ(campaign::t_critical_95(1000), 1.960);
  EXPECT_DOUBLE_EQ(campaign::t_critical_95(0), 0.0);
}

/// Bit-identical on every kMetricRows row (not merely approximately).
void expect_identical(const PointAggregate& a, const PointAggregate& b) {
  for (const MetricRow& row : campaign::kMetricRows) {
    if (row.fold == Fold::kSpread) {
      const SampleStats& sa = a.*row.stats;
      const SampleStats& sb = b.*row.stats;
      EXPECT_EQ(sa.n, sb.n) << row.name;
      EXPECT_EQ(sa.mean, sb.mean) << row.name;
      EXPECT_EQ(sa.stddev, sb.stddev) << row.name;
      EXPECT_EQ(sa.ci95_half, sb.ci95_half) << row.name;
      EXPECT_EQ(sa.min, sb.min) << row.name;
      EXPECT_EQ(sa.max, sb.max) << row.name;
    }
    std::visit(
        [&](auto member) {
          EXPECT_EQ(metric_ref(a.mean, a.medium_sum, member),
                    metric_ref(b.mean, b.medium_sum, member))
              << row.name;
        },
        row.member);
  }
  EXPECT_EQ(a.runs, b.runs);
  EXPECT_EQ(a.fully_formed_runs, b.fully_formed_runs);
}

ExperimentResult fake_result(double pdr, double delay, std::uint64_t generated) {
  ExperimentResult r;
  r.metrics.pdr_percent = pdr;
  r.metrics.avg_delay_ms = delay;
  r.metrics.generated = generated;
  r.metrics.delivered = generated / 2;
  r.metrics.node_count = 5;
  r.metrics.measure_minutes = 1.0;
  r.medium.transmissions = generated * 3;
  r.fully_formed = pdr > 50.0;
  return r;
}

TEST(CampaignAggregate, MergeIsOrderIndependent) {
  const std::vector<ExperimentResult> results = {
      fake_result(90.0, 100.0, 240), fake_result(80.0, 150.0, 260),
      fake_result(95.5, 90.0, 250), fake_result(40.0, 700.0, 255),
      fake_result(88.25, 120.5, 245)};

  std::vector<std::size_t> order(results.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;

  PointAccumulator in_order;
  for (const std::size_t i : order) in_order.add(i, results[i]);
  const PointAggregate expected = in_order.finalize();

  std::mt19937 shuffler(42);
  for (int round = 0; round < 10; ++round) {
    std::shuffle(order.begin(), order.end(), shuffler);
    PointAccumulator shuffled;
    for (const std::size_t i : order) shuffled.add(i, results[i]);
    const PointAggregate agg = shuffled.finalize();

    expect_identical(agg, expected);
  }
}

TEST(CampaignAggregate, MetricRowsCoverEveryMemberOnce) {
  const RunMetrics metrics;
  const MediumStats medium;
  std::set<std::string> names;
  std::size_t run_metrics_bytes = 0;
  std::size_t medium_bytes = 0;
  std::size_t spread_rows = 0;
  for (const MetricRow& row : campaign::kMetricRows) {
    EXPECT_TRUE(names.insert(row.name).second) << row.name;
    // Member pointers compare only for equality.
    std::size_t same_member = 0;
    std::size_t same_stats = 0;
    for (const MetricRow& other : campaign::kMetricRows) {
      same_member += other.member == row.member ? 1 : 0;
      same_stats += other.stats == row.stats ? 1 : 0;
    }
    EXPECT_EQ(same_member, 1u) << row.name;
    std::visit(
        [&](auto member) {
          (campaign::is_medium(row) ? medium_bytes : run_metrics_bytes) +=
              sizeof metric_ref(metrics, medium, member);
        },
        row.member);
    // Only spread rows name a SampleStats member, each its own.
    EXPECT_EQ(row.fold == Fold::kSpread, row.stats != nullptr) << row.name;
    if (row.stats != nullptr) {
      EXPECT_EQ(same_stats, 1u) << row.name;
      ++spread_rows;
    }
  }
  // Neither struct has padding, so equal byte counts of distinct members
  // mean every member has a row.
  EXPECT_EQ(run_metrics_bytes, sizeof(RunMetrics));
  EXPECT_EQ(medium_bytes, sizeof(MediumStats));
  EXPECT_EQ(campaign::metric_names().size(), spread_rows);
}

TEST(CampaignAggregate, RowsFoldAsTheTableSays) {
  // Row i reads 10i + 7 in seed 0 and i in seed 1: the first is larger,
  // so last, max, sum and mean all differ.
  ExperimentResult first;
  ExperimentResult second;
  std::uint64_t i = 0;
  for (const MetricRow& row : campaign::kMetricRows) {
    ++i;
    std::visit(
        [&](auto member) {
          using T = std::remove_reference_t<decltype(metric_ref(
              first.metrics, first.medium, member))>;
          metric_ref(first.metrics, first.medium, member) = static_cast<T>(10 * i + 7);
          metric_ref(second.metrics, second.medium, member) = static_cast<T>(i);
        },
        row.member);
  }
  PointAccumulator acc;
  acc.add(0, first);
  acc.add(1, second);
  const PointAggregate agg = acc.finalize();
  i = 0;
  for (const MetricRow& row : campaign::kMetricRows) {
    ++i;
    const double a = static_cast<double>(10 * i + 7);
    const double b = static_cast<double>(i);
    const double got = std::visit(
        [&](auto member) {
          return static_cast<double>(metric_ref(agg.mean, agg.medium_sum, member));
        },
        row.member);
    const bool integer =
        !std::holds_alternative<double RunMetrics::*>(row.member);
    switch (row.fold) {
      case Fold::kSpread:
        EXPECT_EQ((agg.*row.stats).mean, (a + b) / 2) << row.name;
        EXPECT_EQ((agg.*row.stats).max, a) << row.name;
        EXPECT_EQ(got, (a + b) / 2) << row.name;
        break;
      case Fold::kMean:  // an integer mean row keeps the seed sum
        EXPECT_EQ(got, integer ? a + b : (a + b) / 2) << row.name;
        break;
      case Fold::kSum: EXPECT_EQ(got, a + b) << row.name; break;
      case Fold::kLast: EXPECT_EQ(got, b) << row.name; break;
      case Fold::kMax: EXPECT_EQ(got, a) << row.name; break;
    }
  }
}

TEST(CampaignAggregate, PackedMeansMatchSerialPerSeedFold) {
  // The accumulator must agree bit-for-bit with the plain serial fold of
  // per-seed runs: fields summed in seed order, means divided once.
  ScenarioConfig c = tiny();
  c.traffic_ppm = 60.0;
  const std::vector<std::uint64_t> seeds = {1, 2};

  RunMetrics sum;
  MediumStats medium_sum;
  for (const std::uint64_t seed : seeds) {
    ScenarioConfig run = c;
    run.seed = seed;
    const ExperimentResult r = run_scenario(run);
    sum.pdr_percent += r.metrics.pdr_percent;
    sum.avg_delay_ms += r.metrics.avg_delay_ms;
    sum.throughput_per_minute += r.metrics.throughput_per_minute;
    sum.generated += r.metrics.generated;
    sum.delivered += r.metrics.delivered;
    medium_sum.transmissions += r.medium.transmissions;
  }
  const double n = static_cast<double>(seeds.size());
  const PointAggregate agg = campaign::run_point(c, seeds);

  EXPECT_EQ(agg.runs, 2);
  EXPECT_EQ(agg.mean.pdr_percent, sum.pdr_percent / n);
  EXPECT_EQ(agg.mean.avg_delay_ms, sum.avg_delay_ms / n);
  EXPECT_EQ(agg.mean.throughput_per_minute, sum.throughput_per_minute / n);
  EXPECT_EQ(agg.mean.generated, sum.generated);  // counters are summed
  EXPECT_EQ(agg.mean.delivered, sum.delivered);
  EXPECT_EQ(agg.medium_sum.transmissions, medium_sum.transmissions);
  EXPECT_GT(agg.medium_sum.transmissions, 0u);
}

// ---------------------------------------------------------------- runner --

TEST(CampaignRunner, ParallelRunMatchesSerialBitForBit) {
  const CampaignSpec spec = tiny_spec();  // 4 points x 3 seeds = 12 jobs
  std::string error;

  campaign::CampaignOptions serial;
  serial.runner.jobs = 1;
  campaign::CampaignResult serial_result;
  ASSERT_TRUE(campaign::run_campaign(spec, serial, &serial_result, &error)) << error;

  campaign::CampaignOptions parallel;
  parallel.runner.jobs = 4;
  campaign::CampaignResult parallel_result;
  ASSERT_TRUE(campaign::run_campaign(spec, parallel, &parallel_result, &error)) << error;

  ASSERT_EQ(serial_result.aggregates.size(), 4u);
  ASSERT_EQ(parallel_result.aggregates.size(), 4u);
  for (std::size_t i = 0; i < serial_result.aggregates.size(); ++i) {
    expect_identical(serial_result.aggregates[i], parallel_result.aggregates[i]);
  }
  EXPECT_FALSE(serial_result.cancelled);
  EXPECT_FALSE(parallel_result.cancelled);
}

TEST(CampaignRunner, ProgressReportsEveryJob) {
  CampaignSpec spec = tiny_spec();
  spec.axes = {{"traffic_ppm", {"30"}}};
  spec.seeds = {1, 2, 3};
  std::string error;
  const auto jobs = campaign::make_jobs(campaign::expand_grid(spec, &error), spec.seeds);
  ASSERT_EQ(jobs.size(), 3u);

  std::vector<std::size_t> completions;
  campaign::RunnerOptions options;
  options.jobs = 2;
  options.on_progress = [&completions](const campaign::Progress& p) {
    completions.push_back(p.completed);
    EXPECT_EQ(p.total, 3u);
    EXPECT_NE(p.job, nullptr);
  };
  campaign::Runner runner(options);
  const auto result = runner.run(jobs);
  EXPECT_EQ(completions.size(), 3u);
  EXPECT_TRUE(std::all_of(result.completed.begin(), result.completed.end(),
                          [](std::uint8_t c) { return c == 1; }));
}

TEST(CampaignRunner, CancelStopsClaimingJobs) {
  CampaignSpec spec = tiny_spec();
  spec.axes = {{"traffic_ppm", {"30"}}};
  spec.seeds = {1, 2, 3, 4, 5, 6};
  std::string error;
  const auto jobs = campaign::make_jobs(campaign::expand_grid(spec, &error), spec.seeds);
  ASSERT_EQ(jobs.size(), 6u);

  // The callback cancels the runner it belongs to; bind via pointer since
  // the runner is constructed after the options.
  campaign::Runner* target = nullptr;
  campaign::RunnerOptions options;
  options.jobs = 1;  // serial: the cancellation point is deterministic
  options.on_progress = [&target](const campaign::Progress& p) {
    if (p.completed == 2) target->cancel();
  };
  campaign::Runner runner(options);
  target = &runner;
  const auto result = runner.run(jobs);
  EXPECT_TRUE(result.cancelled);
  const std::size_t done = static_cast<std::size_t>(
      std::count(result.completed.begin(), result.completed.end(), 1));
  EXPECT_EQ(done, 2u);
}

// ----------------------------------------------------------------- shard --

TEST(CampaignShard, ParsesShardSpecs) {
  campaign::ShardSpec shard;
  std::string error;
  ASSERT_TRUE(campaign::parse_shard("0/4", &shard, &error)) << error;
  EXPECT_EQ(shard.index, 0u);
  EXPECT_EQ(shard.count, 4u);
  ASSERT_TRUE(campaign::parse_shard("3/4", &shard, &error));
  EXPECT_EQ(shard.index, 3u);

  EXPECT_FALSE(campaign::parse_shard("4/4", &shard, &error));
  EXPECT_NE(error.find("out of range"), std::string::npos);
  EXPECT_FALSE(campaign::parse_shard("0/0", &shard, &error));
  EXPECT_FALSE(campaign::parse_shard("1", &shard, &error));
  EXPECT_FALSE(campaign::parse_shard("a/b", &shard, &error));
  EXPECT_FALSE(campaign::parse_shard("-1/2", &shard, &error));
  EXPECT_FALSE(campaign::parse_shard("", &shard, &error));
}

TEST(CampaignShard, JobPartitionIsDisjointAndComplete) {
  const CampaignSpec spec = tiny_spec();  // 4 points x 3 seeds = 12 jobs
  std::string error;
  const auto jobs = campaign::make_jobs(campaign::expand_grid(spec, &error), spec.seeds);
  ASSERT_EQ(jobs.size(), 12u);

  std::vector<int> claimed(jobs.size(), 0);
  for (std::size_t i = 0; i < 3; ++i) {
    std::size_t mine = 0;
    for (const Job& job : jobs) {
      if (campaign::ShardSpec{i, 3}.owns(job.index)) {
        ++claimed[job.index];
        ++mine;
      }
    }
    EXPECT_EQ(mine, 4u);
  }
  EXPECT_TRUE(std::all_of(claimed.begin(), claimed.end(),
                          [](int c) { return c == 1; }));

  // Shard 0/1 is the identity.
  for (const Job& job : jobs) EXPECT_TRUE(campaign::ShardSpec{}.owns(job.index));
}

// Deterministic synthetic experiment for the shard/resume/adaptive tests:
// metrics depend on (scheduler, traffic, seed) through awkward fractions,
// so any serialization or ordering slip breaks byte-equality.
ExperimentResult synthetic_run(const Job& job) {
  const ScenarioConfig& c = job.config;
  ExperimentResult r;
  const double seed = static_cast<double>(c.seed);
  const double scheduler_bias = c.scheduler == "gt-tsch" ? 0.0 : 7.0;
  r.metrics.pdr_percent = 100.0 / 3.0 + seed / 7.0 + c.traffic_ppm / 11.0;
  r.metrics.avg_delay_ms = 100.0 + seed * 1.1 + scheduler_bias;
  r.metrics.p95_delay_ms = 280.0 + seed / 3.0;
  r.metrics.loss_per_minute = seed / 13.0;
  r.metrics.duty_cycle_percent = 10.0 + scheduler_bias / 9.0;
  r.metrics.queue_loss_per_node = 0.25 * seed;
  r.metrics.throughput_per_minute = c.traffic_ppm + seed;
  r.metrics.mean_hops = 2.0 + 1.0 / (seed + 1.0);
  r.metrics.measure_minutes = 5.0;
  r.metrics.generated = 240 + c.seed;
  r.metrics.delivered = 200 + c.seed;
  r.metrics.node_count = 5;
  r.medium.transmissions = 700 + 3 * c.seed;
  r.medium.deliveries = 650 + 2 * c.seed;
  r.fully_formed = true;
  return r;
}

std::string test_file(const char* name) {
  return (std::filesystem::path(::testing::TempDir()) / name).string();
}

TEST(CampaignShard, MergedShardJournalsReproduceUnshardedCsvByteForByte) {
  const CampaignSpec spec = tiny_spec();  // 4 points x 3 seeds = 12 jobs

  campaign::CampaignOptions unsharded;
  unsharded.runner.jobs = 1;
  unsharded.runner.run_job_fn = synthetic_run;
  campaign::CampaignResult reference;
  std::string error;
  ASSERT_TRUE(campaign::run_campaign(spec, unsharded, &reference, &error)) << error;
  const std::string reference_csv = campaign::render_csv(reference.aggregates);

  // Three independent shard processes, each with its own journal.
  std::vector<campaign::JournalRecord> merged_records;
  for (std::size_t i = 0; i < 3; ++i) {
    const std::string journal =
        test_file(("shard_eq_" + std::to_string(i) + ".jsonl").c_str());
    std::filesystem::remove(journal);
    campaign::CampaignOptions options;
    options.runner.jobs = 2;  // exercise parallel completion order too
    options.runner.run_job_fn = synthetic_run;
    options.shard = {i, 3};
    options.journal_path = journal;
    campaign::CampaignResult result;
    ASSERT_TRUE(campaign::run_campaign(spec, options, &result, &error)) << error;
    EXPECT_EQ(result.jobs_run, 4u);

    std::vector<campaign::JournalRecord> records;
    ASSERT_TRUE(campaign::read_journal(journal, &records, &error)) << error;
    EXPECT_EQ(records.size(), 4u);
    merged_records.insert(merged_records.end(), records.begin(), records.end());
  }

  std::vector<campaign::PointAggregate> merged;
  ASSERT_TRUE(campaign::aggregate_records(merged_records, &merged, &error)) << error;
  EXPECT_EQ(campaign::render_csv(merged), reference_csv);
}

// ---------------------------------------------------------------- resume --

TEST(CampaignResume, RerunsExactlyTheMissingJobs) {
  const CampaignSpec spec = tiny_spec();  // n = 12 jobs
  const std::string journal = test_file("resume_count.jsonl");
  std::filesystem::remove(journal);
  std::string error;

  std::atomic<int> invocations{0};
  campaign::CampaignOptions options;
  options.runner.jobs = 1;
  options.runner.run_job_fn = [&invocations](const Job& job) {
    ++invocations;
    return synthetic_run(job);
  };
  options.journal_path = journal;

  campaign::CampaignResult first;
  ASSERT_TRUE(campaign::run_campaign(spec, options, &first, &error)) << error;
  EXPECT_EQ(invocations.load(), 12);
  EXPECT_EQ(first.jobs_run, 12u);
  EXPECT_EQ(first.jobs_skipped, 0u);
  const std::string reference_csv = campaign::render_csv(first.aggregates);

  // Simulate a crash after k = 5 completed jobs: keep the first 5 journal
  // lines plus a truncated 6th (the in-flight write).
  std::vector<std::string> lines;
  {
    std::ifstream in(journal);
    std::string line;
    while (std::getline(in, line)) lines.push_back(line);
  }
  ASSERT_EQ(lines.size(), 12u);
  {
    std::ofstream out(journal, std::ios::trunc);
    for (std::size_t i = 0; i < 5; ++i) out << lines[i] << '\n';
    out << lines[5].substr(0, lines[5].size() / 2);
  }

  invocations = 0;
  options.resume = true;
  campaign::CampaignResult resumed;
  ASSERT_TRUE(campaign::run_campaign(spec, options, &resumed, &error)) << error;
  EXPECT_EQ(invocations.load(), 7);  // exactly n - k
  EXPECT_EQ(resumed.jobs_skipped, 5u);
  EXPECT_EQ(resumed.jobs_run, 7u);
  EXPECT_EQ(campaign::render_csv(resumed.aggregates), reference_csv);

  // A second resume finds everything done and runs nothing.
  invocations = 0;
  campaign::CampaignResult idle;
  ASSERT_TRUE(campaign::run_campaign(spec, options, &idle, &error)) << error;
  EXPECT_EQ(invocations.load(), 0);
  EXPECT_EQ(idle.jobs_skipped, 12u);
  EXPECT_EQ(campaign::render_csv(idle.aggregates), reference_csv);
}

TEST(CampaignResume, RejectsJournalFromADifferentCampaign) {
  const CampaignSpec spec = tiny_spec();
  const std::string journal = test_file("resume_mismatch.jsonl");
  std::filesystem::remove(journal);
  std::string error;

  campaign::CampaignOptions options;
  options.runner.jobs = 1;
  options.runner.run_job_fn = synthetic_run;
  options.journal_path = journal;
  campaign::CampaignResult result;
  ASSERT_TRUE(campaign::run_campaign(spec, options, &result, &error)) << error;

  // Same journal, different grid: labels disagree -> hard error, because
  // silently mixing results from two campaigns would corrupt the stats.
  CampaignSpec other = tiny_spec();
  other.axes = {{"scheduler", {"gt-tsch", "orchestra"}},
                {"traffic_ppm", {"45", "90"}}};
  options.resume = true;
  campaign::CampaignResult mismatched;
  EXPECT_FALSE(campaign::run_campaign(other, options, &mismatched, &error));
  EXPECT_NE(error.find("does not match"), std::string::npos);

  // Changing the seed list is a mismatch too.
  CampaignSpec reseeded = tiny_spec();
  reseeded.seeds = {9, 8, 7};
  EXPECT_FALSE(campaign::run_campaign(reseeded, options, &mismatched, &error));

  // Resume without a journal path is a usage error.
  campaign::CampaignOptions no_path;
  no_path.runner.run_job_fn = synthetic_run;
  no_path.resume = true;
  EXPECT_FALSE(campaign::run_campaign(spec, no_path, &mismatched, &error));
}

TEST(CampaignResume, RejectsJournalFromDifferentBaseConfig) {
  // Same grid, same seeds, different --set base: every label and seed the
  // journal validation compares agrees, so only the campaign fingerprint
  // stops results from a different network being silently reused.
  const CampaignSpec spec = tiny_spec();
  const std::string journal = test_file("resume_base_mismatch.jsonl");
  std::filesystem::remove(journal);
  std::string error;

  campaign::CampaignOptions options;
  options.runner.jobs = 1;
  options.runner.run_job_fn = synthetic_run;
  options.journal_path = journal;
  campaign::CampaignResult result;
  ASSERT_TRUE(campaign::run_campaign(spec, options, &result, &error)) << error;

  CampaignSpec other = tiny_spec();
  other.base.nodes_per_dodag += 1;
  options.resume = true;
  campaign::CampaignResult mismatched;
  EXPECT_FALSE(campaign::run_campaign(other, options, &mismatched, &error));
  EXPECT_NE(error.find("base configuration"), std::string::npos) << error;
}

TEST(CampaignRunner, DeadJournalCancelsInsteadOfBurningTheCampaign) {
  // If the journal dies mid-run (disk full), finishing the remaining jobs
  // only burns compute on results that can no longer be saved: the first
  // failed append must cancel the run, keeping the journaled prefix
  // resumable. /dev/full accepts the open and fails every flush.
  if (!std::filesystem::exists("/dev/full")) {
    GTEST_SKIP() << "/dev/full not available";
  }
  const CampaignSpec spec = tiny_spec();  // 12 jobs
  std::atomic<int> invocations{0};
  campaign::CampaignOptions options;
  options.runner.jobs = 1;  // serial: the cancellation point is deterministic
  options.runner.run_job_fn = [&invocations](const Job& job) {
    ++invocations;
    return synthetic_run(job);
  };
  options.journal_path = "/dev/full";
  campaign::CampaignResult result;
  std::string error;
  EXPECT_FALSE(campaign::run_campaign(spec, options, &result, &error));
  EXPECT_EQ(result.error_kind, campaign::CampaignErrorKind::kIo);
  EXPECT_EQ(invocations.load(), 1);  // stopped after the first failed append
}

TEST(CampaignRunner, CancelMidCampaignKeepsJournalAndFlagsConsistent) {
  // Runner::cancel() mid-campaign: in-flight jobs finish and are journaled,
  // unclaimed jobs never start, and the three books — invocation count,
  // completed flags (via jobs_run), journal records — agree exactly.
  for (const int workers : {1, 4}) {
    const CampaignSpec spec = tiny_spec();  // 12 jobs
    const std::string journal =
        test_file(("cancel_mid_" + std::to_string(workers) + ".jsonl").c_str());
    std::filesystem::remove(journal);

    std::atomic<bool> interrupted{false};
    std::atomic<bool> trigger_armed{true};  // only the first run cancels
    std::atomic<int> invocations{0};
    campaign::CampaignOptions options;
    options.runner.jobs = workers;
    options.runner.cancel_flag = &interrupted;
    options.runner.run_job_fn = [&invocations, &interrupted, &trigger_armed,
                             workers](const Job& job) {
      // Parallel leg: hold every job after the third until the cancel
      // lands, so the workers cannot claim all 12 instant jobs before the
      // flag flips.
      if (++invocations > 3 && workers > 1 && trigger_armed.load()) {
        while (!interrupted.load()) std::this_thread::yield();
      }
      return synthetic_run(job);
    };
    options.runner.on_progress = [&interrupted,
                                  &trigger_armed](const campaign::Progress& p) {
      if (trigger_armed.load() && p.completed == 3) interrupted.store(true);
    };
    options.journal_path = journal;

    campaign::CampaignResult result;
    std::string error;
    ASSERT_TRUE(campaign::run_campaign(spec, options, &result, &error)) << error;
    EXPECT_TRUE(result.cancelled);
    // Every claimed job ran to completion; nothing was claimed after the
    // flag flipped (serial: exactly 3; parallel: the other workers'
    // in-flight jobs finish too, but nothing new starts, so < 12).
    EXPECT_GE(result.jobs_run, 3u);
    EXPECT_LT(result.jobs_run, 12u);
    if (workers == 1) {
      EXPECT_EQ(result.jobs_run, 3u);
    }
    EXPECT_EQ(static_cast<std::size_t>(invocations.load()), result.jobs_run);

    std::vector<campaign::JournalRecord> records;
    ASSERT_TRUE(campaign::read_journal(journal, &records, &error)) << error;
    EXPECT_EQ(records.size(), result.jobs_run);
    std::set<std::pair<std::size_t, std::size_t>> seen;
    for (const campaign::JournalRecord& r : records) {
      EXPECT_TRUE(seen.emplace(r.point_index, r.seed_index).second);
      EXPECT_EQ(r.status, campaign::JobStatus::kOk);
    }

    // The journaled prefix resumes cleanly: exactly the rest runs.
    trigger_armed.store(false);
    interrupted.store(false);
    invocations = 0;
    options.resume = true;
    campaign::CampaignResult resumed;
    ASSERT_TRUE(campaign::run_campaign(spec, options, &resumed, &error)) << error;
    EXPECT_EQ(resumed.jobs_skipped, records.size());
    EXPECT_EQ(resumed.jobs_run, 12u - records.size());
  }
}

// -------------------------------------------------------------- adaptive --

TEST(CampaignAdaptive, TightPointStopsEarlyAndNoisyPointHitsCap) {
  CampaignSpec spec;
  spec.base = tiny();
  spec.axes = {{"traffic_ppm", {"30", "120"}}};
  spec.seeds = {1, 2, 3};  // adaptive may extend beyond the base list

  std::atomic<int> invocations{0};
  campaign::CampaignOptions options;
  options.runner.jobs = 1;
  options.runner.run_job_fn = [&invocations](const Job& job) {
    ++invocations;
    ExperimentResult r = synthetic_run(job);
    if (job.config.traffic_ppm < 100.0) {
      r.metrics.pdr_percent = 90.0;  // zero variance: CI collapses immediately
    } else {
      // Alternating 10/90: the relative CI half-width stays far above any
      // reasonable threshold, so the point must run to the cap.
      r.metrics.pdr_percent = (job.config.seed % 2 == 0) ? 10.0 : 90.0;
    }
    return r;
  };
  options.adaptive.ci_rel = 0.2;
  options.adaptive.min_seeds = 3;
  options.adaptive.max_seeds = 10;
  options.adaptive.batch = 2;
  options.adaptive.metric = "pdr_percent";

  campaign::CampaignResult result;
  std::string error;
  ASSERT_TRUE(campaign::run_campaign(spec, options, &result, &error)) << error;
  ASSERT_EQ(result.aggregates.size(), 2u);
  EXPECT_EQ(result.aggregates[0].runs, 3);   // stopped at min_seeds
  EXPECT_EQ(result.aggregates[1].runs, 10);  // ran to --max-seeds
  EXPECT_EQ(invocations.load(), 13);
  EXPECT_EQ(result.jobs_run, 13u);
  EXPECT_DOUBLE_EQ(result.aggregates[0].pdr_percent.stddev, 0.0);

  // Unknown metric fails loudly instead of never stopping.
  options.adaptive.metric = "warp_speed";
  EXPECT_FALSE(campaign::run_campaign(spec, options, &result, &error));
  EXPECT_NE(error.find("warp_speed"), std::string::npos);
}

TEST(CampaignAdaptive, JobIndexIsPointMajorOverTheExtendedSeedList) {
  // Job::index is point_index * #seeds + seed_index in adaptive mode too,
  // with #seeds the extended seed list, not the job's place in its wave.
  CampaignSpec spec;
  spec.base = tiny();
  spec.axes = {{"traffic_ppm", {"30", "120"}}};
  spec.seeds = {1, 2, 3};
  std::string error;
  const std::vector<campaign::GridPoint> points = campaign::expand_grid(spec, &error);
  ASSERT_EQ(points.size(), 2u) << error;
  const std::vector<std::uint64_t> seeds = campaign::extend_seeds(spec.seeds, 5);

  std::vector<Job> seen;
  campaign::CampaignOptions options;
  options.runner.jobs = 1;
  options.runner.run_job_fn = [&seen](const Job& job) {
    seen.push_back(job);
    ExperimentResult r = synthetic_run(job);
    r.metrics.pdr_percent = (job.seed_index % 2 == 0) ? 10.0 : 90.0;  // never converges
    return r;
  };
  options.adaptive.ci_rel = 0.01;
  options.adaptive.min_seeds = 2;
  options.adaptive.max_seeds = 5;
  options.adaptive.batch = 2;
  campaign::CampaignResult result;
  ASSERT_TRUE(campaign::run_points_campaign(points, spec.seeds, options, &result,
                                            &error))
      << error;
  ASSERT_EQ(seen.size(), 10u);  // both points run to the cap over three waves
  std::set<std::size_t> indices;
  for (const Job& job : seen) {
    EXPECT_EQ(job.index, job.point_index * seeds.size() + job.seed_index);
    EXPECT_EQ(job.config.seed, seeds[job.seed_index]);
    indices.insert(job.index);
  }
  EXPECT_EQ(indices.size(), seen.size());
}

TEST(CampaignAdaptive, RejectsResumeJournalSeedsBeyondMaxSeeds) {
  // A fixed-seed run journals 5 seeds per point; resuming that journal
  // adaptively with --max-seeds 3 leaves seed #3/#4 no slot in the
  // adaptive bookkeeping. That must be a loud mismatch error — writing
  // them through would index past the per-point `done` rows (heap OOB).
  CampaignSpec spec;
  spec.base = tiny();
  spec.axes = {{"traffic_ppm", {"30"}}};
  spec.seeds = {1, 2, 3, 4, 5};

  const std::string journal = test_file("adaptive_cap.jsonl");
  std::filesystem::remove(journal);
  std::string error;

  campaign::CampaignOptions fixed;
  fixed.runner.jobs = 1;
  fixed.runner.run_job_fn = synthetic_run;
  fixed.journal_path = journal;
  campaign::CampaignResult first;
  ASSERT_TRUE(campaign::run_campaign(spec, fixed, &first, &error)) << error;
  EXPECT_EQ(first.jobs_run, 5u);

  campaign::CampaignOptions adaptive = fixed;
  adaptive.resume = true;
  adaptive.adaptive.ci_rel = 0.2;
  adaptive.adaptive.max_seeds = 3;
  campaign::CampaignResult resumed;
  EXPECT_FALSE(campaign::run_campaign(spec, adaptive, &resumed, &error));
  EXPECT_NE(error.find("seed cap"), std::string::npos) << error;

  // With a cap that covers the journal, the same resume is satisfied.
  adaptive.adaptive.max_seeds = 5;
  ASSERT_TRUE(campaign::run_campaign(spec, adaptive, &resumed, &error)) << error;
  EXPECT_EQ(resumed.jobs_skipped, 5u);
}

TEST(CampaignAdaptive, ResumedAdaptiveCampaignRunsNothingWhenConverged) {
  CampaignSpec spec;
  spec.base = tiny();
  spec.axes = {{"traffic_ppm", {"30"}}};
  spec.seeds = {1, 2, 3};

  const std::string journal = test_file("adaptive_resume.jsonl");
  std::filesystem::remove(journal);

  std::atomic<int> invocations{0};
  campaign::CampaignOptions options;
  options.runner.jobs = 1;
  options.runner.run_job_fn = [&invocations](const Job& job) {
    ++invocations;
    ExperimentResult r = synthetic_run(job);
    r.metrics.pdr_percent = 90.0;
    return r;
  };
  options.adaptive.ci_rel = 0.2;
  options.adaptive.max_seeds = 10;
  options.journal_path = journal;

  campaign::CampaignResult first;
  std::string error;
  ASSERT_TRUE(campaign::run_campaign(spec, options, &first, &error)) << error;
  EXPECT_EQ(invocations.load(), 3);

  invocations = 0;
  options.resume = true;
  campaign::CampaignResult resumed;
  ASSERT_TRUE(campaign::run_campaign(spec, options, &resumed, &error)) << error;
  EXPECT_EQ(invocations.load(), 0);  // already converged; journal satisfies it
  EXPECT_EQ(resumed.aggregates[0].runs, 3);
}

TEST(CampaignAdaptive, ShardedResumeCountsOnlyThisShardsSkippedJobs) {
  // jobs_skipped feeds the "[campaign] resumed: N jobs from journal" line
  // that scripts (and the CI smoke job) grep; like fixed mode, it must
  // count only this shard's jobs even when the journal carries other
  // shards' records (e.g. a shared filesystem journal).
  CampaignSpec spec;
  spec.base = tiny();
  spec.axes = {{"traffic_ppm", {"30", "120"}}};
  spec.seeds = {1, 2, 3};

  const std::string journal = test_file("adaptive_shard_resume.jsonl");
  std::filesystem::remove(journal);
  std::string error;

  std::atomic<int> invocations{0};
  campaign::CampaignOptions options;
  options.runner.jobs = 1;
  options.runner.run_job_fn = [&invocations](const Job& job) {
    ++invocations;
    ExperimentResult r = synthetic_run(job);
    r.metrics.pdr_percent = 90.0;  // zero variance: stop at min_seeds
    return r;
  };
  options.adaptive.ci_rel = 0.2;
  options.adaptive.max_seeds = 10;
  options.journal_path = journal;

  // Unsharded pass journals min_seeds = 3 records for each of the 2 points.
  campaign::CampaignResult first;
  ASSERT_TRUE(campaign::run_campaign(spec, options, &first, &error)) << error;
  EXPECT_EQ(invocations.load(), 6);

  invocations = 0;
  options.resume = true;
  options.shard = {0, 2};
  campaign::CampaignResult resumed;
  ASSERT_TRUE(campaign::run_campaign(spec, options, &resumed, &error)) << error;
  EXPECT_EQ(invocations.load(), 0);
  EXPECT_EQ(resumed.jobs_skipped, 3u);  // this shard's point only, not all 6
}

// ----------------------------------------------------------------- flags --

bool parse_flags(std::vector<const char*> args, campaign::CampaignOptions* options,
                 std::string* error) {
  args.insert(args.begin(), "prog");
  Flags flags(static_cast<int>(args.size()), const_cast<char**>(args.data()));
  return campaign::parse_campaign_flags(flags, options, error);
}

TEST(CampaignFlags, ValidatesCountFlags) {
  campaign::CampaignOptions options;
  std::string error;
  ASSERT_TRUE(parse_flags({"--jobs=3", "--ci-rel=0.1", "--max-seeds=50",
                           "--min-seeds=5", "--batch=4"},
                          &options, &error))
      << error;
  EXPECT_EQ(options.runner.jobs, 3);
  EXPECT_EQ(options.adaptive.max_seeds, 50u);
  EXPECT_EQ(options.adaptive.min_seeds, 5u);
  EXPECT_EQ(options.adaptive.batch, 4u);

  // A negative count must be a usage error naming the flag — cast to
  // size_t it would wrap to ~2^64 and send extend_seeds toward OOM.
  options = {};
  EXPECT_FALSE(parse_flags({"--ci-rel=0.1", "--max-seeds=-1"}, &options, &error));
  EXPECT_NE(error.find("max-seeds"), std::string::npos) << error;
  // Non-numeric values must not silently parse as 0 via strtoll.
  options = {};
  EXPECT_FALSE(parse_flags({"--ci-rel=0.1", "--max-seeds=abc"}, &options, &error));
  EXPECT_NE(error.find("abc"), std::string::npos) << error;
  options = {};
  EXPECT_FALSE(parse_flags({"--ci-rel=0.1", "--min-seeds=-3"}, &options, &error));
  options = {};
  EXPECT_FALSE(parse_flags({"--ci-rel=0.1", "--batch=2.5"}, &options, &error));
  options = {};
  EXPECT_FALSE(parse_flags({"--jobs=-4"}, &options, &error));
  EXPECT_NE(error.find("jobs"), std::string::npos) << error;
  // Large values are bounded where the per-seed bookkeeping they authorize
  // is still affordable — not merely below integer wraparound.
  options = {};
  EXPECT_FALSE(
      parse_flags({"--ci-rel=0.1", "--max-seeds=999999999"}, &options, &error));
  EXPECT_NE(error.find("no greater than"), std::string::npos) << error;
  options = {};
  EXPECT_FALSE(
      parse_flags({"--ci-rel=0.1", "--max-seeds=99999999999999999999"}, &options,
                  &error));
}

TEST(CampaignFlags, FaultFlagsRequireIsolate) {
  // Only an isolated job can fail or time out, so without --isolate a
  // --retries or --job-timeout would be a silent no-op; each must error
  // out loudly like the adaptive-only flags without --ci-rel.
  campaign::CampaignOptions options;
  std::string error;
  EXPECT_FALSE(parse_flags({"--retries=2"}, &options, &error));
  EXPECT_NE(error.find("retries"), std::string::npos) << error;
  options = {};
  EXPECT_FALSE(parse_flags({"--job-timeout=5"}, &options, &error));
  EXPECT_NE(error.find("job-timeout"), std::string::npos) << error;
  options = {};
  EXPECT_FALSE(parse_flags({"--job-timeout=5", "--retries=1"}, &options, &error));

  options = {};
  ASSERT_TRUE(parse_flags({"--isolate", "--retries=2"}, &options, &error))
      << error;
  EXPECT_EQ(options.runner.retries, 2);

  options = {};
  ASSERT_TRUE(parse_flags({"--isolate", "--job-timeout=5", "--retries=1"},
                          &options, &error))
      << error;
  EXPECT_EQ(options.runner.retries, 1);
  EXPECT_EQ(options.fault.job_timeout_s, 5.0);

  // The deadline must stay a finite, representable wall-clock budget.
  for (const char* bad : {"--job-timeout=nan", "--job-timeout=inf",
                          "--job-timeout=1e300", "--job-timeout=1e-7",
                          "--job-timeout=abc", "--job-timeout=0"}) {
    options = {};
    EXPECT_FALSE(parse_flags({"--isolate", bad}, &options, &error)) << bad;
    EXPECT_NE(error.find("job-timeout"), std::string::npos) << error;
  }
}

TEST(CampaignFlags, BareJournalAndResumeRequirePaths) {
  // A value-less flag parses as the string "true"; without the guard the
  // campaign would silently journal to a file literally named 'true'.
  campaign::CampaignOptions options;
  std::string error;
  EXPECT_FALSE(parse_flags({"--journal"}, &options, &error));
  EXPECT_NE(error.find("journal path"), std::string::npos) << error;
  EXPECT_TRUE(options.journal_path.empty());
  options = {};
  EXPECT_FALSE(parse_flags({"--journal", "--quiet"}, &options, &error));
  options = {};
  EXPECT_FALSE(parse_flags({"--resume"}, &options, &error));
  EXPECT_NE(error.find("journal path"), std::string::npos) << error;
  options = {};
  ASSERT_TRUE(parse_flags({"--journal=j.jsonl"}, &options, &error)) << error;
  EXPECT_EQ(options.journal_path, "j.jsonl");
}

// ---------------------------------------------------------------- report --

TEST(CampaignReport, CsvRowsMatchHeaderWidth) {
  PointAccumulator acc;
  ExperimentResult a = fake_result(90.0, 100.0, 240);
  a.metrics.nodes_joined = 5;
  ExperimentResult b = fake_result(80.0, 150.0, 260);
  b.metrics.nodes_joined = 4;
  acc.add(0, a);
  acc.add(1, b);
  PointAggregate agg = acc.finalize();
  agg.label = "traffic_ppm=30";
  agg.coords = {{"traffic_ppm", "30"}};

  const std::vector<PointAggregate> aggregates{agg};
  const auto header = campaign::csv_header(aggregates);
  const auto row = campaign::csv_row(agg);
  EXPECT_EQ(header.size(), row.size());
  EXPECT_EQ(header.front(), "label");
  EXPECT_EQ(header[1], "traffic_ppm");
  EXPECT_EQ(row[1], "30");
  // nodes_joined is reported as the mean over the point's seeds.
  const auto joined = std::find(header.begin(), header.end(), "nodes_joined");
  ASSERT_NE(joined, header.end());
  EXPECT_EQ(row[static_cast<std::size_t>(joined - header.begin())], "4.5");
}

TEST(CampaignReport, CsvQuotesCellsWithCommasAndQuotes) {
  // A trace path may hold a comma or a quote; the cell is quoted and its
  // quotes doubled (RFC 4180), so the row keeps its width.
  PointAggregate agg;
  agg.label = "trace=a,b.trace";
  agg.coords = {{"trace", "quote\"d"}};
  const std::string csv = campaign::render_csv({agg});
  const std::string expected = "\"trace=a,b.trace\",\"quote\"\"d\",";
  EXPECT_EQ(csv.substr(csv.find('\n') + 1, expected.size()), expected);
}

TEST(CampaignReport, CsvHeaderIsPinned) {
  // The report's column names are its interface: a renamed, dropped or
  // reordered kMetricRows row shows up here.
  PointAggregate agg;
  agg.coords = {{"scheduler", "gt-tsch"}};
  std::vector<std::string> expected = {"label", "scheduler", "runs", "fully_formed_runs",
                                       "status", "failed_jobs", "failure_kinds"};
  for (const char* spread :
       {"pdr_percent", "avg_delay_ms", "p95_delay_ms", "loss_per_minute",
        "duty_cycle_percent", "queue_loss_per_node", "throughput_per_minute",
        "mean_hops", "pre_pdr_percent", "churn_pdr_percent", "post_pdr_percent",
        "probe_pdr_percent", "probe_avg_latency_ms", "recovery_rejoin_s",
        "recovery_first_delivery_s", "recovery_ttr_s"}) {
    for (const char* suffix : {"_mean", "_stddev", "_ci95"}) {
      expected.push_back(std::string(spread) + suffix);
    }
  }
  for (const char* total :
       {"measure_minutes", "pre_avg_delay_ms", "churn_avg_delay_ms",
        "post_avg_delay_ms", "generated", "delivered", "queue_drops", "mac_drops",
        "no_route_drops", "nodes_joined", "node_count", "churn_phases", "pre_generated",
        "churn_generated", "post_generated", "pre_delivered", "churn_delivered",
        "post_delivered", "probes_sent", "probes_delivered", "node_failures",
        "node_revivals", "node_rejoins", "orphan_intervals", "recovery_ttr_censored",
        "medium_transmissions", "medium_deliveries", "medium_collision_losses",
        "medium_prr_losses"}) {
    expected.push_back(total);
  }
  EXPECT_EQ(campaign::csv_header({agg}), expected);
}

TEST(CampaignReport, JsonCarriesLabelsAndSpread) {
  PointAccumulator acc;
  acc.add(0, fake_result(90.0, 100.0, 240));
  acc.add(1, fake_result(80.0, 150.0, 260));
  PointAggregate agg = acc.finalize();
  agg.label = "scheduler=gt-tsch";
  agg.coords = {{"scheduler", "gt-tsch"}};

  const std::string json = campaign::render_json({agg});
  EXPECT_NE(json.find("\"label\": \"scheduler=gt-tsch\""), std::string::npos);
  EXPECT_NE(json.find("\"pdr_percent\""), std::string::npos);
  EXPECT_NE(json.find("\"stddev\""), std::string::npos);
  EXPECT_NE(json.find("\"runs\": 2"), std::string::npos);
}

TEST(CampaignReport, SingleSeedRoundTripHasZeroStddevAndBlankCi95) {
  // Full journal round trip at n == 1 — the degenerate-statistics seam: a
  // single run has no sample variance (df = 0), so the aggregate must
  // report stddev exactly 0 and *no* confidence interval — a blank CSV
  // cell and a JSON null, never a division-by-zero artifact (NaN/inf
  // would poison downstream tooling that parses the report).
  CampaignSpec spec = tiny_spec();
  spec.seeds = {42};  // one seed: every point aggregates exactly one run

  const std::string journal = test_file("single_seed_roundtrip.jsonl");
  std::filesystem::remove(journal);
  campaign::CampaignOptions options;
  options.runner.jobs = 1;
  options.runner.run_job_fn = synthetic_run;
  options.journal_path = journal;
  campaign::CampaignResult result;
  std::string error;
  ASSERT_TRUE(campaign::run_campaign(spec, options, &result, &error)) << error;

  // journal -> aggregate
  std::vector<campaign::JournalRecord> records;
  ASSERT_TRUE(campaign::read_journal(journal, &records, &error)) << error;
  EXPECT_EQ(records.size(), 4u);  // 4 points x 1 seed
  std::vector<campaign::PointAggregate> aggregates;
  ASSERT_TRUE(campaign::aggregate_records(records, &aggregates, &error)) << error;
  ASSERT_EQ(aggregates.size(), 4u);
  for (const campaign::PointAggregate& agg : aggregates) {
    EXPECT_EQ(agg.pdr_percent.n, 1u);
    EXPECT_DOUBLE_EQ(agg.pdr_percent.stddev, 0.0);
    EXPECT_DOUBLE_EQ(agg.pdr_percent.ci95_half, 0.0);
    EXPECT_DOUBLE_EQ(agg.avg_delay_ms.stddev, 0.0);
    EXPECT_DOUBLE_EQ(agg.avg_delay_ms.ci95_half, 0.0);
  }

  // aggregate -> CSV: every *_ci95 cell is empty, stddev cells are "0".
  const auto header = campaign::csv_header(aggregates);
  const auto row = campaign::csv_row(aggregates.front());
  ASSERT_EQ(header.size(), row.size());
  std::size_t ci95_columns = 0;
  for (std::size_t i = 0; i < header.size(); ++i) {
    if (header[i].size() > 5 && header[i].substr(header[i].size() - 5) == "_ci95") {
      ++ci95_columns;
      EXPECT_TRUE(row[i].empty()) << header[i] << " = '" << row[i] << "'";
    }
    if (header[i].size() > 7 &&
        header[i].substr(header[i].size() - 7) == "_stddev") {
      EXPECT_EQ(std::stod(row[i]), 0.0) << header[i];
    }
  }
  EXPECT_GT(ci95_columns, 0u);

  // aggregate -> JSON: ci95 renders as null, and no NaN leaks anywhere.
  const std::string json = campaign::render_json(aggregates);
  EXPECT_NE(json.find("\"ci95\": null"), std::string::npos);
  EXPECT_EQ(json.find("nan"), std::string::npos);
  EXPECT_EQ(json.find("inf"), std::string::npos);
}

}  // namespace
}  // namespace gttsch
