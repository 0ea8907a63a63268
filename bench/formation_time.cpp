// Bench: network-formation dynamics (the concern of Vallati et al. [32],
// discussed in the paper's related work). Measures, for every scheduler
// in the SfRegistry zoo, when every node has (a) associated to TSCH,
// (b) acquired an RPL parent, and (c) reached SchedulingFunction::
// operational() (GT-TSCH: the 6P bootstrap; e-MSF: the first negotiated
// cell; autonomous SFs: association).
//
// Runs on the campaign engine, so it speaks the full scale-out flag set
// shared with the figure benches (see figure_common.hpp / ROADMAP):
//   --jobs N, --seeds LIST, --out PREFIX, --shard i/N,
//   --journal PATH, --resume PATH, --ci-rel FRAC (+ --min-seeds/
//   --max-seeds/--batch/--metric), --set "field=v;..." (base-config
//   overrides, e.g. trace_kind=random-walk for formation under mobility)
// Journal/CSV metric mapping (formation seconds ride in the panel slots):
//   pdr_percent <- assoc_s, avg_delay_ms <- joined_s,
//   p95_delay_ms <- operational_s; 600 = never (budget).
#include <cstdio>
#include <string>
#include <vector>

#include "campaign/report.hpp"
#include "campaign/runner.hpp"
#include "figure_common.hpp"
#include "scenario/experiment.hpp"
#include "scenario/network.hpp"
#include "sixp/sf_registry.hpp"
#include "stats/telemetry.hpp"
#include "util/flags.hpp"
#include "util/table.hpp"

namespace {

using namespace gttsch;
using namespace gttsch::literals;

constexpr double kBudgetSeconds = 600;

struct FormationResult {
  double assoc_s = -1;        ///< last node associated
  double joined_s = -1;       ///< last node joined RPL
  double operational_s = -1;  ///< last node's SF operational()
  bool formed = false;
};

FormationResult measure(const ScenarioConfig& sc) {
  // The config's own topology and trace (--set trace_kind=... measures
  // formation under churn). The trace window covers the whole formation
  // budget, not the paper's warmup/measure split.
  ScenarioConfig config = sc;
  config.warmup = 0;
  config.measure = static_cast<TimeUs>(kBudgetSeconds) * 1000000;
  ScenarioRunOptions options;
  options.edit_node_config = [](NodeStackConfig& nc) {
    nc.app_rate_ppm = 0.0;  // formation only
  };
  ScenarioRun run(config, options);
  run.start();
  Network& net = run.network();

  // Stage counts ride the shared Timeline sampler (stats/telemetry.hpp) at
  // 1 Hz — the same engine Telemetry drives for its JSONL gauge samples.
  const auto count_non_roots = [&net](auto pred) {
    double n = 0;
    for (const auto& [id, node] : net.nodes()) {
      if (!node->is_root() && pred(*node)) n += 1;
    }
    return n;
  };
  const double total = count_non_roots([](Node&) { return true; });
  Timeline sampler(net.sim(), 1_s);
  sampler.add_gauge("assoc", [&count_non_roots] {
    return count_non_roots([](Node& n) { return n.mac().associated(); });
  });
  sampler.add_gauge("joined", [&count_non_roots] {
    return count_non_roots([](Node& n) { return n.rpl().joined(); });
  });
  // The common-interface stage: associated AND the SF reports itself
  // operational (autonomous SFs: immediately; 6P SFs: after bootstrap).
  sampler.add_gauge("operational", [&count_non_roots] {
    return count_non_roots(
        [](Node& n) { return n.mac().associated() && n.sf().operational(); });
  });
  sampler.start();

  FormationResult r;
  for (int t = 1; t <= static_cast<int>(kBudgetSeconds); ++t) {
    run.step_until(static_cast<TimeUs>(t) * 1000000);
    if (r.assoc_s < 0 && sampler.latest("assoc") == total) r.assoc_s = t;
    if (r.joined_s < 0 && sampler.latest("joined") == total) r.joined_s = t;
    if (r.operational_s < 0 && sampler.latest("operational") == total)
      r.operational_s = t;
    if (r.joined_s >= 0 && r.operational_s >= 0) {
      r.formed = true;
      break;
    }
  }
  return r;
}

/// Campaign job: formation seconds packed into the panel-metric slots (see
/// file header) so journaling, sharded merge, and adaptive CI stopping all
/// work unchanged.
ExperimentResult run_formation_job(const campaign::Job& job) {
  const FormationResult r = measure(job.config);
  ExperimentResult out;
  out.metrics.pdr_percent = r.assoc_s > 0 ? r.assoc_s : kBudgetSeconds;
  out.metrics.avg_delay_ms = r.joined_s > 0 ? r.joined_s : kBudgetSeconds;
  // A run that never got every SF operational charges the full budget so
  // bootstrap failures cannot average (or CI-converge) toward zero.
  out.metrics.p95_delay_ms = r.operational_s > 0 ? r.operational_s : kBudgetSeconds;
  out.metrics.node_count = static_cast<std::uint64_t>(job.config.nodes_per_dodag);
  out.fully_formed = r.formed;
  return out;
}

std::vector<campaign::GridPoint> formation_grid() {
  // The scheduler axis is the registry, not a hard-coded pair: a newly
  // registered SF shows up in this bench with zero edits here.
  std::vector<campaign::GridPoint> grid;
  for (const int nodes : {4, 7, 9}) {
    for (const std::string& scheduler : SfRegistry::instance().names()) {
      campaign::GridPoint g;
      g.index = grid.size();
      g.label = "nodes=" + std::to_string(nodes) + " scheduler=" + scheduler;
      g.coords = {{"nodes", std::to_string(nodes)}, {"scheduler", scheduler}};
      g.config.scheduler = scheduler;
      g.config.dodag_count = 1;
      g.config.nodes_per_dodag = nodes;
      g.config.traffic_ppm = 0.0;
      grid.push_back(std::move(g));
    }
  }
  return grid;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  std::string error;

  campaign::CampaignOptions options;
  std::vector<std::uint64_t> seeds = {500, 507, 514};
  if (flags.has("seeds")) {
    if (!campaign::parse_seeds(flags.get("seeds", ""), &seeds, &error)) {
      std::fprintf(stderr, "formation_time: --seeds: %s\n", error.c_str());
      return 2;
    }
  }
  if (!campaign::parse_campaign_flags(flags, &options, &error)) {
    std::fprintf(stderr, "formation_time: %s\n", error.c_str());
    return 2;
  }
  std::vector<campaign::GridPoint> grid = formation_grid();
  // Base-config overrides (the gt_campaign --set grammar) — e.g.
  // trace_kind=random-walk to measure formation under mobility, or
  // radio_range/hop_distance to stress the geometry. Read before the
  // unknown-flag check so --set registers as a known flag.
  const std::string overrides = flags.get("set", "");
  for (campaign::GridPoint& point : grid) {
    if (!campaign::apply_overrides(point.config, overrides, &error)) {
      std::fprintf(stderr, "formation_time: --set: %s\n", error.c_str());
      return 2;
    }
  }

  const std::string out_prefix = flags.get("out", "");
  for (const std::string& flag : flags.unknown()) {
    std::fprintf(stderr, "formation_time: unknown flag --%s\n", flag.c_str());
    return 2;
  }
  options.runner.run_job_fn = run_formation_job;
  campaign::CampaignResult result;
  if (!campaign::run_points_campaign(grid, seeds, options, &result, &error)) {
    std::fprintf(stderr, "formation_time: %s\n", error.c_str());
    return result.error_kind == campaign::CampaignErrorKind::kIo ? 1 : 2;
  }
  if (result.jobs_skipped > 0) {
    std::fprintf(stderr, "[bench] resumed: %zu jobs from journal, %zu run now\n",
                 result.jobs_skipped, result.jobs_run);
  }

  std::printf("Formation time (s until the LAST node reaches each stage; "
              "<=%d s budget; mean ±stddev over seeds)\n\n",
              static_cast<int>(kBudgetSeconds));
  auto cell = [](const campaign::SampleStats& s, bool applicable = true) {
    if (!applicable || s.n == 0) return std::string("-");  // other shard / Orchestra
    std::string text = TablePrinter::num(s.mean, 1);
    if (s.n > 1) text += " ±" + TablePrinter::num(s.stddev, 1);
    return text;
  };
  TablePrinter t({"nodes", "scheduler", "assoc", "RPL joined", "SF operational"});
  for (const auto& agg : result.aggregates) {
    if (agg.coords.size() < 2) continue;  // point owned by another shard
    t.add_row({agg.coords[0].second, scheduler_name(agg.coords[1].second),
               cell(agg.pdr_percent), cell(agg.avg_delay_ms),
               cell(agg.p95_delay_ms)});
  }
  t.print();
  std::printf("\nMetric slots: assoc -> pdr_percent, joined -> avg_delay_ms, "
              "operational -> p95_delay_ms (for --metric / CSV columns).\n"
              "Negotiating SFs (GT-TSCH, e-MSF) pay an extra bootstrap stage\n"
              "beyond RPL join; association dominates for the autonomous ones.\n");

  if (!out_prefix.empty()) {
    const std::string csv_path = out_prefix + ".csv";
    const std::string json_path = out_prefix + ".json";
    if (!campaign::write_csv(csv_path, result.aggregates) ||
        !campaign::write_json(json_path, result.aggregates)) {
      std::fprintf(stderr, "formation_time: failed to write artifacts at %s.{csv,json}\n",
                   out_prefix.c_str());
      return 1;
    }
    std::fprintf(stderr, "[bench] wrote %s and %s\n", csv_path.c_str(), json_path.c_str());
  }
  return result.cancelled ? 1 : 0;
}
