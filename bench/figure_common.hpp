// Shared plumbing for the figure-reproduction harnesses: runs both
// schedulers over a sweep on the campaign engine and prints the six
// panels of the paper's figures (PDR, delay, packet loss, duty cycle,
// queue loss, throughput) as mean ±stddev across seeds.
//
// Parallelism: every (sweep point, scheduler, seed) combination is one
// campaign job; GTTSCH_JOBS overrides the worker count (default: hardware
// concurrency). Results are bit-identical to a serial run.
//
// Scale-out: the harnesses expose the campaign engine's sharding
// (--shard i/N), crash-safe journaling (--journal / --resume) and
// CI-driven adaptive seeding (--ci-rel / --max-seeds); per-shard
// journals merge with `gt_campaign merge`.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "campaign/report.hpp"
#include "campaign/runner.hpp"
#include "scenario/experiment.hpp"
#include "util/flags.hpp"
#include "util/table.hpp"

namespace gttsch::bench {

struct SweepPoint {
  std::string label;         ///< x-axis value as printed
  ScenarioConfig gt;         ///< configured for GT-TSCH
  ScenarioConfig orchestra;  ///< configured for Orchestra
};

struct PanelRow {
  std::string x;
  campaign::PointAggregate gt;
  campaign::PointAggregate orchestra;
};

/// The sweep as campaign grid points: 2i is GT-TSCH and 2i+1 Orchestra
/// for sweep point i, labelled/coordinated so journals and CSV artifacts
/// are self-describing.
inline std::vector<campaign::GridPoint> sweep_grid(
    const std::vector<SweepPoint>& points, const char* x_name) {
  std::vector<campaign::GridPoint> grid;
  grid.reserve(points.size() * 2);
  for (const SweepPoint& point : points) {
    for (const ScenarioConfig* config : {&point.gt, &point.orchestra}) {
      const char* scheduler = (config == &point.gt) ? "gt-tsch" : "orchestra";
      campaign::GridPoint g;
      g.index = grid.size();
      g.label = std::string(x_name) + '=' + point.label + " scheduler=" + scheduler;
      g.coords = {{x_name, point.label}, {"scheduler", scheduler}};
      g.config = *config;
      grid.push_back(std::move(g));
    }
  }
  return grid;
}

/// Runs the sweep on the campaign engine. `options.runner.on_progress`
/// is overridden with the bench progress line unless already set.
inline std::vector<PanelRow> run_sweep(const std::vector<SweepPoint>& points,
                                       const std::vector<std::uint64_t>& seeds,
                                       campaign::CampaignOptions options,
                                       const char* x_name,
                                       campaign::CampaignResult* result_out,
                                       std::string* error) {
  const std::vector<campaign::GridPoint> grid = sweep_grid(points, x_name);

  if (!options.runner.on_progress) {
    options.runner.on_progress = [&points](const campaign::Progress& p) {
      const SweepPoint& point = points[p.job->point_index / 2];
      std::fprintf(stderr, "[bench] %zu/%zu: point %s %s seed #%zu done\n",
                   p.completed, p.total, point.label.c_str(),
                   p.job->point_index % 2 == 0 ? "GT-TSCH" : "Orchestra",
                   p.job->seed_index);
    };
  }

  campaign::CampaignResult result;
  if (!campaign::run_points_campaign(grid, seeds, options, &result, error)) {
    if (result_out != nullptr) *result_out = std::move(result);  // error_kind
    return {};
  }

  std::vector<PanelRow> rows;
  rows.reserve(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    rows.push_back(PanelRow{points[i].label, result.aggregates[2 * i],
                            result.aggregates[2 * i + 1]});
  }
  if (result_out != nullptr) *result_out = std::move(result);
  return rows;
}

inline void print_panels(const char* figure, const char* x_name,
                         const std::vector<PanelRow>& rows) {
  struct Panel {
    const char* title;
    campaign::SampleStats campaign::PointAggregate::*field;
    int precision;
  };
  const Panel panels[] = {
      {"(a) Packet delivery ratio (%)", &campaign::PointAggregate::pdr_percent, 1},
      {"(b) Average end-to-end delay per packet (ms)",
       &campaign::PointAggregate::avg_delay_ms, 0},
      {"(c) Average number of lost packets (packet/minute)",
       &campaign::PointAggregate::loss_per_minute, 1},
      {"(d) Average radio duty cycle per node (%)",
       &campaign::PointAggregate::duty_cycle_percent, 2},
      {"(e) Average queue loss per node",
       &campaign::PointAggregate::queue_loss_per_node, 1},
      {"(f) Received packets per minute",
       &campaign::PointAggregate::throughput_per_minute, 0},
  };
  auto cell = [](const campaign::SampleStats& s, int precision) {
    if (s.n == 0) return std::string("-");  // other shard's point
    std::string text = TablePrinter::num(s.mean, precision);
    if (s.n > 1) text += " ±" + TablePrinter::num(s.stddev, precision);
    return text;
  };
  for (const auto& panel : panels) {
    std::printf("\n%s — %s (mean ±stddev over seeds)\n", figure, panel.title);
    TablePrinter t({x_name, "GT-TSCH", "Orchestra"});
    for (const auto& row : rows)
      t.add_row({row.x, cell(row.gt.*panel.field, panel.precision),
                 cell(row.orchestra.*panel.field, panel.precision)});
    t.print();
  }
  std::printf("\n%s — diagnostics (generated/delivered per run-average)\n", figure);
  // The aggregate holds seed sums; a point in another shard has no runs.
  auto per_run = [](const campaign::PointAggregate& a, std::uint64_t sum) {
    if (a.runs == 0) return std::string("-");
    return TablePrinter::num(static_cast<double>(sum) / a.runs, 1);
  };
  TablePrinter t({x_name, "GT gen", "GT dlv", "GT join", "Or gen", "Or dlv", "Or join"});
  for (const auto& row : rows)
    t.add_row({row.x, per_run(row.gt, row.gt.mean.generated),
               per_run(row.gt, row.gt.mean.delivered),
               per_run(row.gt, row.gt.mean.nodes_joined),
               per_run(row.orchestra, row.orchestra.mean.generated),
               per_run(row.orchestra, row.orchestra.mean.delivered),
               per_run(row.orchestra, row.orchestra.mean.nodes_joined)});
  t.print();
}

/// Entry point shared by the figure harnesses. Flags:
///   --jobs N, --seeds LIST, --out PREFIX        (as before)
///   --set SPEC                                  base-config overrides applied
///                                               to every sweep point (e.g.
///                                               "trace_kind=random-walk;trace_movers=4")
///   --shard i/N                                 run one shard of the sweep
///   --journal PATH, --resume PATH               checkpoint / crash recovery
///   --ci-rel FRAC, --max-seeds N, --min-seeds N, --batch N, --metric NAME
///                                               adaptive seeding
/// Returns the process exit code (0 ok, 1 runtime failure, 2 bad usage).
inline int run_figure(int argc, char** argv, const char* figure,
                      const char* x_name, const std::vector<SweepPoint>& points_in) {
  Flags flags(argc, argv);
  std::string error;

  // --set applies to every sweep point's GT and Orchestra configs: the
  // hook that lets the fig benches take the trace/topology fields without
  // bespoke flags.
  std::vector<SweepPoint> points = points_in;
  const std::string overrides = flags.get("set", "");
  for (SweepPoint& point : points) {
    if (!campaign::apply_overrides(point.gt, overrides, &error) ||
        !campaign::apply_overrides(point.orchestra, overrides, &error)) {
      std::fprintf(stderr, "%s: --set: %s\n", figure, error.c_str());
      return 2;
    }
  }

  campaign::CampaignOptions options;
  std::vector<std::uint64_t> seeds = default_seeds();
  if (flags.has("seeds")) {
    if (!campaign::parse_seeds(flags.get("seeds", ""), &seeds, &error)) {
      std::fprintf(stderr, "%s: --seeds: %s\n", figure, error.c_str());
      return 2;
    }
  }
  if (!campaign::parse_campaign_flags(flags, &options, &error)) {
    std::fprintf(stderr, "%s: %s\n", figure, error.c_str());
    return 2;
  }
  const std::string out_prefix = flags.get("out", "");
  for (const std::string& flag : flags.unknown()) {
    std::fprintf(stderr, "%s: unknown flag --%s\n", figure, flag.c_str());
    return 2;
  }

  campaign::CampaignResult result;
  const std::vector<PanelRow> rows =
      run_sweep(points, seeds, options, x_name, &result, &error);
  if (rows.empty()) {
    std::fprintf(stderr, "%s: %s\n", figure, error.c_str());
    return result.error_kind == campaign::CampaignErrorKind::kIo ? 1 : 2;
  }
  if (result.jobs_skipped > 0) {
    std::fprintf(stderr, "[bench] resumed: %zu jobs from journal, %zu run now\n",
                 result.jobs_skipped, result.jobs_run);
  }
  print_panels(figure, x_name, rows);

  if (!out_prefix.empty()) {
    const std::string csv_path = out_prefix + ".csv";
    const std::string json_path = out_prefix + ".json";
    if (!campaign::write_csv(csv_path, result.aggregates) ||
        !campaign::write_json(json_path, result.aggregates)) {
      std::fprintf(stderr, "%s: failed to write artifacts at %s.{csv,json}\n",
                   figure, out_prefix.c_str());
      return 1;
    }
    std::fprintf(stderr, "[bench] wrote %s and %s\n", csv_path.c_str(),
                 json_path.c_str());
  }
  return result.cancelled ? 1 : 0;
}

/// Shared base configuration for the paper's evaluation (Section VIII).
inline ScenarioConfig paper_base(const std::string& kind) {
  using namespace literals;
  ScenarioConfig c;
  c.scheduler = kind;
  c.dodag_count = 2;
  c.nodes_per_dodag = 7;  // 14 nodes total
  c.traffic_ppm = 120.0;
  c.gt_slotframe_length = 32;
  c.orchestra_unicast_length = 8;
  c.warmup = 180_s;
  c.measure = 300_s;
  return c;
}

}  // namespace gttsch::bench
