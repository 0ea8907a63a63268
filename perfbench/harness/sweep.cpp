// The zoo-sweep workload: one campaign through run_points_campaign, the
// way gt_campaign runs it (journal on, one telemetry JSONL per job, CSV
// and JSON reports at the end).
#include "sweep.hpp"

#include <cstdio>
#include <filesystem>

#include "campaign/journal.hpp"
#include "campaign/report.hpp"
#include "campaign/runner.hpp"
#include "run.hpp"
#include "stats/telemetry.hpp"

namespace perfbench {

using namespace gttsch;

namespace {

/// Per-layer values that are averages, not sums, when combined over jobs.
bool is_mean(const std::string& key) {
  return key == "net.mean_hops" || key == "app.pdr_percent" || key == "app.avg_delay_ms" ||
         key == "app.duty_cycle_percent" || key == "trace.host_slowdown";
}

std::string job_file(const std::string& dir, const campaign::Job& job) {
  char name[48];
  std::snprintf(name, sizeof name, "point%03zu_seed%02zu.jsonl", job.point_index,
                job.seed_index);
  return dir + "/" + name;
}

}  // namespace

std::string run_sweep(const BenchConfig& config, const std::string& work_dir, SweepMode mode) {
  const std::string journal_path = work_dir + "/journal.jsonl";
  const std::string telemetry_dir = work_dir + "/telemetry";
  std::filesystem::create_directories(telemetry_dir);
  const int setup_reps = static_cast<int>(config.number("setup_reps"));
  const int workers = static_cast<int>(config.number("jobs"));

  // Set-up: grid expansion (with its trace validation), job list and
  // journal open — everything before the first job starts.
  std::vector<double> setup, expand;
  std::vector<campaign::GridPoint> points;
  campaign::CampaignSpec spec;
  std::size_t job_count = 0;
  for (int i = 0; i < std::max(1, setup_reps); ++i) {
    const auto t0 = Clock::now();
    spec = campaign::CampaignSpec{};
    spec.base = config.scenario;
    std::string error;
    if (!campaign::parse_grid(config.setting("grid"), &spec.axes, &error) ||
        !campaign::parse_seeds(config.setting("seeds"), &spec.seeds, &error)) {
      die(error);
    }
    points = campaign::expand_grid(spec, &error);
    if (points.empty()) die(error);
    expand.push_back(seconds_since(t0));
    job_count = campaign::make_jobs(points, spec.seeds).size();
    campaign::JournalWriter journal(journal_path, /*append_mode=*/false);
    if (!journal.ok()) die("cannot open " + journal_path);
    setup.push_back(seconds_since(t0));
  }

  TelemetryConfig telemetry_config;  // gt_campaign --telemetry-dir defaults
  telemetry_config.sample_period = 1000000;
  std::vector<double> job_wall(job_count, 0.0);
  std::vector<std::string> job_text(job_count);
  // Per-job slots (each written by one worker only), summed in job order
  // afterwards so floating-point sums do not depend on which worker
  // finished first.
  std::vector<Values> job_layers(job_count), job_counts(job_count);

  campaign::CampaignOptions options;
  options.runner.jobs = workers;
  options.journal_path = journal_path;
  options.runner.run_job_fn = [&](const campaign::Job& job) {
    const auto t0 = Clock::now();
    const std::string path = job_file(telemetry_dir, job);
    ExperimentResult result;
    Values counts, values;
    if (mode == SweepMode::kReference) {
      Telemetry telemetry(telemetry_config);
      result = run_scenario(job.config, &telemetry);
      if (!telemetry.write_jsonl(path)) die("cannot write " + path);
    } else {
      RunOptions run_options;
      run_options.telemetry = true;
      run_options.traced = mode == SweepMode::kTraced;
      run_options.replays = run_options.traced && job.index == 0;
      run_options.telemetry_path = path;
      run_options.probe_each_slice = false;
      const RunReport report = run_assembled(job.config, run_options);
      result = report.result;
      counts = report.counts;
      values = report.counts;
      for (const auto& entry : report.timings) {
        if (entry.first != "setup_s" && entry.first != "sim.events_per_s") {
          values.push_back(entry);
        }
      }
      values.insert(values.end(), report.traced.begin(), report.traced.end());
    }
    const double wall = seconds_since(t0);
    job_wall[job.index] = wall;
    job_text[job.index] = result_text(result);
    job_counts[job.index] = std::move(counts);
    job_layers[job.index] = std::move(values);
    return result;
  };

  auto t0 = Clock::now();
  campaign::CampaignResult result;
  std::string error;
  if (!campaign::run_points_campaign(points, spec.seeds, options, &result, &error)) {
    die("campaign failed: " + error);
  }
  const double runner_s = seconds_since(t0);
  t0 = Clock::now();
  if (!campaign::write_csv(work_dir + "/report.csv", result.aggregates) ||
      !campaign::write_json(work_dir + "/report.json", result.aggregates)) {
    die("cannot write the sweep reports");
  }
  const double report_s = seconds_since(t0);
  const Usage usage = process_usage();

  std::string all_results;
  double busy = 0;
  Values layers, counts;
  for (std::size_t i = 0; i < job_count; ++i) {
    all_results += job_text[i];
    busy += job_wall[i];
    accumulate(layers, job_layers[i]);
    accumulate(counts, job_counts[i]);
  }
  for (Values* values : {&layers, &counts}) {
    for (auto& [key, value] : *values) {
      if (is_mean(key)) value /= static_cast<double>(job_count);
    }
  }

  JsonObject out;
  out.add("result_digest", digest(all_results));
  out.add("behaviour_digest", digest(all_results + values_text(counts)));
  out.add("jobs", static_cast<double>(job_count));
  out.add("jobs_failed", static_cast<double>(result.jobs_failed));
  out.add("cpu_s", usage.cpu_s);
  out.add("peak_rss_mib", usage.peak_rss_mib);
  JsonObject timings;
  timings.add("setup_s", median(setup));
  timings.add("campaign.expand_s", median(expand));
  timings.add("campaign.workers", workers);
  timings.add("campaign.runner_s", runner_s);
  timings.add("campaign.report_s", report_s);
  timings.add("campaign.journal_bytes", file_size(journal_path));
  timings.add("campaign.job_wall_p50_s", quantile(job_wall, 0.5));
  timings.add("campaign.job_wall_p75_s", quantile(job_wall, 0.75));
  timings.add("campaign.worker_busy_frac", busy / (workers * runner_s));
  timings.add("campaign.jobs_per_min",
              60.0 * static_cast<double>(job_count) / (runner_s + report_s));
  out.add_raw("timings", timings.render());
  out.add_raw("counts", values_json(counts));
  out.add_raw("layers", values_json(layers));
  return out.render();
}

}  // namespace perfbench
