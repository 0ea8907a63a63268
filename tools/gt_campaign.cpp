// gt_campaign: one-command parallel experiment campaigns, shardable
// across processes/hosts, resumable after a crash, and optionally
// adaptive in seed count.
//
// Expands a declarative parameter grid over ScenarioConfig fields into
// (grid point x seed) jobs, runs this process's shard of them on a
// worker pool, journals every completed job, and reports seed-aggregated
// metrics (mean / stddev / 95% CI) as a table plus optional CSV/JSON
// artifacts.
//
// Example — the Fig 8 traffic-load sweep split across two hosts:
//   host A: gt_campaign --grid "scheduler=gt-tsch,orchestra;traffic_ppm=30,75,120,165"
//                       --seeds 1000,1017,1034 --shard 0/2 --journal a.jsonl
//   host B: same with --shard 1/2 --journal b.jsonl
//   then:   gt_campaign merge --out fig8 a.jsonl b.jsonl
//
// Exit codes: 0 success, 1 runtime/I-O failure or cancellation, 2 bad
// usage (unknown flag/field, malformed value, mismatched journal),
// 3 campaign completed but quarantined at least one failed job,
// 130 interrupted (SIGINT/SIGTERM; partial artifacts are still written).
#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>

#if !defined(_WIN32)
#include <unistd.h>
#endif

#include "campaign/isolate.hpp"
#include "campaign/journal.hpp"
#include "campaign/report.hpp"
#include "campaign/runner.hpp"
#include "sixp/sf_registry.hpp"
#include "stats/telemetry.hpp"
#include "util/flags.hpp"
#include "util/table.hpp"

namespace {

using namespace gttsch;

// Graceful shutdown: the first SIGINT/SIGTERM flips the cancel flag the
// runner polls between jobs — in-flight jobs finish, the journal stays
// valid, partial artifacts are written, and the process exits 130. A
// second signal hard-exits for users who really mean it.
std::atomic<bool> g_interrupted{false};
std::atomic<int> g_signal_count{0};

extern "C" void handle_interrupt(int /*signum*/) {
  if (g_signal_count.fetch_add(1) == 0) {
    g_interrupted.store(true);
  } else {
    _exit(130);  // async-signal-safe, unlike std::exit
  }
}

void install_signal_handlers() {
  std::signal(SIGINT, handle_interrupt);
  std::signal(SIGTERM, handle_interrupt);
}

/// Path of this binary, for re-entering via `run-job` in isolated mode.
/// /proc/self/exe survives PATH-relative invocation and cwd changes;
/// argv[0] is the portable fallback.
std::string self_exe_path(const char* argv0) {
#if defined(__linux__)
  char buf[4096];
  const ssize_t n = readlink("/proc/self/exe", buf, sizeof buf - 1);
  if (n > 0) {
    buf[n] = '\0';
    return buf;
  }
#endif
  return argv0 != nullptr ? argv0 : "";
}

void print_usage() {
  std::printf(
      "Usage: gt_campaign [run] [options]\n"
      "       gt_campaign merge --out PREFIX JOURNAL.jsonl [JOURNAL.jsonl...]\n"
      "       gt_campaign validate [--set SPEC] [--grid SPEC] [--seeds LIST]\n"
      "\n"
      "Run options:\n"
      "  --grid SPEC    axes as \"field=v1,v2;field2=v3,v4\" (cartesian product)\n"
      "                 schedulers sweep like any field, e.g.\n"
      "                 \"scheduler=%s\";\n"
      "                 mobility/failure traces too, e.g.\n"
      "                 \"trace_kind=none,random-walk;trace_seed=1,2\" or\n"
      "                 \"trace=a.trace,b.trace\" (see --list-fields)\n"
      "  --set SPEC     base-config overrides, same \"field=v;field2=v\" grammar\n"
      "  --seeds LIST   comma-separated seed list (default: the bench seeds,\n"
      "                 count adjustable via GTTSCH_SEEDS)\n"
      "  --jobs N       worker threads (default: hardware concurrency)\n"
      "  --shard i/N    run only this shard's share of the jobs (default 0/1)\n"
      "  --journal PATH append one JSONL record per completed job\n"
      "  --resume PATH  skip jobs already in PATH, append new ones to it\n"
      "  --ci-rel FRAC  adaptive seeding: stop a grid point once the 95%% CI\n"
      "                 half-width of --metric is under FRAC * |mean|\n"
      "  --max-seeds N  adaptive cap per point (default: seed-list length)\n"
      "  --min-seeds N  never stop a point below N seeds (default 3)\n"
      "  --batch N      seeds added per adaptive wave (default 2)\n"
      "  --metric NAME  adaptive stopping metric (default pdr_percent)\n"
      "  --isolate      run each job in a forked child process, so a crash\n"
      "                 or OOM kill quarantines one job instead of killing\n"
      "                 the campaign (exit 3 when any job stays quarantined)\n"
      "  --job-timeout S  per-job wall-clock budget (0.001 to 1e6 s): the\n"
      "                 child is SIGKILLed on expiry and the job quarantined\n"
      "                 as a timeout (requires --isolate)\n"
      "  --retries N    re-run a failing job up to N times (exponential\n"
      "                 backoff) before quarantining it (default 0;\n"
      "                 requires --isolate)\n"
      "  --retry-quarantined  with --resume: re-run quarantined journal\n"
      "                 records instead of keeping them failed\n"
      "  --out PREFIX   write PREFIX.csv and PREFIX.json artifacts\n"
      "  --telemetry-dir DIR     write one telemetry JSONL per job into DIR\n"
      "                          (pointNNN_seedNN.jsonl: gauge samples, event\n"
      "                          trace, probe records; see README Observability)\n"
      "  --telemetry-period S    gauge sampling period in seconds (default 1;\n"
      "                          1e-6 to 1e9)\n"
      "  --telemetry-probes N    probe-sender nodes per run (default 0; probes\n"
      "                          are excluded from the panel metrics)\n"
      "  --telemetry-probe-period S  per-sender probe period (default 10;\n"
      "                          1e-6 to 1e9)\n"
      "  --quiet        suppress per-job progress on stderr\n"
      "  --list-fields  print the sweepable ScenarioConfig fields and exit\n"
      "  --list-metrics print the adaptive stopping metrics and exit\n"
      "\n"
      "merge combines per-shard journals into one aggregate report,\n"
      "bit-identical to an unsharded run over the same jobs.\n"
      "\n"
      "validate dry-runs the grid expansion and checks every resolved\n"
      "point's trace setup (file parse with line numbers, node ids against\n"
      "that point's topology, generator parameter ranges) without running\n"
      "any simulation. Exit 0 = sound, 2 = invalid (details on stderr).\n"
      "\n"
      "Exit codes: 0 success, 1 runtime/I-O failure, 2 bad usage,\n"
      "3 completed with quarantined (failed) jobs, 130 interrupted.\n",
      SfRegistry::instance().names_joined(",").c_str());
}

int fail_usage(const char* what, const std::string& detail) {
  std::fprintf(stderr, "gt_campaign: %s: %s\n", what, detail.c_str());
  return 2;
}

void print_table(const std::vector<campaign::PointAggregate>& aggregates) {
  // The failed column only appears when some point actually quarantined a
  // job, keeping the healthy-path table (and everything that greps it)
  // unchanged.
  bool any_failed = false;
  for (const campaign::PointAggregate& a : aggregates) {
    if (a.runs_failed > 0) any_failed = true;
  }
  std::vector<std::string> columns{"point", "runs"};
  if (any_failed) columns.push_back("failed");
  for (const char* name : {"PDR % (±sd)", "delay ms (±sd)", "loss/min (±sd)",
                           "duty % (±sd)", "qloss/node (±sd)", "rx/min (±sd)"}) {
    columns.push_back(name);
  }
  TablePrinter table(columns);
  auto cell = [](const campaign::SampleStats& s, int precision) {
    return TablePrinter::num(s.mean, precision) + " ±" +
           TablePrinter::num(s.stddev, precision);
  };
  for (const campaign::PointAggregate& a : aggregates) {
    std::vector<std::string> row{a.label.empty() ? std::string("base") : a.label,
                                 TablePrinter::num(static_cast<std::int64_t>(a.runs))};
    if (any_failed) {
      row.push_back(TablePrinter::num(static_cast<std::int64_t>(a.runs_failed)));
    }
    for (std::string& value :
         std::vector<std::string>{cell(a.pdr_percent, 1), cell(a.avg_delay_ms, 0),
                                  cell(a.loss_per_minute, 1),
                                  cell(a.duty_cycle_percent, 2),
                                  cell(a.queue_loss_per_node, 1),
                                  cell(a.throughput_per_minute, 0)}) {
      row.push_back(std::move(value));
    }
    table.add_row(row);
  }
  table.print();
}

/// Per-point quarantine summary on stderr + the total; returns the count.
std::size_t print_failure_summary(
    const std::vector<campaign::PointAggregate>& aggregates) {
  std::size_t total = 0;
  for (const campaign::PointAggregate& a : aggregates) {
    total += static_cast<std::size_t>(a.runs_failed);
  }
  if (total == 0) return 0;
  std::fprintf(stderr, "[campaign] %zu job(s) quarantined after retries:\n",
               total);
  for (const campaign::PointAggregate& a : aggregates) {
    if (a.runs_failed == 0) continue;
    std::fprintf(stderr, "[campaign]   %s: %d failed (%s), %d ok\n",
                 a.label.empty() ? "base" : a.label.c_str(), a.runs_failed,
                 campaign::failure_kinds_label(a).c_str(), a.runs);
  }
  return total;
}

/// Writes PREFIX.csv / PREFIX.json (atomically); returns the exit code.
int write_artifacts(const std::string& out_prefix,
                    const std::vector<campaign::PointAggregate>& aggregates) {
  if (out_prefix.empty()) return 0;
  const std::string csv_path = out_prefix + ".csv";
  const std::string json_path = out_prefix + ".json";
  if (!campaign::write_csv(csv_path, aggregates)) {
    std::fprintf(stderr, "gt_campaign: failed to write %s\n", csv_path.c_str());
    return 1;
  }
  if (!campaign::write_json(json_path, aggregates)) {
    std::fprintf(stderr, "gt_campaign: failed to write %s\n", json_path.c_str());
    return 1;
  }
  std::fprintf(stderr, "[campaign] wrote %s and %s\n", csv_path.c_str(),
               json_path.c_str());
  return 0;
}

/// `gt_campaign merge --out PREFIX journal...`: re-aggregate per-shard
/// journals into the report an unsharded run would have produced.
int run_merge(const Flags& flags, const std::vector<std::string>& journals) {
  const std::string out_prefix = flags.get("out", "");
  for (const std::string& flag : flags.unknown()) {
    return fail_usage("merge: unknown flag", "--" + flag + " (see --help)");
  }
  if (journals.empty()) {
    return fail_usage("merge", "at least one journal file is required");
  }
  std::vector<campaign::JournalRecord> records;
  std::string error;
  for (const std::string& path : journals) {
    std::vector<campaign::JournalRecord> shard_records;
    if (!campaign::read_journal(path, &shard_records, &error)) {
      return fail_usage("merge", error);
    }
    std::fprintf(stderr, "[merge] %s: %zu records\n", path.c_str(),
                 shard_records.size());
    records.insert(records.end(), shard_records.begin(), shard_records.end());
  }
  std::vector<campaign::PointAggregate> aggregates;
  if (!campaign::aggregate_records(records, &aggregates, &error)) {
    return fail_usage("merge", error);
  }
  if (aggregates.empty()) {
    return fail_usage("merge", "journals contain no records");
  }
  print_table(aggregates);
  const int artifact_code = write_artifacts(out_prefix, aggregates);
  if (artifact_code != 0) return artifact_code;
  // Quarantined records survive the merge; surface them the same way a
  // run does so a scripted merge can branch on exit 3.
  return print_failure_summary(aggregates) > 0 ? 3 : 0;
}

/// Builds the campaign spec from --set / --grid / --seeds (shared by the
/// run and validate subcommands). Returns 0 on success, else the exit code.
int parse_spec_flags(const Flags& flags, campaign::CampaignSpec* spec) {
  std::string error;

  if (!campaign::apply_overrides(spec->base, flags.get("set", ""), &error)) {
    return fail_usage("--set", error);
  }

  if (!campaign::parse_grid(flags.get("grid", ""), &spec->axes, &error)) {
    return fail_usage("--grid", error);
  }

  if (flags.has("seeds")) {
    if (!campaign::parse_seeds(flags.get("seeds", ""), &spec->seeds, &error)) {
      return fail_usage("--seeds", error);
    }
  } else {
    spec->seeds = default_seeds();
  }
  return 0;
}

/// `gt_campaign validate`: expand the grid and run the campaign's
/// pre-flight trace checks — file parse (with the offending line number),
/// per-point node-id/topology cross-check, generator parameter ranges —
/// then exit without simulating anything.
int run_validate(const Flags& flags) {
  campaign::CampaignSpec spec;
  const int code = parse_spec_flags(flags, &spec);
  if (code != 0) return code;
  for (const std::string& flag : flags.unknown()) {
    return fail_usage("validate: unknown flag", "--" + flag + " (see --help)");
  }
  std::string error;
  const std::vector<campaign::GridPoint> points = campaign::expand_grid(spec, &error);
  if (points.empty()) {
    return fail_usage("invalid campaign", error);
  }
  if (!campaign::validate_points_trace(points, &error)) {
    return fail_usage("invalid trace setup", error);
  }
  std::printf("validate: %zu point%s x %zu seed%s OK\n", points.size(),
              points.size() == 1 ? "" : "s", spec.seeds.size(),
              spec.seeds.size() == 1 ? "" : "s");
  return 0;
}

int run_campaign_command(const Flags& flags, const char* argv0) {
  campaign::CampaignSpec spec;
  const int spec_code = parse_spec_flags(flags, &spec);
  if (spec_code != 0) return spec_code;
  std::string error;

  campaign::CampaignOptions options;
  const bool quiet = flags.get_bool("quiet", false);
  if (!quiet) {
    options.runner.on_progress = [](const campaign::Progress& p) {
      if (p.outcome != nullptr &&
          p.outcome->status != campaign::JobStatus::kOk) {
        std::fprintf(stderr,
                     "[campaign] %zu/%zu jobs done (point %zu, seed #%zu) -- "
                     "%s after %d attempt(s)%s%s\n",
                     p.completed, p.total, p.job->point_index,
                     p.job->seed_index,
                     campaign::job_status_name(p.outcome->status),
                     p.outcome->attempts, p.outcome->detail.empty() ? "" : ": ",
                     p.outcome->detail.c_str());
        return;
      }
      std::fprintf(stderr, "[campaign] %zu/%zu jobs done (point %zu, seed #%zu)\n",
                   p.completed, p.total, p.job->point_index, p.job->seed_index);
    };
  }

  if (!campaign::parse_campaign_flags(flags, &options, &error)) {
    return fail_usage("bad option", error);
  }
  if (options.fault.isolate) {
#if defined(_WIN32)
    return fail_usage("--isolate", "not supported on this platform");
#else
    options.fault.exec_path = self_exe_path(argv0);
    if (options.fault.exec_path.empty()) {
      return fail_usage("--isolate", "cannot determine own executable path");
    }
#endif
  }
  install_signal_handlers();
  options.runner.cancel_flag = &g_interrupted;

  // In-run telemetry: when --telemetry-dir is given, each job runs with a
  // private Telemetry recorder and writes DIR/pointNNN_seedNN.jsonl. The
  // sub-flags are meaningless without the directory, so reject them alone
  // rather than silently ignoring a half-typed request.
  const std::string telemetry_dir = flags.get("telemetry-dir", "");
  if (telemetry_dir.empty()) {
    for (const char* sub :
         {"telemetry-period", "telemetry-probes", "telemetry-probe-period"}) {
      if (flags.has(sub)) {
        return fail_usage(("--" + std::string(sub)).c_str(),
                          "requires --telemetry-dir");
      }
    }
  } else {
    // Periods become whole microseconds, so anything below 1 us (or not
    // finite) would truncate to 0 ("no samples") or overflow the cast.
    double telemetry_period_s = 1.0;
    double probe_period_s = 10.0;
    for (const auto& [name, seconds] :
         {std::pair{"telemetry-period", &telemetry_period_s},
          std::pair{"telemetry-probe-period", &probe_period_s}}) {
      const std::string v = flags.get(name, "");
      if (flags.has(name) && !campaign::parse_bounded_double(v, 1e-6, 1e9, seconds)) {
        return fail_usage(("--" + std::string(name)).c_str(),
                          "expected seconds in [1e-6, 1e9], got '" + v + "'");
      }
    }
    std::uint64_t telemetry_probes = 0;
    const std::string probes = flags.get("telemetry-probes", "0");
    if (!campaign::parse_bounded_u64(probes, 1'000'000, &telemetry_probes)) {
      return fail_usage("--telemetry-probes",
                        "expected a node count no greater than 1000000, got '" +
                            probes + "'");
    }
    std::error_code ec;
    std::filesystem::create_directories(telemetry_dir, ec);
    if (ec) {
      std::fprintf(stderr, "gt_campaign: cannot create %s: %s\n",
                   telemetry_dir.c_str(), ec.message().c_str());
      return 1;
    }
    TelemetryConfig telemetry_config;
    telemetry_config.sample_period =
        static_cast<TimeUs>(telemetry_period_s * 1e6);
    telemetry_config.probe_count = static_cast<int>(telemetry_probes);
    telemetry_config.probe_period = static_cast<TimeUs>(probe_period_s * 1e6);
    options.runner.run_job_fn = [telemetry_dir, telemetry_config](
                                    const campaign::Job& job) {
      Telemetry telemetry(telemetry_config);
      const ExperimentResult result = run_scenario(job.config, &telemetry);
      char name[48];
      std::snprintf(name, sizeof name, "point%03zu_seed%02zu.jsonl",
                    job.point_index, job.seed_index);
      const std::string path = telemetry_dir + "/" + name;
      // A failed artifact write must not poison the campaign result;
      // warn and keep the (already computed) metrics.
      if (!telemetry.write_jsonl(path)) {
        std::fprintf(stderr, "gt_campaign: failed to write %s\n", path.c_str());
      }
      return result;
    };
  }

  const std::string out_prefix = flags.get("out", "");
  for (const std::string& flag : flags.unknown()) {
    return fail_usage("unknown flag", "--" + flag + " (see --help)");
  }

  campaign::CampaignResult result;
  if (!campaign::run_campaign(spec, options, &result, &error)) {
    if (result.error_kind == campaign::CampaignErrorKind::kIo) {
      std::fprintf(stderr, "gt_campaign: %s\n", error.c_str());
      return 1;
    }
    return fail_usage("invalid campaign", error);
  }
  if (result.jobs_skipped > 0) {
    std::fprintf(stderr, "[campaign] resumed: %zu jobs from journal, %zu run now\n",
                 result.jobs_skipped, result.jobs_run);
  }

  print_table(result.aggregates);

  // Artifacts are written even for interrupted runs: the journal already
  // holds the finished jobs, and a partial report beats no report.
  const int artifact_code = write_artifacts(out_prefix, result.aggregates);
  if (artifact_code != 0) return artifact_code;
  const std::size_t quarantined = print_failure_summary(result.aggregates);
  if (g_interrupted.load()) {
    std::fprintf(stderr,
                 "[campaign] interrupted: %zu jobs finished; resume with "
                 "--resume to continue\n",
                 result.jobs_run);
    return 130;
  }
  if (result.cancelled) return 1;
  return quarantined > 0 ? 3 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Hidden child-process entry for --isolate: one envelope line on stdin,
  // one record line on stdout. Dispatched before any flag parsing so the
  // protocol surface cannot drift with the CLI grammar.
  if (argc >= 2 && std::string(argv[1]) == "run-job") {
    return campaign::run_job_protocol(stdin, stdout);
  }

  Flags flags(argc, argv);

  if (flags.get_bool("help", false)) {
    print_usage();
    return 0;
  }
  if (flags.get_bool("list-fields", false)) {
    for (const std::string& name : campaign::known_fields()) {
      std::printf("%s\n", name.c_str());
    }
    return 0;
  }
  if (flags.get_bool("list-metrics", false)) {
    for (const std::string& name : campaign::metric_names()) {
      std::printf("%s\n", name.c_str());
    }
    return 0;
  }

  // Subcommand dispatch. Stray positionals used to be silently ignored
  // (a typo'd invocation would run the full default campaign and exit 0);
  // now anything unrecognized is a usage error.
  std::vector<std::string> positional = flags.positional();
  if (!positional.empty() && positional.front() == "merge") {
    positional.erase(positional.begin());
    return run_merge(flags, positional);
  }
  if (!positional.empty() && positional.front() == "validate") {
    positional.erase(positional.begin());
    if (!positional.empty()) {
      return fail_usage("validate: unexpected argument",
                        "'" + positional.front() + "' (see --help)");
    }
    return run_validate(flags);
  }
  if (!positional.empty() && positional.front() == "run") {
    positional.erase(positional.begin());
  }
  if (!positional.empty()) {
    return fail_usage("unexpected argument",
                      "'" + positional.front() + "' (see --help)");
  }
  return run_campaign_command(flags, argv[0]);
}
