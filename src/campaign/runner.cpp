#include "campaign/runner.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>

#include "campaign/isolate.hpp"
#include "campaign/journal.hpp"
#include "util/check.hpp"
#include "util/concurrency.hpp"

namespace gttsch::campaign {
namespace {

bool fail(std::string* error, const std::string& message) {
  if (error != nullptr) *error = message;
  return false;
}

/// Parses a count-valued flag with validation, leaving `*out` untouched
/// when the flag is absent. Digits only and capped, so `--max-seeds -1`
/// is a usage error instead of wrapping to ~2^64 (which would send
/// extend_seeds toward an endless loop / OOM), and `--max-seeds abc` is
/// a usage error instead of silently parsing as 0. The cap is low enough
/// that the per-seed bookkeeping it authorizes (the extended seed list,
/// one byte per (point, seed)) stays affordable, not just representable.
bool parse_count_flag(const Flags& flags, const char* name, std::size_t* out,
                      std::string* error) {
  if (!flags.has(name)) return true;
  constexpr std::uint64_t kMaxCount = 1'000'000;
  const std::string v = flags.get(name, "");
  std::uint64_t parsed = 0;
  if (!parse_bounded_u64(v, kMaxCount, &parsed)) {
    return fail(error, std::string("--") + name +
                           ": expected a non-negative integer no greater than " +
                           std::to_string(kMaxCount) + ", got '" + v + "'");
  }
  *out = static_cast<std::size_t>(parsed);
  return true;
}

/// Loads `path` (when resuming) and validates every record against the
/// campaign: in-range point with the same label, in-range seed index
/// holding the same seed value, matching campaign fingerprint. A missing
/// file is an empty journal so crash-loop scripts can pass --resume
/// unconditionally.
bool load_resume_records(const std::string& path,
                         const std::vector<GridPoint>& points,
                         const std::vector<std::uint64_t>& seeds,
                         std::uint64_t campaign_fp,
                         std::vector<JournalRecord>* records,
                         CampaignErrorKind* kind, std::string* error) {
  records->clear();
  *kind = CampaignErrorKind::kSpec;
  if (path.empty() || !std::filesystem::exists(path)) return true;
  if (!read_journal(path, records, error)) {
    *kind = CampaignErrorKind::kIo;  // unreadable or corrupt mid-file
    return false;
  }
  for (const JournalRecord& r : *records) {
    if (r.campaign_fp != 0 && r.campaign_fp != campaign_fp) {
      // Labels/coords below only cover the swept axes; the fingerprint
      // also covers the base config, so a journal from the same grid run
      // over a different --set (or seed list) is rejected here.
      return fail(error,
                  "journal does not match this campaign: it was written "
                  "with a different base configuration or seed list");
    }
    if (r.point_index >= points.size()) {
      return fail(error, "journal record for point " + std::to_string(r.point_index) +
                             " is out of range (grid has " +
                             std::to_string(points.size()) + " points)");
    }
    if (r.label != points[r.point_index].label) {
      return fail(error, "journal does not match this campaign: point " +
                             std::to_string(r.point_index) + " is '" +
                             points[r.point_index].label + "' but the journal says '" +
                             r.label + "'");
    }
    if (r.seed_index >= seeds.size() || seeds[r.seed_index] != r.seed) {
      return fail(error, "journal does not match this campaign: point " +
                             std::to_string(r.point_index) + " seed #" +
                             std::to_string(r.seed_index) +
                             " disagrees with the seed list");
    }
  }
  return true;
}

/// Wraps the user's progress callback so every completed job is appended
/// to the journal first. on_progress is serialized by the Runner, so the
/// writer needs no extra locking. `runner` is filled in by the caller
/// after construction; a failed append cancels it, because finishing a
/// long campaign whose results can no longer be saved only burns compute
/// — cancelling keeps the journaled prefix resumable.
RunnerOptions with_journal(const RunnerOptions& base, JournalWriter* writer,
                           const std::vector<GridPoint>& points,
                           std::uint64_t campaign_fp, Runner** runner) {
  if (writer == nullptr) return base;
  RunnerOptions wrapped = base;
  const auto user = base.on_progress;
  wrapped.on_progress = [writer, &points, campaign_fp, runner, user](const Progress& p) {
    JournalRecord record;
    record.point_index = p.job->point_index;
    record.seed_index = p.job->seed_index;
    record.seed = p.job->config.seed;
    record.campaign_fp = campaign_fp;
    record.label = points[p.job->point_index].label;
    record.coords = points[p.job->point_index].coords;
    record.status = p.outcome->status;
    record.attempts = p.outcome->attempts;
    record.exit_code = p.outcome->exit_code;
    record.term_signal = p.outcome->term_signal;
    if (p.outcome->status == JobStatus::kOk) record.result = p.outcome->result;
    if (!writer->append(record) && *runner != nullptr) (*runner)->cancel();
    if (user) user(p);
  };
  return wrapped;
}

void finalize_into(const std::vector<GridPoint>& points,
                   const std::vector<PointAccumulator>& accumulators,
                   CampaignResult* out) {
  out->points = points;
  out->aggregates.clear();
  out->aggregates.reserve(points.size());
  out->jobs_failed = 0;
  for (std::size_t i = 0; i < points.size(); ++i) {
    PointAggregate agg = accumulators[i].finalize();
    agg.label = points[i].label;
    agg.coords = points[i].coords;
    out->jobs_failed += static_cast<std::size_t>(agg.runs_failed);
    out->aggregates.push_back(std::move(agg));
  }
}

bool open_journal(const CampaignOptions& options,
                  std::optional<JournalWriter>& writer, CampaignResult* out,
                  std::string* error) {
  if (options.journal_path.empty()) return true;
  writer.emplace(options.journal_path, /*append_mode=*/options.resume);
  if (!writer->ok()) {
    out->error_kind = CampaignErrorKind::kIo;
    return fail(error,
                "cannot open journal '" + options.journal_path + "' for writing");
  }
  return true;
}

/// A journal that went bad mid-run (disk full, handle yanked) breaks the
/// "loses at most in-flight work" contract, so the campaign must fail
/// loudly instead of exiting 0 with records silently missing.
bool check_journal_health(const std::optional<JournalWriter>& writer,
                          const CampaignOptions& options, CampaignResult* out,
                          std::string* error) {
  if (!writer || writer->ok()) return true;
  out->error_kind = CampaignErrorKind::kIo;
  return fail(error, "journal write to '" + options.journal_path +
                         "' failed (disk full?); journal is incomplete");
}

/// The one seeding loop. Each wave runs every job the seeding rule asks
/// for next, and its outcomes are folded before the next wave is formed.
/// Fixed seeding asks for every pending seed of this shard's jobs (sharded
/// by Job::index), so it finishes in a single wave. Adaptive seeding
/// shards whole points, because each point's final seed count is
/// data-dependent, and grows a point in batches until the CI stopping
/// rule or the seed cap settles it.
bool run_waves(const std::vector<GridPoint>& points,
               const std::vector<std::uint64_t>& base_seeds,
               std::uint64_t campaign_fp, const CampaignOptions& options,
               CampaignResult* out, std::string* error) {
  const AdaptiveOptions& ad = options.adaptive;
  const bool adaptive = ad.enabled();
  SampleStats PointAggregate::*metric = nullptr;
  std::size_t max_seeds = base_seeds.size();
  std::size_t min_seeds = 0;
  std::size_t batch = 0;
  if (adaptive) {
    metric = metric_by_name(ad.metric);
    if (metric == nullptr) {
      return fail(error, "adaptive: unknown metric '" + ad.metric + "'");
    }
    if (ad.max_seeds > 0) max_seeds = ad.max_seeds;
    // The CI needs a stddev, so never stop below two seeds.
    min_seeds = std::min(std::max<std::size_t>(2, ad.min_seeds), max_seeds);
    batch = std::max<std::size_t>(1, ad.batch);
  }
  const std::vector<std::uint64_t> seeds =
      adaptive ? extend_seeds(base_seeds, max_seeds) : base_seeds;
  auto owned = [&](std::size_t point_index, std::size_t seed_index) {
    return options.shard.owns(adaptive ? point_index
                                       : point_index * seeds.size() + seed_index);
  };

  std::vector<JournalRecord> prior;
  if (options.resume &&
      !load_resume_records(options.journal_path, points, seeds, campaign_fp,
                           &prior, &out->error_kind, error)) {
    return false;
  }
  // done[point * max_seeds + seed]: the seed holds a result or a
  // quarantine, so no wave runs it again.
  std::vector<std::uint8_t> done(points.size() * max_seeds, 0);
  std::vector<PointAccumulator> accumulators(points.size());
  auto fold = [&](std::size_t point_index, std::size_t seed_index,
                  JobStatus status, const ExperimentResult& result) {
    if (status == JobStatus::kOk) {
      accumulators[point_index].add(seed_index, result);
    } else {
      // A quarantined seed is spent, not re-scheduled: adaptivity may
      // still reach its CI target with later seeds, and a deterministic
      // crasher would otherwise burn the whole budget.
      accumulators[point_index].add_failure(seed_index, status);
    }
    done[point_index * max_seeds + seed_index] = 1;
  };
  out->jobs_skipped = 0;
  for (const JournalRecord& r : prior) {
    if (r.seed_index >= max_seeds) {
      // load_resume_records checks against the *extended* seed list, which
      // keeps every base seed even when max_seeds is smaller — but the
      // bookkeeping rows are only max_seeds wide, so a journal from a run
      // with a larger seed budget must be rejected, not indexed.
      return fail(error, "journal seed #" + std::to_string(r.seed_index) +
                             " for point " + std::to_string(r.point_index) +
                             " exceeds the adaptive seed cap of " +
                             std::to_string(max_seeds) +
                             "; rerun with a larger --max-seeds or without "
                             "adaptive seeding");
    }
    // Ok records are always satisfied from the journal. Quarantined records
    // are too — a crashed job stays quarantined across resumes — unless
    // --retry-quarantined asks for them to run again.
    if (r.status != JobStatus::kOk && options.fault.retry_quarantined) continue;
    // Only this shard's jobs count as skipped, even when the journal also
    // carries other shards' records.
    if (!done[r.point_index * max_seeds + r.seed_index] &&
        owned(r.point_index, r.seed_index)) {
      ++out->jobs_skipped;
    }
    fold(r.point_index, r.seed_index, r.status, r.result);
  }

  // Seeds a point still asks for: all of them under fixed seeding; under
  // adaptive seeding up to min_seeds, then `batch` more per wave until the
  // CI target or max_seeds settles the point.
  auto wanted = [&](std::size_t point_index) -> std::size_t {
    if (!adaptive) return max_seeds;
    const std::size_t n = accumulators[point_index].size();
    if (n < min_seeds) return min_seeds - n;
    if (n >= max_seeds) return 0;
    const SampleStats s = accumulators[point_index].finalize().*metric;
    if (s.ci95_half <= ad.ci_rel * std::fabs(s.mean)) return 0;
    return std::min(n + batch, max_seeds) - n;
  };

  std::optional<JournalWriter> writer;
  if (!open_journal(options, writer, out, error)) return false;
  Runner* runner_ptr = nullptr;
  Runner runner(with_journal(options.runner, writer ? &*writer : nullptr, points,
                             campaign_fp, &runner_ptr));
  runner_ptr = &runner;

  out->jobs_run = 0;
  out->cancelled = false;
  for (;;) {
    std::vector<Job> wave;
    for (const GridPoint& point : points) {
      std::size_t want = wanted(point.index);
      for (std::size_t s = 0; s < max_seeds && want > 0; ++s) {
        if (done[point.index * max_seeds + s] || !owned(point.index, s)) continue;
        wave.push_back(make_job(point, seeds, s));
        --want;
      }
    }
    if (wave.empty()) break;

    const Runner::Result run = runner.run(wave);
    for (std::size_t i = 0; i < wave.size(); ++i) {
      if (!run.completed[i]) continue;
      fold(wave[i].point_index, wave[i].seed_index, run.outcomes[i].status,
           run.outcomes[i].result);
      ++out->jobs_run;
    }
    if (run.cancelled) {
      out->cancelled = true;
      break;
    }
  }

  if (!check_journal_health(writer, options, out, error)) return false;
  finalize_into(points, accumulators, out);
  return true;
}

}  // namespace

Runner::Runner(RunnerOptions options) : options_(std::move(options)) {}

Runner::Result Runner::run(const std::vector<Job>& jobs) {
  cancel_.store(false, std::memory_order_relaxed);

  Result out;
  out.outcomes.resize(jobs.size());
  out.completed.assign(jobs.size(), 0);
  if (jobs.empty()) return out;

  // default_worker_count (util/concurrency) handles the GTTSCH_JOBS env
  // override and the hardware_concurrency()==0 case (clamped to 1, never
  // 0 workers).
  int workers = default_worker_count(options_.jobs);
  workers = std::min<int>(workers, static_cast<int>(jobs.size()));

  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> done{0};
  std::mutex progress_mutex;

  auto should_cancel = [&] {
    if (cancel_.load(std::memory_order_relaxed)) return true;
    // External cancellation (a SIGINT flag): latch it into the internal
    // flag so every worker — and the caller via Result::cancelled — sees
    // one consistent signal.
    if (options_.cancel_flag != nullptr &&
        options_.cancel_flag->load(std::memory_order_relaxed)) {
      cancel_.store(true, std::memory_order_relaxed);
      return true;
    }
    return false;
  };

  auto execute = [this](const Job& job) {
    return options_.run_job_fn ? options_.run_job_fn(job)
                               : JobOutcome(run_scenario(job.config));
  };

  auto worker = [&] {
    for (;;) {
      if (should_cancel()) return;
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= jobs.size()) return;
      JobOutcome outcome = execute(jobs[i]);
      outcome.attempts = 1;
      // Perturbation-free retries: the exact same job, with exponential
      // backoff so a transient failure (OOM pressure, a busy host) gets
      // breathing room. Only the final outcome is reported/journaled.
      while (outcome.status != JobStatus::kOk &&
             outcome.attempts <= options_.retries && !should_cancel()) {
        const int shift = std::min(outcome.attempts - 1, 10);
        const int backoff_ms =
            std::min(options_.retry_backoff_ms << shift, 10'000);
        if (backoff_ms > 0) {
          std::this_thread::sleep_for(std::chrono::milliseconds(backoff_ms));
        }
        JobOutcome retry = execute(jobs[i]);
        retry.attempts = outcome.attempts + 1;
        outcome = std::move(retry);
      }
      out.outcomes[i] = std::move(outcome);
      out.completed[i] = 1;
      const std::size_t completed = done.fetch_add(1, std::memory_order_relaxed) + 1;
      if (options_.on_progress) {
        Progress p;
        p.completed = completed;
        p.total = jobs.size();
        p.job = &jobs[i];
        p.outcome = &out.outcomes[i];
        std::lock_guard<std::mutex> lock(progress_mutex);
        options_.on_progress(p);
      }
    }
  };

  if (workers == 1) {
    // Serial fast path: no threads, same claim order, same results.
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(workers));
    for (int w = 0; w < workers; ++w) pool.emplace_back(worker);
    for (std::thread& t : pool) t.join();
  }

  out.cancelled = cancel_.load(std::memory_order_relaxed);
  return out;
}

bool run_points_campaign(const std::vector<GridPoint>& points,
                         const std::vector<std::uint64_t>& seeds,
                         const CampaignOptions& options, CampaignResult* out,
                         std::string* error) {
  if (points.empty()) return fail(error, "campaign has no grid points");
  if (seeds.empty()) return fail(error, "campaign has no seeds");
  for (std::size_t i = 0; i < points.size(); ++i) {
    // Journals and shards key on point.index; it must be the position.
    GTTSCH_CHECK(points[i].index == i);
  }
  if (options.shard.count == 0 || options.shard.index >= options.shard.count) {
    return fail(error, "invalid shard spec");
  }
  if (options.resume && options.journal_path.empty()) {
    return fail(error, "resume requested without a journal path");
  }
  // Callers that bypass expand_grid (formation_time builds its grid by
  // hand) still get the loud pre-run trace check instead of an abort deep
  // inside run_scenario.
  TraceFiles trace_files;
  if (!validate_points_trace(points, error, &trace_files)) return false;

  CampaignOptions effective = options;
  if (options.fault.isolate) {
    if (options.runner.run_job_fn) {
      return fail(error,
                  "process isolation (--isolate) cannot be combined with a "
                  "custom run function (e.g. --telemetry-dir)");
    }
    if (options.fault.exec_path.empty()) {
      return fail(error, "isolate requested without an executable path");
    }
    // Labels ride along so the child can key per-point behavior (the
    // chaos hook) and the parent can verify the echo. shared_ptr: the
    // closure must stay valid after this frame for the worker threads.
    auto labels = std::make_shared<std::vector<std::string>>();
    labels->reserve(points.size());
    for (const GridPoint& point : points) labels->push_back(point.label);
    const std::string exec_path = options.fault.exec_path;
    const double timeout_s = options.fault.job_timeout_s;
    effective.runner.run_job_fn = [labels, exec_path, timeout_s](const Job& job) {
      JobEnvelope envelope;
      envelope.point_index = job.point_index;
      envelope.seed_index = job.seed_index;
      envelope.label = (*labels)[job.point_index];
      envelope.config = job.config;
      return run_job_isolated(exec_path, timeout_s, envelope);
    };
  }

  const std::uint64_t campaign_fp = campaign_fingerprint(points, seeds, &trace_files);
  return run_waves(points, seeds, campaign_fp, effective, out, error);
}

bool run_campaign(const CampaignSpec& spec, const CampaignOptions& options,
                  CampaignResult* out, std::string* error) {
  const std::vector<GridPoint> points = expand_grid(spec, error);
  if (points.empty()) return false;
  return run_points_campaign(points, spec.seeds, options, out, error);
}

bool parse_campaign_flags(const Flags& flags, CampaignOptions* options,
                          std::string* error) {
  std::size_t jobs = 0;
  if (!parse_count_flag(flags, "jobs", &jobs, error)) return false;
  if (flags.has("jobs")) options->runner.jobs = static_cast<int>(jobs);
  if (flags.has("shard") &&
      !parse_shard(flags.get("shard", ""), &options->shard, error)) {
    return false;
  }
  if (flags.has("journal")) {
    const std::string journal_path = flags.get("journal", "");
    // A bare `--journal` parses as the value "true"; require a real path.
    if (journal_path.empty() || journal_path == "true") {
      return fail(error, "--journal: expected a journal path");
    }
    options->journal_path = journal_path;
  }
  if (flags.has("resume")) {
    const std::string resume_path = flags.get("resume", "");
    // A bare `--resume` parses as the value "true"; require a real path.
    if (resume_path.empty() || resume_path == "true") {
      return fail(error, "--resume: expected a journal path");
    }
    if (!options->journal_path.empty() && options->journal_path != resume_path) {
      return fail(error, "--resume conflicts with --journal (pass one or the other)");
    }
    options->journal_path = resume_path;
    options->resume = true;
  }

  AdaptiveOptions& adaptive = options->adaptive;
  if (flags.has("ci-rel")) {
    // Whole-string and finite: `inf` would stop every point at --min-seeds
    // and a typo'd fraction would run silently.
    const std::string v = flags.get("ci-rel", "");
    if (!parse_bounded_double(v, 1e-9, 1e6, &adaptive.ci_rel)) {
      return fail(error,
                  "--ci-rel: expected a positive fraction in [1e-9, 1000000], got '" +
                      v + "'");
    }
  }
  for (const char* name : {"max-seeds", "min-seeds", "batch", "metric"}) {
    if (flags.has(name) && !adaptive.enabled()) {
      return fail(error, std::string("--") + name +
                             " only takes effect with --ci-rel (adaptive seeding)");
    }
  }
  if (!parse_count_flag(flags, "max-seeds", &adaptive.max_seeds, error) ||
      !parse_count_flag(flags, "min-seeds", &adaptive.min_seeds, error) ||
      !parse_count_flag(flags, "batch", &adaptive.batch, error)) {
    return false;
  }
  adaptive.metric = flags.get("metric", adaptive.metric);
  if (metric_by_name(adaptive.metric) == nullptr) {
    return fail(error, "--metric: unknown metric '" + adaptive.metric +
                           "' (see --list-metrics)");
  }

  FaultOptions& fault = options->fault;
  fault.isolate = flags.get_bool("isolate", fault.isolate);
  // Only the isolated executor fails jobs, so without --isolate these would
  // be silent no-ops; reject them loudly like the adaptive-only flags above.
  for (const char* name : {"job-timeout", "retries"}) {
    if (flags.has(name) && !fault.isolate) {
      return fail(error, std::string("--") + name +
                             " only takes effect with --isolate");
    }
  }
  if (flags.has("job-timeout")) {
    // Bounded so the child's deadline stays representable on the steady
    // clock; below a millisecond the poll loop could not honour it.
    const std::string v = flags.get("job-timeout", "");
    if (!parse_bounded_double(v, 1e-3, 1e6, &fault.job_timeout_s)) {
      return fail(error,
                  "--job-timeout: expected a number of seconds in [0.001, "
                  "1000000], got '" + v + "'");
    }
  }
  std::size_t retries = 0;
  if (!parse_count_flag(flags, "retries", &retries, error)) return false;
  if (flags.has("retries")) options->runner.retries = static_cast<int>(retries);
  if (flags.has("retry-quarantined")) {
    fault.retry_quarantined = flags.get_bool("retry-quarantined", false);
    if (fault.retry_quarantined && !options->resume) {
      return fail(error,
                  "--retry-quarantined only takes effect with --resume");
    }
  }
  return true;
}

PointAggregate run_point(const ScenarioConfig& config,
                         const std::vector<std::uint64_t>& seeds,
                         const RunnerOptions& options) {
  GTTSCH_CHECK(!seeds.empty());
  GridPoint point;
  point.config = config;
  const std::vector<Job> jobs = make_jobs({point}, seeds);
  Runner runner(options);
  const Runner::Result run = runner.run(jobs);
  PointAccumulator acc;
  for (const Job& job : jobs) {
    if (run.completed[job.index] &&
        run.outcomes[job.index].status == JobStatus::kOk) {
      acc.add(job.seed_index, run.outcomes[job.index].result);
    }
  }
  return acc.finalize();
}

}  // namespace gttsch::campaign
