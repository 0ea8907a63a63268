// Parallel campaign execution: a std::thread worker pool pulls jobs off a
// shared index counter, each job running its own private Simulator via
// run_scenario — runs are embarrassingly parallel and bit-identical to
// serial execution for the same seed, whatever the completion order.
//
// On top of the pool, run_points_campaign adds the pieces that make
// million-run campaigns practical (see ROADMAP):
//   * sharding   — run only `--shard i/N` of the jobs; shards merge later,
//   * journaling — append each finished job to a crash-safe JSONL journal
//                  and `resume` by skipping jobs already recorded,
//   * adaptive seeding — per-point sequential seed batches that stop once
//                  the 95% CI half-width of a chosen metric is tight,
//   * isolation  — each job in a child process with a wall-clock budget,
//                  so a crash or hang quarantines one job.
// Fixed and adaptive seeding share one wave loop: a fixed campaign is a
// single wave of this shard's pending jobs.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "campaign/aggregate.hpp"
#include "campaign/shard.hpp"
#include "campaign/spec.hpp"
#include "util/flags.hpp"

namespace gttsch::campaign {

/// How one job ended, after all retries: an ok result, or a quarantined
/// failure with enough forensics for the journal (exit code / signal /
/// attempt count).
struct JobOutcome {
  JobOutcome() = default;
  /// An ok outcome, so a job hook that cannot fail may return its
  /// ExperimentResult directly.
  JobOutcome(ExperimentResult ok) : result(std::move(ok)) {}

  JobStatus status = JobStatus::kOk;
  int exit_code = 0;    ///< child exit code (status == kFailed)
  int term_signal = 0;  ///< fatal signal number (status == kCrashed)
  int attempts = 1;     ///< executions spent (1 + retries used)
  std::string detail;   ///< human-readable failure note for the summary
  ExperimentResult result;  ///< valid only when status == kOk
};

/// Snapshot handed to the progress callback after each job completes.
/// Retried jobs report once, with their final outcome.
struct Progress {
  std::size_t completed = 0;  ///< jobs finished so far (including this one)
  std::size_t total = 0;
  const Job* job = nullptr;             ///< the job that just finished
  const JobOutcome* outcome = nullptr;  ///< full outcome incl. failures
};

struct RunnerOptions {
  /// Worker threads; 0 defers to the GTTSCH_JOBS environment variable,
  /// then std::thread::hardware_concurrency().
  int jobs = 0;
  /// Invoked after every job, serialized (never concurrently).
  std::function<void(const Progress&)> on_progress;
  /// How one job is executed; empty runs run_scenario(job.config). Gets
  /// the whole Job so per-job artifacts can be keyed by point/seed index
  /// (gt_campaign --telemetry-dir writes one JSONL per job). A non-ok
  /// outcome is retried per `retries` below, then quarantined; the
  /// isolated executor (FaultOptions::isolate) is the hook that fails.
  std::function<JobOutcome(const Job&)> run_job_fn;
  /// Re-executions granted to a failing job before it is quarantined.
  int retries = 0;
  /// First retry backoff; doubles per subsequent retry (capped at 10 s).
  int retry_backoff_ms = 200;
  /// Optional external cancellation (e.g. a SIGINT flag): polled between
  /// jobs exactly like Runner::cancel(). Must outlive run().
  const std::atomic<bool>* cancel_flag = nullptr;
};

class Runner {
 public:
  explicit Runner(RunnerOptions options = {});

  struct Result {
    /// Positional: outcomes[i] belongs to jobs[i] of the run() argument,
    /// regardless of completion order. A non-ok outcome is a quarantined
    /// job — already retried per RunnerOptions::retries.
    std::vector<JobOutcome> outcomes;
    /// completed[i] is false only when the run was cancelled before job i.
    std::vector<std::uint8_t> completed;
    bool cancelled = false;
  };

  /// Executes every job; blocks until done (or cancelled). Safe to call
  /// repeatedly; each call resets the cancellation flag.
  Result run(const std::vector<Job>& jobs);

  /// Thread-safe: workers stop claiming new jobs; in-flight jobs finish.
  void cancel() { cancel_.store(true, std::memory_order_relaxed); }

 private:
  RunnerOptions options_;
  std::atomic<bool> cancel_{false};
};

/// Statistical stopping rule for adaptive seeding: grow each grid point's
/// seed count in batches until the 95% CI half-width of `metric` drops to
/// `ci_rel` * |mean| (relative half-width), or `max_seeds` is reached.
struct AdaptiveOptions {
  double ci_rel = 0.0;        ///< relative CI target; <= 0 disables adaptivity
  std::size_t min_seeds = 3;  ///< never stop before this many seeds
  std::size_t max_seeds = 0;  ///< hard cap; 0 = the provided seed-list length
  std::size_t batch = 2;      ///< seeds added per wave after min_seeds
  std::string metric = "pdr_percent";  ///< see metric_names()

  bool enabled() const { return ci_rel > 0.0; }
};

/// Fault-tolerant execution (the --isolate / --job-timeout surface;
/// --retries lands in RunnerOptions::retries). Failures never stop the
/// campaign: after the runner's retries a failing job is *quarantined* —
/// journaled with its status, counted in the aggregates' runs_failed, and
/// skipped on resume unless retry_quarantined asks for another attempt.
struct FaultOptions {
  /// Run each job in a forked child re-entering `exec_path run-job`, so a
  /// crash/OOM/livelock costs one job, not the campaign.
  bool isolate = false;
  /// Path of the binary implementing the run-job protocol (gt_campaign
  /// sets its own path); empty + isolate is a spec error.
  std::string exec_path;
  /// Wall-clock budget per isolated job in seconds; <= 0 = unlimited. The
  /// child is SIGKILLed on expiry (kTimeout).
  double job_timeout_s = 0.0;
  /// With resume: re-run quarantined journal records instead of skipping
  /// them (ok records are always skipped).
  bool retry_quarantined = false;
};

/// Everything beyond raw pool execution: sharding, journal/resume,
/// adaptive seeding, fault tolerance.
struct CampaignOptions {
  RunnerOptions runner;
  ShardSpec shard;           ///< jobs (fixed mode) / points (adaptive mode)
  std::string journal_path;  ///< append per-job JSONL records ("" = off)
  /// Read `journal_path` first and skip every job it records; a missing
  /// journal file is an empty journal (fresh start), so crash-loop
  /// scripts can pass --resume unconditionally.
  bool resume = false;
  AdaptiveOptions adaptive;
  FaultOptions fault;
};

/// Why a campaign call returned false — callers map kSpec to a usage
/// exit (2) and kIo to a runtime exit (1).
enum class CampaignErrorKind {
  kSpec,  ///< bad spec/options or a journal that mismatches the campaign
  kIo,    ///< journal unreadable/unwritable, write failure (disk full, ...)
};

/// A campaign end-to-end: expand the spec, run all jobs on the pool, merge
/// per-seed results into one PointAggregate per grid point.
struct CampaignResult {
  std::vector<GridPoint> points;
  std::vector<PointAggregate> aggregates;  ///< parallel to `points`
  bool cancelled = false;
  std::size_t jobs_run = 0;      ///< executed by this invocation
  std::size_t jobs_skipped = 0;  ///< satisfied from the resume journal
  /// Quarantined jobs visible in the aggregates (this run's failures plus
  /// quarantined resume records that were not retried). > 0 maps to
  /// gt_campaign exit code 3.
  std::size_t jobs_failed = 0;
  CampaignErrorKind error_kind = CampaignErrorKind::kSpec;  ///< valid on failure
};

/// The full engine over an explicit point list (points[i].index must be i,
/// as expand_grid produces). Grid points outside this process's shard get
/// empty aggregates (runs == 0); their results live in other shards'
/// journals until `gt_campaign merge`.
bool run_points_campaign(const std::vector<GridPoint>& points,
                         const std::vector<std::uint64_t>& seeds,
                         const CampaignOptions& options, CampaignResult* out,
                         std::string* error);

bool run_campaign(const CampaignSpec& spec, const CampaignOptions& options,
                  CampaignResult* out, std::string* error);

/// Shared command-line surface for the scale-out options — used by both
/// gt_campaign and formation_time so the flag grammar cannot drift:
///   --jobs N, --shard i/N, --journal PATH, --resume PATH (conflicts with
///   an unequal --journal), --ci-rel FRAC, the adaptive-only flags
///   --max-seeds/--min-seeds/--batch/--metric, which error out loudly
///   when given without --ci-rel (they would otherwise be silent no-ops),
///   and the fault-tolerance flags --isolate, --job-timeout S and
///   --retries N (both require --isolate), and --retry-quarantined (which
///   requires --resume).
/// Count-valued flags are validated (digits only, bounded) and
/// --job-timeout must be a finite number of seconds in range: a negative,
/// non-numeric, infinite or bare path-less value is a usage error, never a
/// silent wraparound or a journal literally named "true".
bool parse_campaign_flags(const Flags& flags, CampaignOptions* options,
                          std::string* error);

/// One scenario over all `seeds` on the pool: means, summed counters and
/// spread statistics, as a campaign point reports them.
PointAggregate run_point(const ScenarioConfig& config,
                         const std::vector<std::uint64_t>& seeds,
                         const RunnerOptions& options = {});

}  // namespace gttsch::campaign
