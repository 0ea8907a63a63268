// Order-independent aggregation of per-job ExperimentResults into
// seed-averaged statistics (mean / stddev / 95% CI per panel metric).
//
// Parallel workers finish in nondeterministic order; the accumulator keys
// every result by its seed index and reduces in seed order at finalize(),
// so the aggregate is bit-identical to a serial run of the same seed list.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "scenario/experiment.hpp"

namespace gttsch::campaign {

/// Terminal state of one (grid point, seed) job. Everything except kOk is
/// a *quarantined* job: it exhausted its retries and contributes no
/// metrics, only failure accounting.
enum class JobStatus : std::uint8_t {
  kOk,       ///< result is valid
  kCrashed,  ///< isolated child died on a signal (term_signal says which)
  kTimeout,  ///< isolated child exceeded --job-timeout and was SIGKILLed
  kFailed,   ///< nonzero exit, protocol breakage, or in-process watchdog trip
};

/// Stable wire name ("ok" / "crashed" / "timeout" / "failed") — the journal
/// status grammar.
const char* job_status_name(JobStatus status);

/// Inverse of job_status_name; returns false on an unknown name.
bool parse_job_status(const std::string& name, JobStatus* out);

/// Spread of one scalar metric across seeds.
struct SampleStats {
  std::uint64_t n = 0;
  double mean = 0.0;
  double stddev = 0.0;     ///< sample standard deviation (n-1)
  double ci95_half = 0.0;  ///< Student-t 95% half-width of the mean
  double min = 0.0;
  double max = 0.0;
};

/// Summarizes `samples` in the given (deterministic) order.
SampleStats summarize(const std::vector<double>& samples);

/// Two-sided 95% Student-t critical value for `df` degrees of freedom.
double t_critical_95(std::uint64_t df);

/// Seed-aggregated metrics for one grid point: the six panel metrics with
/// across-seed spread, plus the packed means the table printers consume.
struct PointAggregate {
  std::string label;
  std::vector<std::pair<std::string, std::string>> coords;

  SampleStats pdr_percent;
  SampleStats avg_delay_ms;
  SampleStats p95_delay_ms;
  SampleStats loss_per_minute;
  SampleStats duty_cycle_percent;
  SampleStats queue_loss_per_node;
  SampleStats throughput_per_minute;
  SampleStats mean_hops;
  // Churn-phase and probe telemetry (all-zero when the point's runs had
  // no failure trace / no probes).
  SampleStats pre_pdr_percent;
  SampleStats churn_pdr_percent;
  SampleStats post_pdr_percent;
  SampleStats probe_pdr_percent;
  SampleStats probe_avg_latency_ms;
  // Recovery metrics (all-zero without fail/revive trace events).
  SampleStats recovery_rejoin_s;
  SampleStats recovery_first_delivery_s;
  SampleStats recovery_ttr_s;

  RunMetrics mean;        ///< means over runs; counters are summed
  MediumStats medium_sum; ///< summed medium counters over seeds
  int runs = 0;
  int fully_formed_runs = 0;
  // Quarantined jobs (crash / timeout / other failure after retries).
  // They contribute nothing to the statistics above — aggregation
  // degrades gracefully instead of poisoning the means.
  int runs_failed = 0;
  int failed_crashed = 0;
  int failed_timeout = 0;
  int failed_other = 0;
};

/// Report status of a point: "ok" when it has at least one successful run,
/// "failed" when every attempted run was quarantined, "empty" when nothing
/// ran at all (e.g. the point belongs to another shard).
const char* point_status(const PointAggregate& aggregate);

/// Compact per-point failure breakdown for reports, e.g.
/// "crashed:2;timeout:1" — empty when runs_failed == 0.
std::string failure_kinds_label(const PointAggregate& aggregate);

/// Maps a panel-metric name ("pdr_percent", "avg_delay_ms", ...) to its
/// SampleStats member, or nullptr when unknown — used by adaptive
/// stopping (--metric) and anything else that selects metrics by name.
SampleStats PointAggregate::*metric_by_name(const std::string& name);

/// The selectable metric names, in report order.
const std::vector<std::string>& metric_names();

/// Accumulates per-seed results for one grid point in any arrival order.
class PointAccumulator {
 public:
  /// `seed_index` positions the result in the deterministic reduction
  /// order; adding the same index twice is a programming error. A success
  /// supersedes any earlier add_failure for the same index (the
  /// --retry-quarantined path).
  void add(std::size_t seed_index, const ExperimentResult& result);

  /// Records a quarantined job for the point. Ignored when the same seed
  /// index already holds (or later gains) a successful result; duplicate
  /// failures keep the first status.
  void add_failure(std::size_t seed_index, JobStatus status);

  std::size_t size() const { return by_seed_.size(); }
  std::size_t failed_size() const { return failed_.size(); }

  PointAggregate finalize() const;

 private:
  std::map<std::size_t, ExperimentResult> by_seed_;
  std::map<std::size_t, JobStatus> failed_;
};

}  // namespace gttsch::campaign
