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
#include <variant>
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
  kFailed,   ///< isolated child exited nonzero or broke the run-job protocol
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

/// Seed-aggregated metrics for one grid point, folded per kMetricRows row:
/// spread rows into their SampleStats member, every row into `mean` or
/// `medium_sum`.
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

  /// Every RunMetrics row's fold: the mean of spread and mean rows, the
  /// seed sum of sum rows (and of nodes_joined, an integer mean row).
  RunMetrics mean;
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

/// How a metric row's per-seed values fold into the point's aggregate.
enum class Fold : std::uint8_t {
  /// Spread across seeds in the row's SampleStats member; `mean` holds
  /// its mean. Reports show mean, stddev and ci95; --metric selects it.
  kSpread,
  /// Mean over runs. An integer member keeps the seed sum in the
  /// aggregate (it cannot hold a fraction); the reports divide by runs.
  kMean,
  kSum,   ///< summed over seeds
  kLast,  ///< the last seed's value (equal in every run, e.g. node_count)
  kMax,   ///< the largest value (churn_phases: 1 when any run split)
};

/// A RunMetrics or MediumStats member, by its type.
using MetricMember = std::variant<double RunMetrics::*, std::uint64_t RunMetrics::*,
                                  std::uint64_t MediumStats::*>;

/// One RunMetrics / MediumStats member: its journal and report name, the
/// member, how seeds fold, and (kSpread only) where the spread lives.
struct MetricRow {
  const char* name;
  MetricMember member;
  Fold fold;
  SampleStats PointAggregate::*stats = nullptr;
};

// Every RunMetrics and MediumStats member is one row. The journal writer
// and parser, PointAccumulator::finalize, metric_by_name and the CSV/JSON
// reports all iterate this table, so they cannot drift apart. Row order is
// the journal's key order; changing it changes every journal line.
inline constexpr MetricRow kMetricRows[] = {
    {"pdr_percent", &RunMetrics::pdr_percent, Fold::kSpread,
     &PointAggregate::pdr_percent},
    {"avg_delay_ms", &RunMetrics::avg_delay_ms, Fold::kSpread,
     &PointAggregate::avg_delay_ms},
    {"p95_delay_ms", &RunMetrics::p95_delay_ms, Fold::kSpread,
     &PointAggregate::p95_delay_ms},
    {"loss_per_minute", &RunMetrics::loss_per_minute, Fold::kSpread,
     &PointAggregate::loss_per_minute},
    {"duty_cycle_percent", &RunMetrics::duty_cycle_percent, Fold::kSpread,
     &PointAggregate::duty_cycle_percent},
    {"queue_loss_per_node", &RunMetrics::queue_loss_per_node, Fold::kSpread,
     &PointAggregate::queue_loss_per_node},
    {"throughput_per_minute", &RunMetrics::throughput_per_minute, Fold::kSpread,
     &PointAggregate::throughput_per_minute},
    {"mean_hops", &RunMetrics::mean_hops, Fold::kSpread, &PointAggregate::mean_hops},
    {"measure_minutes", &RunMetrics::measure_minutes, Fold::kMean},
    {"pre_pdr_percent", &RunMetrics::pre_pdr_percent, Fold::kSpread,
     &PointAggregate::pre_pdr_percent},
    {"churn_pdr_percent", &RunMetrics::churn_pdr_percent, Fold::kSpread,
     &PointAggregate::churn_pdr_percent},
    {"post_pdr_percent", &RunMetrics::post_pdr_percent, Fold::kSpread,
     &PointAggregate::post_pdr_percent},
    {"pre_avg_delay_ms", &RunMetrics::pre_avg_delay_ms, Fold::kMean},
    {"churn_avg_delay_ms", &RunMetrics::churn_avg_delay_ms, Fold::kMean},
    {"post_avg_delay_ms", &RunMetrics::post_avg_delay_ms, Fold::kMean},
    {"probe_pdr_percent", &RunMetrics::probe_pdr_percent, Fold::kSpread,
     &PointAggregate::probe_pdr_percent},
    {"probe_avg_latency_ms", &RunMetrics::probe_avg_latency_ms, Fold::kSpread,
     &PointAggregate::probe_avg_latency_ms},
    {"recovery_rejoin_s", &RunMetrics::recovery_rejoin_s, Fold::kSpread,
     &PointAggregate::recovery_rejoin_s},
    {"recovery_first_delivery_s", &RunMetrics::recovery_first_delivery_s,
     Fold::kSpread, &PointAggregate::recovery_first_delivery_s},
    {"recovery_ttr_s", &RunMetrics::recovery_ttr_s, Fold::kSpread,
     &PointAggregate::recovery_ttr_s},
    {"generated", &RunMetrics::generated, Fold::kSum},
    {"delivered", &RunMetrics::delivered, Fold::kSum},
    {"queue_drops", &RunMetrics::queue_drops, Fold::kSum},
    {"mac_drops", &RunMetrics::mac_drops, Fold::kSum},
    {"no_route_drops", &RunMetrics::no_route_drops, Fold::kSum},
    {"nodes_joined", &RunMetrics::nodes_joined, Fold::kMean},
    {"node_count", &RunMetrics::node_count, Fold::kLast},
    {"churn_phases", &RunMetrics::churn_phases, Fold::kMax},
    {"pre_generated", &RunMetrics::pre_generated, Fold::kSum},
    {"churn_generated", &RunMetrics::churn_generated, Fold::kSum},
    {"post_generated", &RunMetrics::post_generated, Fold::kSum},
    {"pre_delivered", &RunMetrics::pre_delivered, Fold::kSum},
    {"churn_delivered", &RunMetrics::churn_delivered, Fold::kSum},
    {"post_delivered", &RunMetrics::post_delivered, Fold::kSum},
    {"probes_sent", &RunMetrics::probes_sent, Fold::kSum},
    {"probes_delivered", &RunMetrics::probes_delivered, Fold::kSum},
    {"node_failures", &RunMetrics::node_failures, Fold::kSum},
    {"node_revivals", &RunMetrics::node_revivals, Fold::kSum},
    {"node_rejoins", &RunMetrics::node_rejoins, Fold::kSum},
    {"orphan_intervals", &RunMetrics::orphan_intervals, Fold::kSum},
    {"recovery_ttr_censored", &RunMetrics::recovery_ttr_censored, Fold::kSum},
    {"transmissions", &MediumStats::transmissions, Fold::kSum},
    {"deliveries", &MediumStats::deliveries, Fold::kSum},
    {"collision_losses", &MediumStats::collision_losses, Fold::kSum},
    {"prr_losses", &MediumStats::prr_losses, Fold::kSum},
};
// Trips on a member added to RunMetrics or MediumStats without a row,
// which would silently drop out of journals and reports. Gated like
// kFields' size check in spec.cpp.
#if (defined(__x86_64__) || defined(__aarch64__)) && defined(_GLIBCXX_RELEASE)
static_assert(sizeof(RunMetrics) == 328 && sizeof(MediumStats) == 32,
              "RunMetrics or MediumStats changed: add the member to "
              "kMetricRows, then update these sizes");
#endif

/// True for the rows naming a MediumStats member (the journal's and the
/// JSON report's "medium" object).
constexpr bool is_medium(const MetricRow& row) {
  return std::holds_alternative<std::uint64_t MediumStats::*>(row.member);
}

/// The member a row names, within a run's (metrics, medium) or an
/// aggregate's (mean, medium_sum); const when the objects are.
template <typename T, typename Metrics, typename Medium>
auto& metric_ref(Metrics& metrics, Medium&, T RunMetrics::*member) {
  return metrics.*member;
}
template <typename T, typename Metrics, typename Medium>
auto& metric_ref(Metrics&, Medium& medium, T MediumStats::*member) {
  return medium.*member;
}

/// Report status of a point: "ok" when it has at least one successful run,
/// "failed" when every attempted run was quarantined, "empty" when nothing
/// ran at all (e.g. the point belongs to another shard).
const char* point_status(const PointAggregate& aggregate);

/// Compact per-point failure breakdown for reports, e.g.
/// "crashed:2;timeout:1" — empty when runs_failed == 0.
std::string failure_kinds_label(const PointAggregate& aggregate);

/// Maps a kSpread row's name ("pdr_percent", "avg_delay_ms", ...) to its
/// SampleStats member, or nullptr when unknown — used by adaptive
/// stopping (--metric) and anything else that selects metrics by name.
SampleStats PointAggregate::*metric_by_name(const std::string& name);

/// The kSpread row names, in table order.
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

  PointAggregate finalize() const;

 private:
  std::map<std::size_t, ExperimentResult> by_seed_;
  std::map<std::size_t, JobStatus> failed_;
};

}  // namespace gttsch::campaign
