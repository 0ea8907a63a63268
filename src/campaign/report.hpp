// Campaign artifact export: one CSV row per grid point (via util/csv) and
// a JSON document carrying the full spread statistics, for external
// plotting and regression tracking.
#pragma once

#include <string>
#include <vector>

#include "campaign/aggregate.hpp"

namespace gttsch::campaign {

/// Column layout: label, one column per axis coordinate, runs,
/// fully_formed_runs, status (ok/failed/empty), failed_jobs,
/// failure_kinds ("kind:count" pairs, ';'-joined, "" when clean), then
/// `<name>_mean`/`_stddev`/`_ci95` per kSpread row of kMetricRows, then
/// one column per other row in table order (mean rows per run, sum rows
/// summed over seeds; MediumStats rows as `medium_<name>`).
/// Coordinate columns come from the first aggregate.
std::vector<std::string> csv_header(const std::vector<PointAggregate>& aggregates);
std::vector<std::string> csv_row(const PointAggregate& aggregate);

/// Renders the aggregates as CSV text (header + one row per point).
std::string render_csv(const std::vector<PointAggregate>& aggregates);

/// Writes the aggregates as CSV via write-temp-then-rename, so a crash
/// mid-write never leaves a truncated report; returns false on I/O
/// failure.
bool write_csv(const std::string& path,
               const std::vector<PointAggregate>& aggregates);

/// Renders the aggregates as a JSON array (stable field order, no
/// external dependency) — the machine-readable campaign artifact. The
/// kSpread rows go under "metrics", the other RunMetrics rows under
/// "counters" and the MediumStats rows under "medium", valued as in the
/// CSV.
std::string render_json(const std::vector<PointAggregate>& aggregates);

/// Writes render_json() to `path`; returns false on I/O failure.
bool write_json(const std::string& path,
                const std::vector<PointAggregate>& aggregates);

}  // namespace gttsch::campaign
