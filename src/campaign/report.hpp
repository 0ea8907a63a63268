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
/// mean/stddev/ci95 per panel metric, then the summed counters, then
/// nodes_joined (the per-seed mean).
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
/// external dependency) — the machine-readable campaign artifact.
std::string render_json(const std::vector<PointAggregate>& aggregates);

/// Writes render_json() to `path`; returns false on I/O failure.
bool write_json(const std::string& path,
                const std::vector<PointAggregate>& aggregates);

}  // namespace gttsch::campaign
