// Shared plumbing of the benchmark harness: config files, JSON output,
// digests, wall/CPU/RSS measurement.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "scenario/experiment.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Ordered (name, value) list: deterministic counts or timings.
using Values = std::vector<std::pair<std::string, double>>;

/// A workload config as written by run.py: `key=value` lines. Keys the
/// campaign grammar knows (campaign::apply_field) set ScenarioConfig
/// fields; `seed` sets the run seed; every other key is a harness setting
/// kept in `settings`.
struct BenchConfig {
  gttsch::ScenarioConfig scenario;
  std::map<std::string, std::string> settings;

  const std::string& setting(const std::string& key) const;
  double number(const std::string& key) const;
};

/// Exits with status 2 and a message on any unreadable or invalid line.
BenchConfig load_config(const std::string& path);

/// One JSON object, fields in insertion order, numbers at full precision.
class JsonObject {
 public:
  void add(const std::string& key, double value);
  void add(const std::string& key, const std::string& value);
  void add(const Values& values);
  void add_raw(const std::string& key, const std::string& json);
  std::string render() const;

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

std::string values_json(const Values& values);

/// `name=value` lines at %.17g: the canonical text digests are taken over.
std::string values_text(const Values& values);

/// Canonical text of everything run_scenario returns: every RunMetrics
/// field, the windowed MediumStats and fully_formed.
std::string result_text(const gttsch::ExperimentResult& result);

/// 64-bit FNV-1a of `text`, as 16 hex digits.
std::string digest(const std::string& text);

/// User+system CPU seconds and peak resident MiB of this process so far.
struct Usage {
  double cpu_s = 0.0;
  double peak_rss_mib = 0.0;
};
Usage process_usage();

double file_size(const std::string& path);

/// Host-speed probe: runs a fixed discrete-event-style kernel (a binary heap
/// of timestamps driving scattered object updates) and returns its wall
/// time over kProbeNominal_s. The kernel lives in the harness, so it never
/// changes with the simulator; other tenants of a shared host slow it
/// about as much as they slow the simulator, so timings divided by the
/// probe's slowdown no longer drift with the host.
double host_slowdown();

/// The probe kernel's wall time on an idle host (the scale of the
/// normalised timings).
inline constexpr double kProbeNominal_s = 0.0015;

/// Median of `samples` (mean of the middle two for an even count).
double median(std::vector<double> samples);

/// Quantile q in [0, 1] by linear interpolation between order statistics.
double quantile(std::vector<double> samples, double q);

[[noreturn]] void die(const std::string& message);

}  // namespace perfbench
