#include "campaign/aggregate.hpp"

#include <algorithm>
#include <cmath>
#include <type_traits>

#include "util/check.hpp"

namespace gttsch::campaign {

const char* job_status_name(JobStatus status) {
  switch (status) {
    case JobStatus::kOk: return "ok";
    case JobStatus::kCrashed: return "crashed";
    case JobStatus::kTimeout: return "timeout";
    case JobStatus::kFailed: return "failed";
  }
  GTTSCH_CHECK(false);
  return "?";
}

bool parse_job_status(const std::string& name, JobStatus* out) {
  for (const JobStatus s : {JobStatus::kOk, JobStatus::kCrashed,
                            JobStatus::kTimeout, JobStatus::kFailed}) {
    if (name == job_status_name(s)) {
      *out = s;
      return true;
    }
  }
  return false;
}

const char* point_status(const PointAggregate& a) {
  if (a.runs > 0) return "ok";
  return a.runs_failed > 0 ? "failed" : "empty";
}

std::string failure_kinds_label(const PointAggregate& a) {
  std::string out;
  const auto append = [&out](const char* kind, int count) {
    if (count == 0) return;
    if (!out.empty()) out += ';';
    out += kind;
    out += ':';
    out += std::to_string(count);
  };
  append("crashed", a.failed_crashed);
  append("timeout", a.failed_timeout);
  append("failed", a.failed_other);
  return out;
}

double t_critical_95(std::uint64_t df) {
  // Two-sided 95% quantiles of the Student-t distribution; beyond df=30
  // the normal value is accurate to well under the precision we report.
  static constexpr double kTable[] = {
      12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
      2.201,  2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
      2.080,  2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042};
  if (df == 0) return 0.0;
  if (df <= 30) return kTable[df - 1];
  return 1.960;
}

SampleStats summarize(const std::vector<double>& samples) {
  SampleStats s;
  s.n = samples.size();
  if (samples.empty()) return s;
  s.min = samples.front();
  s.max = samples.front();
  double sum = 0.0;
  for (const double x : samples) {
    sum += x;
    if (x < s.min) s.min = x;
    if (x > s.max) s.max = x;
  }
  const double n = static_cast<double>(s.n);
  s.mean = sum / n;
  // n == 1 keeps stddev at 0 and ci95_half at 0 (reported as blank/null):
  // sq / (n - 1.0) would be 0/0 = NaN and leak into every report column.
  if (s.n > 1) {
    double sq = 0.0;
    for (const double x : samples) sq += (x - s.mean) * (x - s.mean);
    s.stddev = std::sqrt(sq / (n - 1.0));
    s.ci95_half = t_critical_95(s.n - 1) * s.stddev / std::sqrt(n);
  }
  return s;
}

SampleStats PointAggregate::*metric_by_name(const std::string& name) {
  for (const MetricRow& row : kMetricRows) {
    if (row.fold == Fold::kSpread && name == row.name) return row.stats;
  }
  return nullptr;
}

const std::vector<std::string>& metric_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> v;
    for (const MetricRow& row : kMetricRows) {
      if (row.fold == Fold::kSpread) v.push_back(row.name);
    }
    return v;
  }();
  return names;
}

void PointAccumulator::add(std::size_t seed_index, const ExperimentResult& result) {
  const bool inserted = by_seed_.emplace(seed_index, result).second;
  GTTSCH_CHECK(inserted);
  // A success supersedes a quarantined record for the same seed — the
  // --retry-quarantined path appends the retried result to the same
  // journal, and the newer ok record must win.
  failed_.erase(seed_index);
}

void PointAccumulator::add_failure(std::size_t seed_index, JobStatus status) {
  GTTSCH_CHECK(status != JobStatus::kOk);
  if (by_seed_.count(seed_index) > 0) return;  // ok already recorded: it wins
  failed_.emplace(seed_index, status);         // duplicate failures keep-first
}

PointAggregate PointAccumulator::finalize() const {
  PointAggregate out;
  for (const auto& [seed_index, status] : failed_) {
    ++out.runs_failed;
    switch (status) {
      case JobStatus::kCrashed: ++out.failed_crashed; break;
      case JobStatus::kTimeout: ++out.failed_timeout; break;
      default: ++out.failed_other; break;
    }
  }
  if (by_seed_.empty()) return out;

  for (const auto& [seed_index, result] : by_seed_) {
    if (result.fully_formed) ++out.fully_formed_runs;
    ++out.runs;
  }
  // Each row folds its per-seed values in seed order (std::map iterates in
  // key order, so arrival order is irrelevant).
  std::vector<double> samples;
  samples.reserve(by_seed_.size());
  for (const MetricRow& row : kMetricRows) {
    std::visit(
        [&](auto member) {
          auto& total = metric_ref(out.mean, out.medium_sum, member);
          using T = std::remove_reference_t<decltype(total)>;
          if (row.fold == Fold::kSpread) {
            samples.clear();
            for (const auto& [seed_index, result] : by_seed_) {
              samples.push_back(
                  static_cast<double>(metric_ref(result.metrics, result.medium, member)));
            }
            out.*row.stats = summarize(samples);
            total = static_cast<T>((out.*row.stats).mean);
            return;
          }
          for (const auto& [seed_index, result] : by_seed_) {
            const T value = metric_ref(result.metrics, result.medium, member);
            switch (row.fold) {
              case Fold::kMean:
              case Fold::kSum: total += value; break;
              case Fold::kLast: total = value; break;
              case Fold::kMax: total = std::max(total, value); break;
              case Fold::kSpread: break;
            }
          }
          if constexpr (std::is_floating_point_v<T>) {
            if (row.fold == Fold::kMean) total /= static_cast<double>(out.runs);
          }
        },
        row.member);
  }
  return out;
}

}  // namespace gttsch::campaign
