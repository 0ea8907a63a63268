// Streaming summary statistics and a fixed-bin histogram for latency data.
#pragma once

#include <cstdint>
#include <vector>

namespace gttsch {

/// Running mean without storing samples (Welford's update).
class SummaryStats {
 public:
  void add(double x);

  std::uint64_t count() const { return n_; }
  double mean() const { return n_ == 0 ? 0.0 : mean_; }

 private:
  std::uint64_t n_ = 0;
  double mean_ = 0.0;
};

/// Fixed-width bins over [lo, hi); out-of-range samples clamp to the edge
/// bins. Supports approximate quantiles.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t bins);

  void add(double x);
  std::uint64_t count() const { return total_; }

  /// Approximate quantile (q in [0,1]) via linear interpolation in-bin.
  double quantile(double q) const;

  const std::vector<std::uint64_t>& bins() const { return bins_; }

 private:
  double lo_;
  double hi_;
  double width_;
  std::vector<std::uint64_t> bins_;
  std::uint64_t total_ = 0;
};

}  // namespace gttsch
