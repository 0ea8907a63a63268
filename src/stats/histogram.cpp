#include "stats/histogram.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"

namespace gttsch {

void SummaryStats::add(double x) {
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
}

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), width_((hi - lo) / static_cast<double>(bins)), bins_(bins, 0) {
  GTTSCH_CHECK(hi > lo && bins > 0);
}

void Histogram::add(double x) {
  const double clamped = std::clamp(x, lo_, std::nextafter(hi_, lo_));
  auto idx = static_cast<std::size_t>((clamped - lo_) / width_);
  idx = std::min(idx, bins_.size() - 1);
  ++bins_[idx];
  ++total_;
}

double Histogram::quantile(double q) const {
  if (total_ == 0) return lo_;
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(total_);
  double cum = 0.0;
  for (std::size_t i = 0; i < bins_.size(); ++i) {
    const double next = cum + static_cast<double>(bins_[i]);
    if (next >= target) {
      const double frac = bins_[i] == 0 ? 0.0 : (target - cum) / static_cast<double>(bins_[i]);
      return lo_ + (static_cast<double>(i) + frac) * width_;
    }
    cum = next;
  }
  return hi_;
}

}  // namespace gttsch
