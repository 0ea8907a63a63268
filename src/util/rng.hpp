// Deterministic pseudo-random number generation.
//
// Every stochastic component (medium, backoff, trickle, traffic jitter)
// derives its own stream from a run seed, so a scenario replays identically
// for a given seed regardless of how components interleave their draws.
#pragma once

#include <cstdint>
#include <vector>

namespace gttsch {

/// xoshiro256** with splitmix64 seeding. Small, fast, good quality, and —
/// unlike std::mt19937 uses — fully specified so results are portable.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL);

  /// Derive an independent child stream, e.g. one per node or per component.
  /// Child streams with distinct tags never correlate with the parent.
  Rng fork(std::uint64_t tag) const;

  std::uint64_t next_u64();

  /// Uniform in [0, bound). bound == 0 returns 0.
  std::uint64_t uniform(std::uint64_t bound);

  /// Uniform double in [0, 1).
  double uniform_double();

  /// Uniform double in [lo, hi).
  double uniform_double(double lo, double hi);

  /// Bernoulli trial with success probability p (clamped to [0,1]).
  bool bernoulli(double p);

  /// Standard normal via Box-Muller (deterministic pairing).
  double normal(double mean = 0.0, double stddev = 1.0);

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::size_t j = static_cast<std::size_t>(uniform(i));
      std::swap(v[i - 1], v[j]);
    }
  }

  /// Pick a uniformly random element; v must be non-empty.
  template <typename T>
  const T& pick(const std::vector<T>& v) {
    return v[static_cast<std::size_t>(uniform(v.size()))];
  }

 private:
  std::uint64_t s_[4];
  bool have_spare_normal_ = false;
  double spare_normal_ = 0.0;
};

}  // namespace gttsch
