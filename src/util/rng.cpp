#include "util/rng.hpp"

#include <cmath>

namespace gttsch {
namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::uint64_t rotl(std::uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& s : s_) s = splitmix64(sm);
  // xoshiro must not start from the all-zero state.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

Rng Rng::fork(std::uint64_t tag) const {
  // Mix the current state with the tag through splitmix so sibling forks
  // with different tags diverge immediately.
  std::uint64_t mix = s_[0] ^ rotl(s_[2], 17) ^ (tag * 0x9E3779B97F4A7C15ULL);
  return Rng(splitmix64(mix));
}

std::uint64_t Rng::next_u64() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

std::uint64_t Rng::uniform(std::uint64_t bound) {
  if (bound == 0) return 0;
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t threshold = (0 - bound) % bound;
  for (;;) {
    const std::uint64_t r = next_u64();
    if (r >= threshold) return r % bound;
  }
}

double Rng::uniform_double() {
  // 53 high-quality bits into [0,1).
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::uniform_double(double lo, double hi) {
  return lo + (hi - lo) * uniform_double();
}

bool Rng::bernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return uniform_double() < p;
}

double Rng::normal(double mean, double stddev) {
  if (have_spare_normal_) {
    have_spare_normal_ = false;
    return mean + stddev * spare_normal_;
  }
  double u1 = 0.0;
  do {
    u1 = uniform_double();
  } while (u1 <= 1e-300);
  const double u2 = uniform_double();
  const double mag = std::sqrt(-2.0 * std::log(u1));
  const double two_pi = 6.283185307179586;
  spare_normal_ = mag * std::sin(two_pi * u2);
  have_spare_normal_ = true;
  return mean + stddev * mag * std::cos(two_pi * u2);
}

}  // namespace gttsch
