// Application-layer traffic sources for the convergecast workloads of the
// paper's evaluation (each node generating 30..165 packets per minute).
#pragma once

#include <functional>

#include "sim/simulator.hpp"
#include "sim/timer.hpp"
#include "util/rng.hpp"

namespace gttsch {

/// Periodic (CBR) source with per-packet jitter. Calls `on_generate` at a
/// mean rate of `packets_per_minute`; jitter desynchronises nodes so
/// generation does not phase-lock to slotframes.
class PeriodicSource {
 public:
  PeriodicSource(Simulator& sim, Rng rng, double packets_per_minute,
                 std::function<void()> on_generate);

  /// Begin generating after `start_delay` (plus a random initial phase).
  void start(TimeUs start_delay);
  void stop();

  /// Stop generating after this absolute sim time (0 = never).
  void set_end_time(TimeUs end) { end_time_ = end; }

  std::uint64_t generated() const { return generated_; }

 private:
  void arm_next();

  Simulator& sim_;
  Rng rng_;
  double ppm_;
  TimeUs mean_interval_;
  std::function<void()> on_generate_;
  OneShotTimer timer_;
  TimeUs end_time_ = 0;
  std::uint64_t generated_ = 0;
};

}  // namespace gttsch
