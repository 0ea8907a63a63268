// Restartable one-shot and periodic timers bound to a Simulator.
#pragma once

#include <functional>

#include "sim/simulator.hpp"

namespace gttsch {

/// One-shot timer; re-arming cancels any pending expiry.
///
/// The timer holds only the id of its pending event. The callback (a
/// SmallFn, so arming never heap-allocates and the per-slot MAC hot path
/// stays allocation-free) is moved straight into the event's pool record
/// and runs there, and the record clears the timer's id just before the
/// call: running() is false inside the callback, which may re-arm the
/// timer or destroy it. `key` (default kDefaultEventKey) selects the
/// event's same-time ordering class; the MAC slot timer passes the node
/// id.
class OneShotTimer {
 public:
  explicit OneShotTimer(Simulator& sim, std::uint32_t key = kDefaultEventKey)
      : sim_(sim), key_(key) {}
  ~OneShotTimer() { stop(); }
  OneShotTimer(const OneShotTimer&) = delete;
  OneShotTimer& operator=(const OneShotTimer&) = delete;

  void start(TimeUs delay, SmallFn fn);
  void stop();
  bool running() const { return id_ != kInvalidEvent; }

 private:
  Simulator& sim_;
  std::uint32_t key_;
  EventId id_ = kInvalidEvent;  // the pending event's record points here
};

/// Fixed-period timer. The callback runs every `period` after `start`,
/// optionally with a uniformly random per-tick jitter in [0, jitter).
class PeriodicTimer {
 public:
  explicit PeriodicTimer(Simulator& sim) : sim_(sim) {}
  ~PeriodicTimer() { stop(); }
  PeriodicTimer(const PeriodicTimer&) = delete;
  PeriodicTimer& operator=(const PeriodicTimer&) = delete;

  void start(TimeUs first_delay, TimeUs period, std::function<void()> fn,
             Rng* jitter_rng = nullptr, TimeUs jitter = 0);
  void stop();
  bool running() const { return id_ != kInvalidEvent; }

 private:
  void arm(TimeUs delay);

  Simulator& sim_;
  EventId id_ = kInvalidEvent;
  TimeUs period_ = 0;
  TimeUs jitter_ = 0;
  Rng* jitter_rng_ = nullptr;
  std::function<void()> fn_;
};

}  // namespace gttsch
