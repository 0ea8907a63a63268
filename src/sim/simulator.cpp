#include "sim/simulator.hpp"

#include <chrono>

#include "util/check.hpp"

namespace gttsch {

namespace {

double steady_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

Simulator::Simulator(std::uint64_t seed) : rng_(seed), seed_(seed) {}

void Simulator::arm_watchdog(const Watchdog& watchdog) {
  watchdog_ = watchdog;
  watchdog_armed_ = watchdog.max_wall_s > 0.0 || watchdog.livelock_events > 0;
  watchdog_tripped_ = false;
  watchdog_reason_.clear();
  watchdog_deadline_ =
      watchdog.max_wall_s > 0.0 ? steady_seconds() + watchdog.max_wall_s : 0.0;
  wd_last_time_ = -1;
  wd_same_ = 0;
}

void Simulator::trip_watchdog(const std::string& reason) {
  if (watchdog_tripped_) return;
  watchdog_reason_ = reason;
  watchdog_tripped_ = true;
}

bool Simulator::watchdog_step() {
  if (watchdog_tripped_) return true;
  if (watchdog_.livelock_events > 0) {
    if (now_ == wd_last_time_) {
      if (++wd_same_ > watchdog_.livelock_events) {
        trip_watchdog("livelock: over " +
                      std::to_string(watchdog_.livelock_events) +
                      " events at virtual time " + std::to_string(now_) +
                      " us");
        return true;
      }
    } else {
      wd_last_time_ = now_;
      wd_same_ = 1;
    }
  }
  if (watchdog_deadline_ > 0.0 && (processed_ & 0xFFF) == 0 &&
      steady_seconds() > watchdog_deadline_) {
    trip_watchdog("wall-clock budget of " + std::to_string(watchdog_.max_wall_s) +
                  " s exceeded");
    return true;
  }
  return false;
}

EventId Simulator::at(TimeUs when, SmallFn&& fn) {
  return at_keyed(when, kDefaultEventKey, std::move(fn));
}

EventId Simulator::after(TimeUs delay, SmallFn&& fn) {
  return after_keyed(delay, kDefaultEventKey, std::move(fn));
}

EventId Simulator::at_keyed(TimeUs when, std::uint32_t key, SmallFn&& fn) {
  GTTSCH_CHECK(when >= now_);
  return schedule_impl(when, key, std::move(fn));
}

EventId Simulator::after_keyed(TimeUs delay, std::uint32_t key,
                               SmallFn&& fn) {
  GTTSCH_CHECK(delay >= 0);
  return schedule_impl(now_ + delay, key, std::move(fn));
}

EventId Simulator::schedule_impl(TimeUs when, std::uint32_t key,
                                 SmallFn&& fn) {
  // The event inherits the owner of the event being executed.
  const std::uint32_t slot = pool_.alloc(free_slots_);
  EventRecord& rec = pool_.record(slot);
  rec.fn = std::move(fn);
  rec.armed = true;
  rec.cancelled = false;
  queue_.push(EventEntry{when, next_seq_++, key, owner_, slot});
  ++live_;
  return make_event_id(rec.generation, slot);
}

void Simulator::cancel(EventId id) {
  EventRecord* rec = pool_.record_for(id);
  if (rec == nullptr || !rec->armed || rec->cancelled) return;
  rec->cancelled = true;
  rec->fn.reset();  // release captures now; the queue entry leaves later
  GTTSCH_CHECK(live_ > 0);
  --live_;
}

void Simulator::execute(const EventEntry& e) {
  GTTSCH_CHECK(e.at >= now_);
  // Advance the clock before running: callbacks must see now() == e.at.
  now_ = e.at;
  owner_ = e.owner;
  GTTSCH_CHECK(live_ > 0);
  --live_;
  // The callback runs in its pool record (see EventPool::run); it may
  // schedule and cancel events, its own id included, and grow the pool.
  pool_.run(e.slot, free_slots_);
  ++processed_;
  owner_ = kGlobalOwner;
}

void Simulator::run_through(TimeUs until) {
  for (;;) {
    const EventEntry* top = queue_.next_live(until, pool_, free_slots_);
    if (top == nullptr) return;
    const EventEntry e = *top;
    queue_.pop_front();
    execute(e);
    if (watchdog_armed_ && watchdog_step()) return;
  }
}

void Simulator::run_until(TimeUs until) {
  if (watchdog_tripped_) return;
  run_through(until);
  if (!watchdog_tripped_ && now_ < until) now_ = until;
}

void Simulator::run_all() {
  if (watchdog_tripped_) return;
  run_through(kInfiniteTime);
}

}  // namespace gttsch
