// Discrete-event simulation core: a virtual clock plus an event queue.
//
// Events run in the total order (at, key, owner, seq). Pending events sit
// in one InstantQueue (see event_queue.hpp): a heap over distinct instants
// plus an ordered batch for the current one, so the many events that share
// a TSCH slot boundary cost no heap operation each. Callbacks live in an
// EventPool, a OneShotTimer's included: its closure is moved into the
// event's record once and called there.
//
// Every event carries an owner, the node it belongs to. An event inherits
// the owner of the event that scheduled it, and the entry points that
// start a node's causal chain set it explicitly (ScopedOwner). Ties
// between different nodes at equal (at, key) therefore resolve by node id,
// not by which node happened to schedule first; every recorded result
// (perfbench digests, pinned event counts, campaign reports) depends on
// that order.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/event_queue.hpp"
#include "util/rng.hpp"
#include "util/types.hpp"

namespace gttsch {

/// Single-threaded: each run (each campaign job) builds its own Simulator,
/// and no second thread ever touches it.
class Simulator {
 public:
  /// `seed` is the run seed from which all component streams are forked.
  explicit Simulator(std::uint64_t seed = 1);
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  TimeUs now() const { return now_; }

  /// Schedule `fn` at absolute virtual time `at` (must be >= now()).
  EventId at(TimeUs when, SmallFn&& fn);

  /// Schedule `fn` after `delay` microseconds.
  EventId after(TimeUs delay, SmallFn&& fn);

  /// Keyed variants: `key` picks the ordering class among same-time events
  /// (lower first; see kDefaultEventKey). Slot-boundary timers use the
  /// node id so boundary ordering is independent of when they were armed.
  EventId at_keyed(TimeUs when, std::uint32_t key, SmallFn&& fn);
  EventId after_keyed(TimeUs delay, std::uint32_t key, SmallFn&& fn);

  void cancel(EventId id);

  /// Run events until the queue drains or the clock passes `until`.
  /// Events scheduled exactly at `until` still run.
  void run_until(TimeUs until);

  /// Run everything (use only in tests with naturally finite event sets).
  void run_all();

  std::size_t pending_events() const { return live_; }
  std::uint64_t events_processed() const { return processed_; }

  /// Event slots ever carved and entries the queue's storage holds room
  /// for: both bounded by the peak count of pending events, not by the
  /// number ever scheduled (hooks for the memory regression tests).
  std::size_t event_slots_allocated() const { return pool_.slots_allocated(); }
  std::size_t queue_storage() const { return queue_.storage_capacity(); }

  /// Root RNG for this run; components should fork() their own streams.
  Rng& rng() { return rng_; }
  std::uint64_t seed() const { return seed_; }

  /// Owner id attributed to the event being executed (kGlobalOwner outside
  /// events / for unattributed events).
  std::uint32_t current_owner() const { return owner_; }

  /// Attribute everything scheduled in the enclosing scope to `owner`.
  /// Owners propagate automatically from a running event to the events
  /// it schedules; explicit scopes are only needed at the entry points
  /// that *start* a node's causal chain (boot, trace application).
  class ScopedOwner {
   public:
    ScopedOwner(Simulator& sim, std::uint32_t owner)
        : sim_(sim), saved_(sim.owner_) {
      sim.owner_ = owner;
    }
    ~ScopedOwner() { sim_.owner_ = saved_; }
    ScopedOwner(const ScopedOwner&) = delete;
    ScopedOwner& operator=(const ScopedOwner&) = delete;

   private:
    Simulator& sim_;
    std::uint32_t saved_;
  };

 private:
  friend class OneShotTimer;

  /// The one scheduling path. `timer_id`, when set, is the id_ of the
  /// OneShotTimer that schedules the event (see EventRecord).
  EventId schedule_impl(TimeUs when, std::uint32_t key, SmallFn&& fn,
                        EventId* timer_id = nullptr);
  /// Run every live event due at or before `until`, in order.
  void run_through(TimeUs until);
  /// Run `e`, already removed from the queue.
  void execute(const EventEntry& e);

  EventPool pool_;
  InstantQueue queue_;
  std::vector<std::uint32_t> free_slots_;
  std::uint64_t next_seq_ = 1;
  TimeUs now_ = 0;
  std::uint64_t processed_ = 0;
  std::size_t live_ = 0;
  std::uint32_t owner_ = kGlobalOwner;  ///< owner of the executing event
  Rng rng_;
  std::uint64_t seed_;
};

}  // namespace gttsch
