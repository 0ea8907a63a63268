// Discrete-event simulation core: a virtual clock plus an event queue.
//
// Events run in the total order (at, key, owner, seq). Each execution
// context holds its pending events in an InstantQueue (see
// event_queue.hpp): a heap over distinct instants plus an ordered batch for
// the current one, so the many events that share a TSCH slot boundary cost
// no heap operation each. Callbacks live in one EventPool shared by all
// contexts.
//
// Sequential runs use context 0 alone. Optionally, an external
// IslandSource (the PHY medium) partitions node ids into groups that
// provably cannot interact before the next global event; the simulator
// then keeps one context (queue + clock + slot freelist) per island and
// runs the island-local events between consecutive global-owner events
// concurrently. Because the order above is total and does not depend on
// which thread scheduled an event, parallel runs are bit-identical to
// `parallel_islands = 0`.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sim/event_queue.hpp"
#include "util/rng.hpp"
#include "util/types.hpp"

namespace gttsch {

class Simulator;
class WorkerPool;
struct SimContext;

namespace sim_internal {
/// Per-thread binding of a worker lane to the island context it is
/// stepping. `now` denormalizes &ctx->now so Simulator::now() stays an
/// inline two-load fast path on the unbound (sequential) side.
struct TlsBinding {
  Simulator* sim = nullptr;
  SimContext* ctx = nullptr;
  const TimeUs* now = nullptr;
};
extern thread_local TlsBinding t_binding;
}  // namespace sim_internal

/// Runaway-run protection for the event loop: a wall-clock budget plus a
/// livelock detector (too many events without the virtual clock moving —
/// a zero-delay self-rescheduling event would otherwise spin forever and
/// never hit a wall-clock check cheaply). Both limits <= 0 disable the
/// respective check.
struct Watchdog {
  double max_wall_s = 0.0;           ///< wall-clock budget for the whole run
  std::uint64_t livelock_events = 0; ///< same-virtual-time event budget
};

/// What the parallel scheduler needs from the component that knows the
/// interaction structure (implemented by phy::Medium, so the sim layer
/// stays below the PHY in the dependency order).
class IslandSource {
 public:
  virtual ~IslandSource() = default;

  /// Cheap token; a changed value means the partition may have changed
  /// and compute_islands should run again at the next phase boundary.
  virtual std::uint64_t partition_epoch() const = 0;

  /// Fill owner -> island assignments (island ids 0..count-1). Returns
  /// false when no partition can be computed (e.g. the interference
  /// cache is inactive); the simulator then reverts to sequential
  /// stepping for the rest of the run.
  virtual bool compute_islands(
      std::vector<std::pair<std::uint32_t, std::uint32_t>>* owner_island,
      std::uint32_t* island_count) = 0;

  /// Called on the main thread after the simulator adopted a new
  /// partition, so the source can re-shard its own per-island state.
  virtual void on_partition() = 0;

  /// Bring lazily-maintained shared state up to date with virtual time
  /// `now`. Runs on the main thread before every parallel phase, so
  /// island threads only ever *read* the shared state.
  virtual void settle(TimeUs now) = 0;
};

class Simulator {
 public:
  /// `seed` is the run seed from which all component streams are forked.
  explicit Simulator(std::uint64_t seed = 1);
  ~Simulator();
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Virtual time of the calling thread's execution context: island
  /// lanes see their island clock, everyone else the main clock.
  TimeUs now() const {
    const sim_internal::TlsBinding& b = sim_internal::t_binding;
    return b.sim == this ? *b.now : *main_now_;
  }

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

  std::size_t pending_events() const;
  std::uint64_t events_processed() const;

  /// Root RNG for this run; components should fork() their own streams.
  Rng& rng() { return rng_; }
  std::uint64_t seed() const { return seed_; }

  /// Arms the runaway-run watchdog (idempotent; call before run_until).
  /// When it trips, the current run_until/run_all returns early and every
  /// later call returns immediately — the run is over, only partially
  /// simulated, and must not be finalized as a result.
  void arm_watchdog(const Watchdog& watchdog);

  bool watchdog_tripped() const {
    return watchdog_tripped_.load(std::memory_order_relaxed);
  }
  /// Human-readable cause ("" while not tripped). Call after run_until
  /// returned; not synchronized against a phase in flight.
  const std::string& watchdog_reason() const { return watchdog_reason_; }

  // --- Island-parallel stepping -------------------------------------

  /// Enable parallel island stepping with up to `workers` lanes fed by
  /// `source`. workers <= 1 or a null source keeps the sequential path
  /// (and tears down any existing island contexts). Call before
  /// run_until, from the main thread.
  void set_parallel(int workers, IslandSource* source);
  bool parallel_enabled() const { return parallel_; }

  /// Owner id attributed to the event being executed on the calling
  /// thread (kGlobalOwner outside events / for unattributed events).
  std::uint32_t current_owner() const;

  /// Ordering key of the event being executed on the calling thread
  /// (kDefaultEventKey outside events). Together with the timestamp,
  /// current_owner() and per-owner FIFO order this reconstructs the
  /// sequential total event order — RunStats' concurrent log sorts by it.
  std::uint32_t current_key() const;

  /// Execution-context index of the calling thread: 0 for the global /
  /// sequential context, i >= 1 for island i-1's lane.
  std::uint32_t current_ctx() const;

  /// Number of execution contexts (1 + islands; 1 when sequential).
  std::uint32_t ctx_count() const { return static_cast<std::uint32_t>(ctxs_.size()); }

  /// Context index an owner's events are homed to (0 when unpartitioned).
  std::uint32_t island_of(std::uint32_t owner) const;

  /// Attribute everything scheduled in the enclosing scope to `owner`.
  /// Owners propagate automatically from a running event to the events
  /// it schedules; explicit scopes are only needed at the entry points
  /// that *start* a node's causal chain (boot, trace application).
  class ScopedOwner {
   public:
    ScopedOwner(Simulator& sim, std::uint32_t owner);
    ~ScopedOwner();
    ScopedOwner(const ScopedOwner&) = delete;
    ScopedOwner& operator=(const ScopedOwner&) = delete;

   private:
    std::uint32_t* slot_;
    std::uint32_t saved_;
  };

 private:
  SimContext& main_ctx() { return *ctxs_.front(); }
  SimContext& current_context() const;
  EventId schedule_impl(TimeUs when, std::uint32_t key, SmallFn&& fn);
  /// Earliest live entry of `c` due at or before `until`, releasing
  /// cancelled entries on the way; nullptr when there is none.
  const EventEntry* next_live(SimContext& c, TimeUs until);
  /// Run `e`, already removed from c's queue, on context `c`.
  void execute(SimContext& c, const EventEntry& e);
  void run_until_sequential(TimeUs until);
  void run_until_parallel(TimeUs until);
  void run_islands(const EventEntry& bound);
  void run_island_phase(SimContext& c, const EventEntry& bound);
  void maybe_repartition();
  void adopt_partition(
      const std::vector<std::pair<std::uint32_t, std::uint32_t>>& owner_island,
      std::uint32_t island_count);
  void collapse_islands();
  void redistribute_entries();

  /// Returns true when the armed watchdog says stop. The wall clock is
  /// only consulted every 4096th event: a steady_clock read per event
  /// would dominate the event loop, and a 4096-event granularity is still
  /// well under a millisecond of overshoot for this simulator.
  bool watchdog_step(SimContext& c);
  void trip_watchdog(const std::string& reason);

  EventPool pool_;
  std::vector<std::unique_ptr<SimContext>> ctxs_;
  const TimeUs* main_now_ = nullptr;  ///< &main_ctx().now, for inline now()
  Rng rng_;
  std::uint64_t seed_;

  // Parallel state.
  bool parallel_ = false;
  int parallel_workers_ = 1;
  IslandSource* source_ = nullptr;
  std::unique_ptr<WorkerPool> worker_pool_;
  std::unordered_map<std::uint32_t, std::uint32_t> owner_ctx_;
  std::uint64_t partition_epoch_ = 0;
  bool have_partition_ = false;
  std::vector<SimContext*> active_scratch_;
  std::vector<EventEntry> migrate_scratch_;

  Watchdog watchdog_;
  bool watchdog_armed_ = false;
  std::atomic<bool> watchdog_tripped_{false};
  std::string watchdog_reason_;
  std::mutex watchdog_mutex_;       ///< guards the first-trip reason write
  double watchdog_deadline_ = 0.0;  ///< steady_clock seconds; 0 = no limit
};

}  // namespace gttsch
