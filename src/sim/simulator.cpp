#include "sim/simulator.hpp"

#include <algorithm>
#include <chrono>
#include <limits>

#include "util/check.hpp"
#include "util/concurrency.hpp"

namespace gttsch {

namespace sim_internal {
thread_local TlsBinding t_binding;
}  // namespace sim_internal

namespace {

double steady_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

/// One execution lane: a queue of events it owns, its own virtual clock,
/// and a private slot freelist so steady-state slot reuse needs no
/// synchronization. Context 0 is the global / sequential lane; contexts
/// 1..k step island 0..k-1. Cache-line aligned: island lanes hammer
/// their own now/processed/live counters concurrently.
struct alignas(64) SimContext {
  InstantQueue queue;
  std::vector<std::uint32_t> free_slots;
  std::uint64_t next_seq = 1;
  TimeUs now = 0;
  std::uint64_t processed = 0;
  std::size_t live = 0;
  std::uint32_t owner = kGlobalOwner;  ///< owner of the executing event
  std::uint32_t key = kDefaultEventKey;  ///< key of the executing event
  std::uint32_t index = 0;
  TimeUs wd_last_time = -1;  ///< virtual time of the livelock window
  std::uint64_t wd_same = 0;
};

Simulator::Simulator(std::uint64_t seed) : rng_(seed), seed_(seed) {
  ctxs_.push_back(std::make_unique<SimContext>());
  main_now_ = &ctxs_.front()->now;
}

Simulator::~Simulator() = default;

SimContext& Simulator::current_context() const {
  const sim_internal::TlsBinding& b = sim_internal::t_binding;
  if (b.sim == this) return *b.ctx;
  return *ctxs_.front();
}

std::uint32_t Simulator::current_owner() const {
  return current_context().owner;
}

std::uint32_t Simulator::current_key() const {
  return current_context().key;
}

std::uint32_t Simulator::current_ctx() const {
  return current_context().index;
}

std::uint32_t Simulator::island_of(std::uint32_t owner) const {
  const auto it = owner_ctx_.find(owner);
  return it == owner_ctx_.end() ? 0u : it->second;
}

Simulator::ScopedOwner::ScopedOwner(Simulator& sim, std::uint32_t owner) {
  SimContext& c = sim.current_context();
  slot_ = &c.owner;
  saved_ = c.owner;
  c.owner = owner;
}

Simulator::ScopedOwner::~ScopedOwner() { *slot_ = saved_; }

void Simulator::arm_watchdog(const Watchdog& watchdog) {
  watchdog_ = watchdog;
  watchdog_armed_ = watchdog.max_wall_s > 0.0 || watchdog.livelock_events > 0;
  watchdog_tripped_.store(false, std::memory_order_relaxed);
  watchdog_reason_.clear();
  watchdog_deadline_ =
      watchdog.max_wall_s > 0.0 ? steady_seconds() + watchdog.max_wall_s : 0.0;
  for (auto& c : ctxs_) {
    c->wd_last_time = -1;
    c->wd_same = 0;
  }
}

void Simulator::trip_watchdog(const std::string& reason) {
  std::lock_guard<std::mutex> lock(watchdog_mutex_);
  if (watchdog_tripped_.load(std::memory_order_relaxed)) return;
  watchdog_reason_ = reason;
  watchdog_tripped_.store(true, std::memory_order_release);
}

bool Simulator::watchdog_step(SimContext& c) {
  if (watchdog_tripped_.load(std::memory_order_relaxed)) return true;
  if (watchdog_.livelock_events > 0) {
    if (c.now == c.wd_last_time) {
      if (++c.wd_same > watchdog_.livelock_events) {
        trip_watchdog("livelock: over " +
                      std::to_string(watchdog_.livelock_events) +
                      " events at virtual time " + std::to_string(c.now) +
                      " us");
        return true;
      }
    } else {
      c.wd_last_time = c.now;
      c.wd_same = 1;
    }
  }
  if (watchdog_deadline_ > 0.0 && (c.processed & 0xFFF) == 0 &&
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
  GTTSCH_CHECK(when >= now());
  return schedule_impl(when, key, std::move(fn));
}

EventId Simulator::after_keyed(TimeUs delay, std::uint32_t key,
                               SmallFn&& fn) {
  GTTSCH_CHECK(delay >= 0);
  return schedule_impl(now() + delay, key, std::move(fn));
}

EventId Simulator::schedule_impl(TimeUs when, std::uint32_t key,
                                 SmallFn&& fn) {
  SimContext& cur = current_context();
  // The event inherits the owner of the event being executed, and is
  // homed to that owner's context: its sequence number comes from the
  // *target* queue (so one owner's FIFO order is a single counter stream
  // regardless of which thread scheduled it), while the slot comes from
  // the *calling* context's freelist (thread-local reuse). Island lanes
  // only ever schedule for their own island, so cur is already home.
  SimContext* home = &cur;
  if (cur.index == 0 && !owner_ctx_.empty()) {
    const auto it = owner_ctx_.find(cur.owner);
    if (it != owner_ctx_.end()) home = ctxs_[it->second].get();
  }
  const std::uint32_t slot = pool_.alloc(cur.free_slots);
  EventRecord& rec = pool_.record(slot);
  rec.fn = std::move(fn);
  rec.armed = true;
  rec.cancelled = false;
  rec.ctx = home->index;
  home->queue.push(EventEntry{when, home->next_seq++, key, cur.owner, slot});
  ++home->live;
  return make_event_id(rec.generation, slot);
}

void Simulator::cancel(EventId id) {
  EventRecord* rec = pool_.record_for(id);
  if (rec == nullptr || !rec->armed || rec->cancelled) return;
  rec->cancelled = true;
  rec->fn.reset();  // release captures now; the queue entry leaves later
  GTTSCH_CHECK(rec->ctx < ctxs_.size());
  SimContext& home = *ctxs_[rec->ctx];
  GTTSCH_CHECK(home.live > 0);
  --home.live;
}

const EventEntry* Simulator::next_live(SimContext& c, TimeUs until) {
  return c.queue.next_live(until, pool_, c.free_slots);
}

void Simulator::execute(SimContext& c, const EventEntry& e) {
  GTTSCH_CHECK(e.at >= c.now);
  // Advance the clock before running: callbacks must see now() == e.at.
  c.now = e.at;
  c.owner = e.owner;
  c.key = e.key;
  GTTSCH_CHECK(c.live > 0);
  --c.live;
  // The callback runs in its pool record (see EventPool::run); it may
  // schedule and cancel events, its own id included, and grow the pool.
  pool_.run(e.slot, c.free_slots);
  ++c.processed;
  c.owner = kGlobalOwner;
  c.key = kDefaultEventKey;
}

std::size_t Simulator::pending_events() const {
  std::size_t total = 0;
  for (const auto& c : ctxs_) total += c->live;
  return total;
}

std::uint64_t Simulator::events_processed() const {
  std::uint64_t total = 0;
  for (const auto& c : ctxs_) total += c->processed;
  return total;
}

void Simulator::run_until(TimeUs until) {
  if (watchdog_tripped()) return;
  if (parallel_) {
    run_until_parallel(until);
  } else {
    run_until_sequential(until);
  }
}

void Simulator::run_until_sequential(TimeUs until) {
  SimContext& g = main_ctx();
  for (;;) {
    const EventEntry* top = next_live(g, until);
    if (top == nullptr) break;
    const EventEntry e = *top;
    g.queue.pop_front();
    execute(g, e);
    if (watchdog_armed_ && watchdog_step(g)) return;
  }
  if (g.now < until) g.now = until;
}

void Simulator::run_all() {
  if (watchdog_tripped()) return;
  if (ctxs_.size() > 1) {
    parallel_ = false;
    collapse_islands();
    if (source_ != nullptr) source_->on_partition();
  }
  SimContext& g = main_ctx();
  for (;;) {
    const EventEntry* top = next_live(g, kInfiniteTime);
    if (top == nullptr) break;
    const EventEntry e = *top;
    g.queue.pop_front();
    execute(g, e);
    if (watchdog_armed_ && watchdog_step(g)) return;
  }
}

void Simulator::set_parallel(int workers, IslandSource* source) {
  parallel_workers_ = workers < 1 ? 1 : workers;
  source_ = source;
  const bool enable = parallel_workers_ > 1 && source != nullptr;
  if (!enable && ctxs_.size() > 1) {
    collapse_islands();
    if (source_ != nullptr) source_->on_partition();
  }
  parallel_ = enable;
  have_partition_ = false;
  worker_pool_.reset();
}

void Simulator::run_until_parallel(TimeUs until) {
  SimContext& g = main_ctx();
  if (until < g.now) return;
  for (;;) {
    if (watchdog_tripped()) return;
    // Bring lazily-maintained shared state (interference cache, link
    // model activations) up to date on this thread, so island lanes only
    // read it. Must precede the bound computation: repartitioning
    // *migrates events between queues* (pre-partition events homed to the
    // global context move out to their islands, orphaned-owner events
    // move back in), so the global top is only meaningful afterwards.
    source_->settle(g.now);
    maybe_repartition();
    if (!parallel_) {  // no usable partition: finish sequentially
      run_until_sequential(until);
      return;
    }
    const EventEntry* top = next_live(g, until);
    // The phase boundary: the earliest global-owner event within the
    // horizon, or a sentinel that sorts after every event at `until`.
    // Everything strictly below it in the (at, key, owner, seq) order is
    // provably island-local and runs concurrently this phase.
    const bool have_global = top != nullptr;
    const EventEntry bound =
        have_global ? *top
                    : EventEntry{until, std::numeric_limits<std::uint64_t>::max(),
                                 0xFFFFFFFFu, kGlobalOwner, 0};
    GTTSCH_CHECK(bound.at >= g.now);
    g.now = bound.at;
    run_islands(bound);
    if (watchdog_tripped()) return;
    if (!have_global) break;
    // The single global event of this phase runs on the main thread.
    // Island lanes never touch the global queue, so its front is still
    // `bound`.
    g.queue.pop_front();
    execute(g, bound);
    if (watchdog_armed_ && watchdog_step(g)) return;
  }
  if (g.now < until) g.now = until;
}

void Simulator::maybe_repartition() {
  const std::uint64_t epoch = source_->partition_epoch();
  if (have_partition_ && epoch == partition_epoch_) return;
  partition_epoch_ = epoch;
  have_partition_ = true;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> owner_island;
  std::uint32_t count = 0;
  if (!source_->compute_islands(&owner_island, &count) || count == 0) {
    // No usable partition (interference cache inactive): demote to the
    // sequential path for the rest of the run.
    parallel_ = false;
    collapse_islands();
    source_->on_partition();
    return;
  }
  adopt_partition(owner_island, count);
}

void Simulator::redistribute_entries() {
  migrate_scratch_.clear();
  for (auto& c : ctxs_) {
    c->queue.drain(migrate_scratch_);
    c->live = 0;
  }
}

void Simulator::adopt_partition(
    const std::vector<std::pair<std::uint32_t, std::uint32_t>>& owner_island,
    std::uint32_t island_count) {
  std::unordered_map<std::uint32_t, std::uint32_t> next;
  next.reserve(owner_island.size());
  for (const auto& p : owner_island) next.emplace(p.first, p.second + 1);
  const std::size_t want = static_cast<std::size_t>(island_count) + 1;
  if (next == owner_ctx_ && ctxs_.size() == want) return;  // same structure
  owner_ctx_ = std::move(next);

  redistribute_entries();
  std::uint64_t max_seq = 1;
  for (const auto& c : ctxs_) max_seq = std::max(max_seq, c->next_seq);
  while (ctxs_.size() > want) {
    auto& fs = main_ctx().free_slots;
    auto& victim = ctxs_.back()->free_slots;
    fs.insert(fs.end(), victim.begin(), victim.end());
    ctxs_.pop_back();
  }
  while (ctxs_.size() < want) {
    ctxs_.push_back(std::make_unique<SimContext>());
    ctxs_.back()->index = static_cast<std::uint32_t>(ctxs_.size() - 1);
  }
  SimContext& g = main_ctx();
  for (auto& c : ctxs_) {
    // Aligning every sequence counter to the global max preserves one
    // owner's FIFO order across migrations between contexts.
    c->next_seq = max_seq;
    c->now = g.now;
    c->wd_last_time = -1;
    c->wd_same = 0;
  }
  for (const EventEntry& e : migrate_scratch_) {
    EventRecord& rec = pool_.record(e.slot);
    if (rec.cancelled) {
      pool_.release(e.slot, g.free_slots);
      continue;
    }
    const auto it = owner_ctx_.find(e.owner);
    SimContext& home = it == owner_ctx_.end() ? g : *ctxs_[it->second];
    rec.ctx = home.index;
    home.queue.push(e);
    ++home.live;
  }
  source_->on_partition();
}

void Simulator::collapse_islands() {
  if (ctxs_.size() <= 1 && owner_ctx_.empty()) return;
  redistribute_entries();
  std::uint64_t max_seq = 1;
  for (const auto& c : ctxs_) max_seq = std::max(max_seq, c->next_seq);
  while (ctxs_.size() > 1) {
    auto& fs = main_ctx().free_slots;
    auto& victim = ctxs_.back()->free_slots;
    fs.insert(fs.end(), victim.begin(), victim.end());
    ctxs_.pop_back();
  }
  owner_ctx_.clear();
  SimContext& g = main_ctx();
  g.next_seq = max_seq;
  for (const EventEntry& e : migrate_scratch_) {
    EventRecord& rec = pool_.record(e.slot);
    if (rec.cancelled) {
      pool_.release(e.slot, g.free_slots);
      continue;
    }
    rec.ctx = 0;
    g.queue.push(e);
    ++g.live;
  }
}

void Simulator::run_islands(const EventEntry& bound) {
  active_scratch_.clear();
  for (std::size_t i = 1; i < ctxs_.size(); ++i) {
    SimContext& c = *ctxs_[i];
    const EventEntry* top = next_live(c, bound.at);
    if (top != nullptr && event_before(*top, bound)) {
      active_scratch_.push_back(&c);
    }
  }
  if (active_scratch_.empty()) return;
  const int lanes = std::min<int>(parallel_workers_,
                                  static_cast<int>(active_scratch_.size()));
  if (lanes <= 1) {
    // One active island (or one lane): step it inline — keeps single-core
    // and sparse-phase runs free of dispatch overhead.
    for (SimContext* c : active_scratch_) {
      run_island_phase(*c, bound);
      if (watchdog_tripped()) return;
    }
    return;
  }
  if (worker_pool_ == nullptr) {
    worker_pool_ = std::make_unique<WorkerPool>(parallel_workers_);
  }
  std::atomic<std::size_t> next{0};
  const std::vector<SimContext*>& active = active_scratch_;
  const std::function<void(int)> lane_fn = [&](int) {
    for (;;) {
      const std::size_t idx = next.fetch_add(1, std::memory_order_relaxed);
      if (idx >= active.size()) return;
      run_island_phase(*active[idx], bound);
    }
  };
  worker_pool_->run(lanes, lane_fn);
}

void Simulator::run_island_phase(SimContext& c, const EventEntry& bound) {
  sim_internal::TlsBinding& b = sim_internal::t_binding;
  const sim_internal::TlsBinding saved = b;
  b = {this, &c, &c.now};
  for (;;) {
    const EventEntry* top = next_live(c, bound.at);
    if (top == nullptr || !event_before(*top, bound)) break;
    const EventEntry e = *top;
    c.queue.pop_front();
    execute(c, e);
    if (watchdog_armed_ && watchdog_step(c)) break;
  }
  b = saved;
}

}  // namespace gttsch
