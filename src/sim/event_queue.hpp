// Timed events, run in the total order (at, key, owner, seq).
//
// The Simulator drives two pieces:
//   * EventPool — chunked, address-stable slot storage for callbacks. An
//     EventId is a slot plus a generation, so a stale id (fired or
//     cancelled long ago) never aliases a live event, and a callback keeps
//     its record while the events it schedules grow the pool.
//   * InstantQueue — the pending EventEntries, kept on two levels: a
//     min-heap over the pending instants, compared on `at` alone, and one
//     batch of entries per instant. TSCH runs every node on one global
//     slot grid, so with perfect clocks most events fire at exactly the
//     instant of the event before them; popping such an event is an index
//     increment, not a heap pop through the four-field comparator. When
//     an instant becomes the earliest, its entries are gathered in
//     insertion order, cancelled ones are dropped and their slots
//     released, and the rest is put in (key, owner, seq) order by merging
//     its ascending runs, if it is not in order already.
#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "sim/small_fn.hpp"
#include "util/types.hpp"

namespace gttsch {

using EventId = std::uint64_t;
inline constexpr EventId kInvalidEvent = 0;

/// Ordering class for events that share a timestamp. Most events use the
/// default key and keep FIFO (insertion-order) semantics among themselves;
/// lower keys run first. TSCH slot-boundary events are keyed by node id so
/// that (a) a slot boundary always precedes same-instant protocol events —
/// mirroring a real MAC, where the slot interrupt preempts deferred work —
/// and (b) nodes whose boundaries coincide fire in a fixed id order. Both
/// properties make the slot-skipping fast path bit-identical to per-slot
/// stepping: they decouple tie-breaking from *when* a timer was armed,
/// which is precisely what differs between the two modes.
inline constexpr std::uint32_t kDefaultEventKey = 0xFFFFFFFFu;

/// Owner of an event that belongs to no particular node: scenario-level
/// bookkeeping (trace application, measurement boundaries, stats timers).
/// Its value sorts global-owner events after node-owned events at equal
/// (at, key).
inline constexpr std::uint32_t kGlobalOwner = 0xFFFFFFFFu;

/// A scheduled event as it sits in a queue. `owner` is the node the event
/// belongs to (kGlobalOwner for scenario-level events); it participates in
/// the ordering so that ties between events of *different* nodes resolve
/// by node id, not by which node's code happened to schedule first. Ties
/// within one owner keep FIFO order via `seq`.
struct EventEntry {
  TimeUs at = 0;
  std::uint64_t seq = 0;                 // insertion order
  std::uint32_t key = kDefaultEventKey;  // ordering class at equal times
  std::uint32_t owner = kGlobalOwner;    // node id, or kGlobalOwner
  std::uint32_t slot = 0;                // index into the EventPool
};

/// Order of two entries that share `at`: (key, owner, seq) ascending.
struct SameInstantBefore {
  bool operator()(const EventEntry& a, const EventEntry& b) const {
    if (a.key != b.key) return a.key < b.key;
    if (a.owner != b.owner) return a.owner < b.owner;
    return a.seq < b.seq;
  }
};

/// True when `a` fires strictly before `b` in the full event order
/// (at, key, owner, seq).
inline bool event_before(const EventEntry& a, const EventEntry& b) {
  if (a.at != b.at) return a.at < b.at;
  return SameInstantBefore{}(a, b);
}

/// An EventId packs (generation << 32) | (slot + 1); the +1 keeps 0 free
/// for kInvalidEvent. Generations advance when a slot is reclaimed, so
/// stale ids (fired or cancelled long ago) can never alias a live event.
constexpr EventId make_event_id(std::uint32_t generation, std::uint32_t slot) {
  return (static_cast<EventId>(generation) << 32) | (slot + 1u);
}
constexpr std::uint32_t event_id_slot(EventId id) {
  return static_cast<std::uint32_t>(id & 0xFFFFFFFFu) - 1u;
}
constexpr std::uint32_t event_id_generation(EventId id) {
  return static_cast<std::uint32_t>(id >> 32);
}

/// Callback slot: the payload an EventEntry points at. A OneShotTimer's
/// event also holds the address of the timer's id, which the pool clears
/// when the event starts running; cancel and release drop the address, so
/// a timer destroyed while its event is pending is never written to.
struct EventRecord {
  SmallFn fn;
  EventId* timer_id = nullptr;  // the scheduling timer's id_, or nullptr
  std::uint32_t generation = 1;
  bool armed = false;      // a queue entry references this slot and the
                           // event has not started running
  bool cancelled = false;  // armed but logically dead; released when the
                           // queue next reaches its entry
};
// A record is the size of one cache line: cancel() and run() read pool
// records at random. Gated like kFields' size check in campaign/spec.cpp.
#if (defined(__x86_64__) || defined(__aarch64__)) && defined(_GLIBCXX_RELEASE)
static_assert(sizeof(EventRecord) == 64,
              "EventRecord outgrew a 64-byte line: shrink SmallFn::kInlineSize");
#endif

/// Chunked slot store. Chunks are allocated once and never move, so
/// `record()` references stay valid across growth: a running callback
/// (EventPool::run) keeps its record while the events it schedules carve
/// fresh chunks. The freelist belongs to the caller (the Simulator that
/// owns the pool).
class EventPool {
 public:
  static constexpr std::uint32_t kChunkShift = 12;  // 4096 records per chunk
  static constexpr std::uint32_t kChunkSize = 1u << kChunkShift;
  static constexpr std::uint32_t kMaxChunks = 2048;  // 8M concurrent events

  EventPool() = default;
  EventPool(const EventPool&) = delete;
  EventPool& operator=(const EventPool&) = delete;

  /// Pop a slot from `free_slots`, or carve a fresh one from the chunk
  /// store. The returned record has fn and timer_id reset and
  /// armed/cancelled false.
  std::uint32_t alloc(std::vector<std::uint32_t>& free_slots);

  /// Reclaim a slot after its entry left a queue: resets the callback and
  /// the timer address, bumps the generation, and pushes the slot onto
  /// `free_slots`.
  void release(std::uint32_t slot, std::vector<std::uint32_t>& free_slots);

  /// Run the callback of an entry that just left its queue, in place, then
  /// release the slot. The record is disarmed and its timer's id cleared
  /// first, so cancel() of the running event is a no-op and the timer
  /// reads as stopped (the callback may re-arm or destroy it). The slot is
  /// released only after the call, so events the callback schedules
  /// cannot reuse it. Chunks never move, so the record stays put while
  /// the callback grows the pool.
  void run(std::uint32_t slot, std::vector<std::uint32_t>& free_slots) {
    EventRecord& rec = record(slot);
    rec.armed = false;
    if (rec.timer_id != nullptr) *rec.timer_id = kInvalidEvent;
    rec.fn();
    release(slot, free_slots);
  }

  EventRecord& record(std::uint32_t slot) {
    return chunks_[slot >> kChunkShift][slot & (kChunkSize - 1u)];
  }

  /// Generation-checked lookup; nullptr for invalid/stale ids.
  EventRecord* record_for(EventId id);

  /// Slots ever carved from the chunk store — bounded by the peak count of
  /// concurrently pending events (regression hook for the memory tests).
  std::size_t slots_allocated() const { return next_fresh_; }

 private:
  std::array<std::unique_ptr<EventRecord[]>, kMaxChunks> chunks_;
  std::uint32_t next_fresh_ = 0;
};

/// Pending entries, popped in (at, key, owner, seq) order.
///
/// Level one is a binary min-heap keyed on `at` alone. Each heap element
/// carries one entry inline plus a linked list, in a node pool, of further
/// entries at the same instant. When the earliest instant is reached, all
/// of its entries become the *active batch*, a vector consumed front to
/// back. So an event costs one heap push and pop per *instant*, not per
/// event. The grouping is what pays: a heap of single entries compared on
/// `at` alone, draining the earliest instant into the same sorted batch,
/// still pops the heap once per event and kept only a sixth of the gain on
/// perfbench's mesh-200 (README, "Performance").
///
///   * Activation gathers the batch in insertion order (lists are FIFO) and
///     drops the entries whose events were cancelled, releasing their
///     slots, before any ordering work; a batch left empty moves on to the
///     next instant. Since seq grows with insertion, a batch is then
///     usually already in (key, owner, seq) order and needs no ordering.
///     Otherwise it is a few ascending runs, typically one per earlier
///     instant whose events armed entries here, and merging those takes
///     fewer passes than a full sort. An event cancelled after
///     activation (by an earlier event at the same instant) is dropped
///     when next_live() reaches it, and so is a cancelled lone entry: an
///     instant of one entry, the usual case under drifted clocks, gets no
///     pass over its batch.
///   * Scheduling into the active instant inserts by binary search among
///     the entries not yet run (slot-boundary work scheduling same-instant
///     follow-ups).
///   * Scheduling into another instant looks the instant up in a lossy
///     direct-mapped cache of 1024 lines. A line names one instant that has
///     a heap element and holds the list of that instant's later entries.
///     On a miss the entry becomes a new heap element and claims the line;
///     the line's previous list, if any, moves into a heap element of its
///     own. Activation merges every heap element and line list of the
///     instant, so a miss costs a heap element and never correctness.
///     Drifted clocks, where nearly every instant is distinct, thus pay
///     neither a hash-map insert and erase nor a node per instant.
///   * Scheduling *before* the active instant is a checked error. The
///     caller schedules at or after its clock, and next_live(until) never
///     activates an instant beyond `until` and closes a spent batch when
///     it finds nothing due, so the active instant never runs ahead of
///     the clock.
///
/// Storage stays bounded by the peak number of pending entries: the node
/// pool only grows when its freelist is empty, and the active vector drops
/// its consumed prefix before it would grow. Cancelled entries count as
/// pending until their instant is activated.
class InstantQueue {
 public:
  InstantQueue() { cache_.fill(CacheLine{kNoInstant, kNil, kNil}); }

  /// Earliest live entry if it is due at or before `until`, else nullptr.
  /// Entries of cancelled events met on the way leave the queue, and their
  /// slots go back to `pool` through `free_slots`. The pointer stays valid
  /// until the next push or pop_front. An instant later than `until`
  /// is never activated, and a spent batch is closed when nothing is due,
  /// so a caller that stops at `until` may then schedule at any time from
  /// its clock on (run_until in slices; a run_all that ended on an instant
  /// of cancelled entries).
  const EventEntry* next_live(TimeUs until, EventPool& pool,
                              std::vector<std::uint32_t>& free_slots) {
    for (;;) {
      if (active_pos_ < active_.size()) {
        if (active_at_ > until) return nullptr;
        const EventEntry& top = active_[active_pos_];
        if (!pool.record(top.slot).cancelled) return &top;
        // A lone entry (activation skips its check) or one cancelled after
        // activation by an earlier event of this instant.
        pool.release(top.slot, free_slots);
        ++active_pos_;
      } else if (instants_.empty() || instants_.front().at > until) {
        active_at_ = kNoInstant;
        return nullptr;
      } else {
        activate_next(pool, free_slots);
      }
    }
  }

  /// Remove the entry the last next_live() returned (it must not be null).
  void pop_front() { ++active_pos_; }

  void push(const EventEntry& entry);

  /// Entries the queue's storage holds room for (heap, node pool, active
  /// batch and its merge buffer) — bounded by the peak count of pending
  /// entries (regression hook for the memory tests).
  std::size_t storage_capacity() const {
    return instants_.capacity() + nodes_.size() + active_.capacity() +
           merge_buf_.capacity();
  }

 private:
  static constexpr TimeUs kNoInstant = std::numeric_limits<TimeUs>::min();
  static constexpr std::uint32_t kNil = 0xFFFFFFFFu;
  static constexpr unsigned kCacheBits = 10;

  /// Heap element: one entry, flattened so the element stays 32 bytes,
  /// plus the list of further entries at its instant.
  struct Instant {
    TimeUs at;
    std::uint64_t seq;
    std::uint32_t key;
    std::uint32_t owner;
    std::uint32_t slot;
    std::uint32_t more;  // first node of the list, or kNil
  };
  /// List node: an entry whose instant is known from its list.
  struct Node {
    std::uint64_t seq;
    std::uint32_t key;
    std::uint32_t owner;
    std::uint32_t slot;
    std::uint32_t next;  // next node of the list, or of the freelist
  };
  struct InstantLater {
    bool operator()(const Instant& a, const Instant& b) const {
      return a.at > b.at;
    }
  };
  struct CacheLine {
    TimeUs at;           // an instant with a pending heap element
    std::uint32_t head;  // list of further entries at `at`, or kNil
    std::uint32_t tail;  // last node of that list (valid when head != kNil)
  };

  static std::size_t cache_index(TimeUs at) {
    return static_cast<std::size_t>(
        (static_cast<std::uint64_t>(at) * 0x9E3779B97F4A7C15ull) >>
        (64 - kCacheBits));
  }

  /// A node holding `entry` and linked to `next`; returns its index.
  std::uint32_t link_node(const EventEntry& entry, std::uint32_t next);
  void free_node(std::uint32_t n);
  /// Append the entries of list `head`, all at `at`, to `out` in list
  /// order and free their nodes.
  void take_list(TimeUs at, std::uint32_t head, std::vector<EventEntry>& out);
  void push_instant(const EventEntry& entry, std::uint32_t more);
  /// Remove the earliest heap element.
  void pop_instant();
  /// Move a line's list into a heap element of its own and clear the line.
  void evict(CacheLine& line);
  /// Make the earliest instant the active batch: gather its entries, drop
  /// the cancelled ones and order the rest. The batch may end up empty.
  void activate_next(EventPool& pool, std::vector<std::uint32_t>& free_slots);
  /// Order the active batch, whose ascending runs end at run_ends_.
  void merge_runs();
  void insert_active(const EventEntry& entry);

  std::vector<Instant> instants_;  // min-heap on `at`
  std::vector<Node> nodes_;
  std::uint32_t free_nodes_ = kNil;
  std::vector<EventEntry> active_;
  std::vector<EventEntry> merge_buf_;    // merge_runs() output, then swapped
  std::vector<std::size_t> run_ends_;    // ends of the batch's ascending runs
  std::size_t active_pos_ = 0;
  TimeUs active_at_ = kNoInstant;
  std::array<CacheLine, std::size_t{1} << kCacheBits> cache_;
};

}  // namespace gttsch
