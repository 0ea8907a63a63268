#include "sim/event_queue.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace gttsch {

std::uint32_t EventPool::alloc(std::vector<std::uint32_t>& free_slots) {
  if (!free_slots.empty()) {
    const std::uint32_t slot = free_slots.back();
    free_slots.pop_back();
    return slot;
  }
  const std::uint32_t slot = next_fresh_++;
  const std::uint32_t chunk = slot >> kChunkShift;
  GTTSCH_CHECK(chunk < kMaxChunks);
  if (chunks_[chunk] == nullptr) {
    chunks_[chunk] = std::make_unique<EventRecord[]>(kChunkSize);
  }
  return slot;
}

void EventPool::release(std::uint32_t slot,
                        std::vector<std::uint32_t>& free_slots) {
  EventRecord& rec = record(slot);
  rec.fn.reset();
  rec.armed = false;
  rec.cancelled = false;
  ++rec.generation;
  free_slots.push_back(slot);
}

EventRecord* EventPool::record_for(EventId id) {
  if (id == kInvalidEvent) return nullptr;
  const std::uint32_t slot = event_id_slot(id);
  if (slot >= next_fresh_) return nullptr;
  EventRecord& rec = record(slot);
  if (rec.generation != event_id_generation(id)) return nullptr;  // reclaimed
  return &rec;
}

std::uint32_t InstantQueue::link_node(const EventEntry& entry,
                                      std::uint32_t next) {
  std::uint32_t n = free_nodes_;
  if (n != kNil) {
    free_nodes_ = nodes_[n].next;
  } else {
    n = static_cast<std::uint32_t>(nodes_.size());
    nodes_.emplace_back();
  }
  nodes_[n] = Node{entry.seq, entry.key, entry.owner, entry.slot, next};
  return n;
}

void InstantQueue::free_node(std::uint32_t n) {
  nodes_[n].next = free_nodes_;
  free_nodes_ = n;
}

void InstantQueue::take_list(TimeUs at, std::uint32_t head,
                             std::vector<EventEntry>& out) {
  while (head != kNil) {
    const Node& node = nodes_[head];
    out.push_back(EventEntry{at, node.seq, node.key, node.owner, node.slot});
    const std::uint32_t next = node.next;
    free_node(head);
    head = next;
  }
}

void InstantQueue::push_instant(const EventEntry& entry, std::uint32_t more) {
  instants_.push_back(
      Instant{entry.at, entry.seq, entry.key, entry.owner, entry.slot, more});
  std::push_heap(instants_.begin(), instants_.end(), InstantLater{});
}

void InstantQueue::pop_instant() {
  std::pop_heap(instants_.begin(), instants_.end(), InstantLater{});
  instants_.pop_back();
}

void InstantQueue::evict(CacheLine& line) {
  if (line.head != kNil) {
    const Node first = nodes_[line.head];
    push_instant(
        EventEntry{line.at, first.seq, first.key, first.owner, first.slot},
        first.next);
    free_node(line.head);
  }
  line = CacheLine{kNoInstant, kNil, kNil};
}

void InstantQueue::push(const EventEntry& entry) {
  if (entry.at == active_at_) {
    insert_active(entry);
    return;
  }
  if (entry.at < active_at_) close_active();
  CacheLine& line = cache_[cache_index(entry.at)];
  if (line.at == entry.at) {
    // The instant already has a heap element: append to the line's list,
    // so activation gathers the instant in insertion order.
    const std::uint32_t n = link_node(entry, kNil);
    if (line.head == kNil) {
      line.head = n;
    } else {
      nodes_[line.tail].next = n;
    }
    line.tail = n;
    return;
  }
  evict(line);
  push_instant(entry, kNil);
  line = CacheLine{entry.at, kNil, kNil};
}

void InstantQueue::activate_next(EventPool& pool,
                                 std::vector<std::uint32_t>& free_slots) {
  active_.clear();
  active_pos_ = 0;
  active_at_ = instants_.front().at;
  // Merge every heap element of the instant (evictions and spills may
  // have made several), then the list its cache line collected.
  do {
    const Instant& top = instants_.front();
    active_.push_back(EventEntry{top.at, top.seq, top.key, top.owner, top.slot});
    const std::uint32_t more = top.more;
    pop_instant();
    if (more != kNil) take_list(active_at_, more, active_);
  } while (!instants_.empty() && instants_.front().at == active_at_);
  CacheLine& line = cache_[cache_index(active_at_)];
  if (line.at == active_at_) {
    take_list(active_at_, line.head, active_);
    line = CacheLine{kNoInstant, kNil, kNil};
  }
  if (active_.size() == 1) return;  // next_live() checks a lone entry
  // Drop cancelled entries before any ordering work, keeping the gathered
  // order, and note where the live entries stop ascending in (key, owner,
  // seq) order.
  std::size_t kept = 0;
  run_ends_.clear();
  for (std::size_t i = 0; i < active_.size(); ++i) {
    const EventEntry e = active_[i];
    if (pool.record(e.slot).cancelled) {
      pool.release(e.slot, free_slots);
      continue;
    }
    if (kept > 0 && !SameInstantBefore{}(active_[kept - 1], e)) {
      run_ends_.push_back(kept);
    }
    active_[kept++] = e;
  }
  active_.resize(kept);
  if (!run_ends_.empty()) merge_runs();
}

void InstantQueue::merge_runs() {
  // Merge neighbouring runs pairwise, ping-ponging with merge_buf_, until
  // one is left: ceil(log2(runs)) passes over the batch.
  run_ends_.push_back(active_.size());
  merge_buf_.resize(active_.size());
  while (run_ends_.size() > 1) {
    std::size_t begin = 0;
    std::size_t merged = 0;
    for (std::size_t r = 0; r < run_ends_.size(); r += 2) {
      const std::size_t mid = run_ends_[r];
      const std::size_t end = r + 1 < run_ends_.size() ? run_ends_[r + 1] : mid;
      const auto first = active_.begin();
      std::merge(first + static_cast<std::ptrdiff_t>(begin),
                 first + static_cast<std::ptrdiff_t>(mid),
                 first + static_cast<std::ptrdiff_t>(mid),
                 first + static_cast<std::ptrdiff_t>(end),
                 merge_buf_.begin() + static_cast<std::ptrdiff_t>(begin),
                 SameInstantBefore{});
      run_ends_[merged++] = end;
      begin = end;
    }
    run_ends_.resize(merged);
    active_.swap(merge_buf_);
  }
}

void InstantQueue::insert_active(const EventEntry& entry) {
  // Drop the consumed prefix instead of growing, so a long chain of
  // same-instant events keeps the vector at its peak pending size.
  if (active_.size() == active_.capacity() && active_pos_ > 0) {
    active_.erase(active_.begin(),
                  active_.begin() + static_cast<std::ptrdiff_t>(active_pos_));
    active_pos_ = 0;
  }
  const auto pos =
      std::upper_bound(active_.begin() + static_cast<std::ptrdiff_t>(active_pos_),
                       active_.end(), entry, SameInstantBefore{});
  active_.insert(pos, entry);
}

void InstantQueue::close_active() {
  if (active_pos_ < active_.size()) {
    // Link the remainder back to front, so its list keeps batch order.
    std::uint32_t more = kNil;
    for (std::size_t i = active_.size() - 1; i > active_pos_; --i) {
      more = link_node(active_[i], more);
    }
    push_instant(active_[active_pos_], more);
  }
  active_.clear();
  active_pos_ = 0;
  active_at_ = kNoInstant;
}

EventId EventQueue::schedule_keyed(TimeUs at, std::uint32_t key, SmallFn&& fn) {
  const std::uint32_t slot = pool_.alloc(free_slots_);
  EventRecord& rec = pool_.record(slot);
  rec.fn = std::move(fn);
  rec.armed = true;
  rec.cancelled = false;
  queue_.push(EventEntry{at, next_seq_++, key, kGlobalOwner, slot});
  ++live_;
  return make_event_id(rec.generation, slot);
}

void EventQueue::cancel(EventId id) {
  EventRecord* rec = pool_.record_for(id);
  if (rec == nullptr || !rec->armed || rec->cancelled) return;
  rec->cancelled = true;
  rec->fn.reset();  // release captures now; the queue entry leaves later
  GTTSCH_CHECK(live_ > 0);
  --live_;
}

TimeUs EventQueue::next_time() {
  const EventEntry* top = queue_.next_live(kInfiniteTime, pool_, free_slots_);
  return top == nullptr ? kInfiniteTime : top->at;
}

bool EventQueue::run_next(TimeUs& out_time) {
  const EventEntry* top = queue_.next_live(kInfiniteTime, pool_, free_slots_);
  if (top == nullptr) return false;
  out_time = top->at;
  const std::uint32_t slot = top->slot;
  queue_.pop_front();
  GTTSCH_CHECK(live_ > 0);
  --live_;
  pool_.run(slot, free_slots_);
  return true;
}

}  // namespace gttsch
