#include "phy/medium.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "sim/log.hpp"
#include "util/check.hpp"

namespace gttsch {

namespace {
/// Ordering key for drain events: above every node id and below the
/// default class, so a frame ending at a slot boundary resolves after that
/// instant's slot-boundary timers (keyed by node id) and before its
/// default-key protocol events. Every recorded result depends on this
/// position.
constexpr std::uint32_t kDrainEventKey = 0xFFFFFFFEu;

/// Grid-cell coordinates of a position, clamped so they pack into 32 bits.
/// Clamping only merges cells that are astronomically far apart, which
/// over-approximates a neighborhood (extra candidates) — never misses one.
void grid_coords(const Position& p, double cell, std::int64_t& cx, std::int64_t& cy) {
  constexpr double kBound = 2147480000.0;
  const double inv = 1.0 / cell;
  cx = static_cast<std::int64_t>(std::clamp(std::floor(p.x * inv), -kBound, kBound));
  cy = static_cast<std::int64_t>(std::clamp(std::floor(p.y * inv), -kBound, kBound));
}

std::uint64_t pack_cell(std::int64_t cx, std::int64_t cy) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(cx)) << 32) |
         static_cast<std::uint64_t>(static_cast<std::uint32_t>(cy));
}

/// Link-flag bits (Medium::cache_flags_).
constexpr std::uint8_t kLinkReaches = 1;     ///< prr > 0
constexpr std::uint8_t kLinkInterferes = 2;  ///< model interferes()

std::uint8_t link_flags(double prr, bool interferes) {
  return static_cast<std::uint8_t>((prr > 0.0 ? kLinkReaches : 0) |
                                   (interferes ? kLinkInterferes : 0));
}

/// Position of receiver `id` in a receiver list ascending by id.
auto find_receiver(auto& list, NodeId id) {
  return std::lower_bound(list.begin(), list.end(), id,
                          [](const auto& r, NodeId i) { return r.id < i; });
}

/// Insert receiver `id`, which the list does not hold, into an ascending
/// receiver list.
void insert_receiver(auto& list, NodeId id, double prr) {
  list.insert(find_receiver(list, id), {id, prr});
}

/// Remove receiver `id` from an ascending receiver list if present.
void erase_receiver(auto& list, NodeId id) {
  const auto it = find_receiver(list, id);
  if (it != list.end() && it->id == id) list.erase(it);
}
}  // namespace

Medium::Medium(Simulator& sim, std::unique_ptr<LinkModel> model, Rng rng)
    : sim_(sim), model_(std::move(model)), rng_(rng) {
  GTTSCH_CHECK(model_ != nullptr);
}

void Medium::attach(Radio* radio) {
  GTTSCH_CHECK(radio != nullptr);
  // Each slot's RNG is forked by its id (fork() leaves rng_ unchanged), so
  // the stream is a function of the run seed and the receiver identity
  // alone, never of attach order or of other nodes' delivery interleavings.
  while (slots_.size() <= radio->id()) {
    slots_.push_back(RadioSlot{nullptr, kNoRow, rng_.fork(slots_.size())});
  }
  slots_[radio->id()].radio = radio;
  cache_valid_ = false;
}

void Medium::detach(NodeId id) {
  GTTSCH_CHECK(id < slots_.size());
  slots_[id].radio = nullptr;
  slots_[id].cache_idx = kNoRow;
  cache_valid_ = false;
}

void Medium::position_changed(NodeId id) {
  if (!cache_valid_) return;  // a full (re)build is pending anyway
  // Deduplicate: a node walking many steps between medium queries stays
  // one dirty entry (the refresh reads its *current* position anyway), so
  // the backlog is bounded by distinct movers and only overflows — into a
  // full rebuild — when essentially the whole network moved. A valid cache
  // holds exactly the attached radios, and with dedup bounding the backlog
  // at that count the fallback must fire at equality, not beyond it.
  if (std::find(moved_.begin(), moved_.end(), id) != moved_.end()) return;
  moved_.push_back(id);
  if (moved_.size() >= cache_ids_.size()) {
    cache_valid_ = false;
    moved_.clear();
  }
}

void Medium::set_link_cache_enabled(bool enabled) {
  if (link_cache_enabled_ == enabled) return;
  link_cache_enabled_ = enabled;
  cache_valid_ = false;
  for (RadioSlot& slot : slots_) slot.cache_idx = kNoRow;
  cache_ids_.clear();
  cache_flags_.clear();
  cache_receivers_.clear();
  moved_.clear();
  grid_.clear();
  node_grid_key_.clear();
}

void Medium::reset_stats() { stats_ = MediumStats{}; }

double Medium::link_prr(NodeId tx, NodeId rx) const {
  if (std::max(tx, rx) >= slots_.size()) return 0.0;
  const Radio* a = slots_[tx].radio;
  const Radio* b = slots_[rx].radio;
  if (a == nullptr || b == nullptr) return 0.0;
  return model_->prr(tx, a->position(), rx, b->position());
}

const Position& Medium::cached_position(std::uint32_t idx) const {
  return slots_[cache_ids_[idx]].radio->position();
}

bool Medium::grid_active() const {
  return std::isfinite(cache_range_) && cache_range_ > 0.0;
}

void Medium::update_grid_membership(std::uint32_t idx) const {
  if (!grid_active()) return;
  std::int64_t cx = 0;
  std::int64_t cy = 0;
  grid_coords(cached_position(idx), cache_range_, cx, cy);
  const std::uint64_t key = pack_cell(cx, cy);
  if (key == node_grid_key_[idx]) return;
  const auto old_it = grid_.find(node_grid_key_[idx]);
  if (old_it != grid_.end()) {
    std::erase(old_it->second, idx);
    if (old_it->second.empty()) grid_.erase(old_it);
  }
  grid_[key].push_back(idx);
  node_grid_key_[idx] = key;
}

void Medium::collect_candidates(const Position& pos,
                                std::vector<std::uint32_t>& out) const {
  out.clear();
  if (!grid_active()) {
    for (std::uint32_t i = 0; i < cache_ids_.size(); ++i) out.push_back(i);
    return;
  }
  std::int64_t cx = 0;
  std::int64_t cy = 0;
  grid_coords(pos, cache_range_, cx, cy);
  for (std::int64_t dx = -1; dx <= 1; ++dx) {
    for (std::int64_t dy = -1; dy <= 1; ++dy) {
      const auto it = grid_.find(pack_cell(cx + dx, cy + dy));
      if (it == grid_.end()) continue;
      out.insert(out.end(), it->second.begin(), it->second.end());
    }
  }
  // Receiver lists must come out ascending by NodeId (== by cache index),
  // so candidates are visited in sorted order.
  std::sort(out.begin(), out.end());
}

void Medium::rebuild_cache() const {
  cache_ids_.clear();
  for (std::size_t id = 0; id < slots_.size(); ++id) {
    RadioSlot& slot = slots_[id];
    if (slot.radio == nullptr) continue;  // detach already cleared its row
    slot.cache_idx = static_cast<std::uint32_t>(cache_ids_.size());
    cache_ids_.push_back(static_cast<NodeId>(id));
  }
  const std::size_t n = cache_ids_.size();
  cache_flags_.assign(n * n, 0);
  cache_receivers_.assign(n, {});
  cache_range_ = model_->max_interaction_range();
  grid_.clear();
  node_grid_key_.assign(n, 0);
  if (grid_active()) {
    for (std::uint32_t i = 0; i < n; ++i) {
      std::int64_t cx = 0;
      std::int64_t cy = 0;
      grid_coords(cached_position(i), cache_range_, cx, cy);
      const std::uint64_t key = pack_cell(cx, cy);
      grid_[key].push_back(i);
      node_grid_key_[i] = key;
    }
  }
  // Pairs outside a node's grid neighborhood stay 0 / no flags, which the
  // model's max_interaction_range contract guarantees the model would
  // answer too — so this O(n * degree) build is bit-identical to the
  // all-pairs one.
  for (std::uint32_t t = 0; t < n; ++t) {
    const Position& tx_pos = cached_position(t);
    collect_candidates(tx_pos, candidate_scratch_);
    for (const std::uint32_t r : candidate_scratch_) {
      if (r == t) continue;
      const Position& rx_pos = cached_position(r);
      const double prr = model_->prr(cache_ids_[t], tx_pos, cache_ids_[r], rx_pos);
      const bool interferes =
          model_->interferes(cache_ids_[t], tx_pos, cache_ids_[r], rx_pos);
      cache_flags_[t * n + r] = link_flags(prr, interferes);
      if (prr > 0.0) cache_receivers_[t].push_back({cache_ids_[r], prr});
    }
  }
  cached_model_version_ = model_->version();
  moved_.clear();
  cache_valid_ = true;
}

void Medium::refresh_node(std::uint32_t m) const {
  const std::size_t n = cache_ids_.size();
  // Clear column m: forget every sender's link *to* the node (the prr > 0
  // ones are exactly those holding m in their receiver list), so no list
  // holds m when the recompute below inserts it.
  for (std::uint32_t s = 0; s < n; ++s) {
    if (s == m) continue;
    std::uint8_t& to_m = cache_flags_[s * n + m];
    if ((to_m & kLinkReaches) != 0) erase_receiver(cache_receivers_[s], cache_ids_[m]);
    to_m = 0;
  }
  // Clear row m.
  std::fill_n(cache_flags_.begin() + static_cast<std::ptrdiff_t>(m * n), n,
              std::uint8_t{0});
  cache_receivers_[m].clear();
  // Recompute both directions against the grid neighborhood of the
  // node's current position. Values are whatever the model answers for
  // current positions, and anything farther than the spatial bound is
  // 0 / no flags on both sides — bit-identical to a full rebuild.
  const Position& m_pos = cached_position(m);
  collect_candidates(m_pos, candidate_scratch_);
  for (const std::uint32_t r : candidate_scratch_) {
    if (r == m) continue;
    const Position& r_pos = cached_position(r);
    const double out_prr = model_->prr(cache_ids_[m], m_pos, cache_ids_[r], r_pos);
    cache_flags_[m * n + r] = link_flags(
        out_prr, model_->interferes(cache_ids_[m], m_pos, cache_ids_[r], r_pos));
    if (out_prr > 0.0) {
      cache_receivers_[m].push_back({cache_ids_[r], out_prr});  // candidates ascend
    }
    const double in_prr = model_->prr(cache_ids_[r], r_pos, cache_ids_[m], m_pos);
    cache_flags_[r * n + m] = link_flags(
        in_prr, model_->interferes(cache_ids_[r], r_pos, cache_ids_[m], m_pos));
    if (in_prr > 0.0) insert_receiver(cache_receivers_[r], cache_ids_[m], in_prr);
  }
}

void Medium::ensure_cache() const {
  if (!link_cache_enabled_) return;
  const std::uint64_t model_version = model_->version();
  // The model can change without any call into the medium (a
  // DynamicLinkModel with the clock, a MatrixLinkModel through set()), so
  // its version is polled here; attach/detach clear cache_valid_ directly.
  if (cache_valid_ && cached_model_version_ == model_version && moved_.empty()) return;
  if (!cache_valid_) {
    rebuild_cache();  // attach/detach: membership itself moved
    return;
  }

  // Incremental path: collect the indices whose rows/columns must refresh.
  dirty_scratch_.clear();
  if (cached_model_version_ != model_version) {
    // A model change may come with a new spatial bound (e.g. a dynamic
    // override activating beyond the base geometry) — the grid must then
    // be resized, which only a full rebuild does.
    if (model_->max_interaction_range() != cache_range_) {
      rebuild_cache();
      return;
    }
    model_dirty_scratch_.clear();
    if (!model_->changed_nodes_since(cached_model_version_, model_dirty_scratch_)) {
      rebuild_cache();  // unattributable model change
      return;
    }
    // The model may name ids that were never attached.
    for (const NodeId id : model_dirty_scratch_) {
      if (id < slots_.size() && slots_[id].cache_idx != kNoRow) {
        dirty_scratch_.push_back(slots_[id].cache_idx);
      }
    }
  }
  // Movers are recorded only while the cache is valid, so each has a row.
  for (const NodeId id : moved_) dirty_scratch_.push_back(slots_[id].cache_idx);
  std::sort(dirty_scratch_.begin(), dirty_scratch_.end());
  dirty_scratch_.erase(std::unique(dirty_scratch_.begin(), dirty_scratch_.end()),
                       dirty_scratch_.end());
  const std::size_t n = cache_ids_.size();
  if (dirty_scratch_.size() * 2 >= n && dirty_scratch_.size() > 1) {
    rebuild_cache();  // most rows dirty: the full build is cheaper
    return;
  }
  // Settle every dirty node's grid cell first so candidate discovery sees
  // final geometry even when several nodes moved in the same batch.
  for (const std::uint32_t idx : dirty_scratch_) update_grid_membership(idx);
  for (const std::uint32_t idx : dirty_scratch_) refresh_node(idx);
  cached_model_version_ = model_version;
  moved_.clear();
}

void Medium::start_transmission(Radio& sender, FramePtr frame, PhysChannel channel) {
  // IEEE 802.15.4 aMaxPHYPacketSize: a timeslot holds at most a frame of
  // this length, so a longer one would outlast its slot. Bucket pruning
  // does not rely on it: a finished frame stays exactly as long as it
  // overlaps a frame still in flight, whatever the lengths.
  GTTSCH_CHECK(frame->length_bytes <= kMaxMacFrameBytes);
  const TimeUs air = frame_airtime(frame->length_bytes);
  const std::uint64_t id = next_tx_id_++;
  const TimeUs end = sim_.now() + air;
  ChannelState& cs = channels_[channel];
  cs.in_flight.push_back(
      Transmission{id, sender.id(), std::move(frame), channel, sim_.now(), end});
  ++stats_.transmissions;
  // One drain event per (channel, end-time) rendezvous: every later frame
  // ending at the same instant on the same channel (the TSCH case — equal
  // frame lengths transmitted at the same slot's tx offset) rides the
  // first frame's event. Airtime is strictly positive, so the drain this
  // frame may join cannot have fired already. The event inherits the
  // sender as owner.
  if (std::find(cs.pending_drains.begin(), cs.pending_drains.end(), end) ==
      cs.pending_drains.end()) {
    sim_.at_keyed(end, kDrainEventKey,
                  [this, channel, end] { drain_channel(channel, end); });
    cs.pending_drains.push_back(end);
  }
}

bool Medium::suffers_collision(const Transmission& tx, NodeId rid,
                               const Radio& rx) const {
  const std::size_t n = cache_ids_.size();
  const std::uint32_t rx_idx = slots_[rid].cache_idx;
  for (const auto& other : channels_[tx.channel].in_flight) {
    if (other.id == tx.id) continue;
    if (other.sender == rid) continue;  // a radio cannot jam itself here:
    // it would be transmitting, and the listening check already failed.
    const bool overlap = other.start < tx.end && tx.start < other.end;
    if (!overlap) continue;
    const RadioSlot& sender = slots_[other.sender];
    if (sender.radio == nullptr) continue;  // detached mid-flight: silent
    if (rx_idx != kNoRow && sender.cache_idx != kNoRow) {
      const std::uint8_t flags = cache_flags_[sender.cache_idx * n + rx_idx];
      if ((flags & kLinkInterferes) != 0) return true;
      continue;
    }
    if (model_->interferes(other.sender, sender.radio->position(), rid, rx.position()))
      return true;
  }
  return false;
}

TimeUs Medium::busy_until(NodeId listener, PhysChannel channel) const {
  const std::vector<Transmission>& in_flight = channels_[channel].in_flight;
  if (in_flight.empty()) return 0;
  ensure_cache();
  if (listener >= slots_.size() || slots_[listener].radio == nullptr) return 0;
  // In cached mode ensure_cache() gave every attached radio a row, and in
  // reference mode none has one.
  const std::uint32_t l_idx = slots_[listener].cache_idx;
  const Position& lpos = slots_[listener].radio->position();
  const std::size_t n = cache_ids_.size();
  const TimeUs now = sim_.now();
  TimeUs latest = 0;
  for (const Transmission& tx : in_flight) {
    if (tx.end <= now || tx.sender == listener) continue;
    const RadioSlot& sender = slots_[tx.sender];
    if (sender.radio == nullptr) continue;  // detached mid-flight: silent
    if (l_idx != kNoRow) {
      if (cache_flags_[sender.cache_idx * n + l_idx] != 0) {
        latest = std::max(latest, tx.end);
      }
      continue;
    }
    const Position& spos = sender.radio->position();
    if (model_->prr(tx.sender, spos, listener, lpos) > 0.0 ||
        model_->interferes(tx.sender, spos, listener, lpos)) {
      latest = std::max(latest, tx.end);
    }
  }
  return latest;
}

void Medium::resolve_receiver(const Transmission& tx, NodeId rid, Radio& radio,
                              double prr) {
  // Receiver must have been listening on the right channel for the whole
  // frame (preamble included).
  if (radio.state() != RadioState::kListening) return;
  if (radio.channel() != tx.channel) return;
  if (radio.listening_since() > tx.start) return;
  if (suffers_collision(tx, rid, radio)) {
    ++stats_.collision_losses;
    GTTSCH_LOG_DEBUG("medium", "collision at node %u (frame %s from %u)", rid,
                     frame_type_name(tx.frame->type), tx.sender);
    return;
  }
  if (!slots_[rid].rng.bernoulli(prr)) {
    ++stats_.prr_losses;
    return;
  }
  ++stats_.deliveries;
  // The receiver's processing — and every event chain it spawns (ACKs,
  // slot timers, routing reactions) — belongs to the *receiver*: without
  // this re-homing, a node bootstrapped by another node's frame would
  // inherit the sender's owner, and with it the sender's place in every
  // same-instant tie, for its whole lifetime.
  Simulator::ScopedOwner own(sim_, rid);
  radio.medium_deliver(tx.frame);
}

void Medium::drain_channel(PhysChannel channel, TimeUs end) {
  ChannelState& cs = channels_[channel];
  std::erase(cs.pending_drains, end);
  // Record the batch first: delivery callbacks may start new
  // transmissions, which end strictly later (never in this batch) and are
  // appended, so the recorded positions stay valid until the prune below.
  drain_scratch_.clear();
  for (std::size_t pos = 0; pos < cs.in_flight.size(); ++pos) {
    if (cs.in_flight[pos].end == end) drain_scratch_.push_back(pos);
  }
  // Bucket order is insertion order, so the batch runs in ascending
  // transmission id — exactly the order the per-frame completion events
  // fired in before batching.
  for (const std::size_t pos : drain_scratch_) finish_transmission(channel, pos);

  // Drop the finished frames that overlap nothing still in flight. Every
  // frame started from now on starts at or after `now`, and every frame
  // in flight at or after the earliest start among them; a finished frame
  // ending by both overlaps none of them, so no later collision check can
  // meet it. Only after the whole batch: its frames overlap each other.
  const TimeUs now = sim_.now();
  TimeUs first_live_start = now;
  for (const Transmission& t : cs.in_flight) {
    if (t.end > now) first_live_start = std::min(first_live_start, t.start);
  }
  std::erase_if(cs.in_flight, [first_live_start](const Transmission& t) {
    return t.end <= first_live_start;
  });
}

void Medium::finish_transmission(PhysChannel channel, std::size_t pos) {
  const std::vector<Transmission>& bucket = channels_[channel].in_flight;
  const NodeId sender_id = bucket[pos].sender;
  // A sender detached mid-flight went silent: its frame is lost, as
  // busy_until and suffers_collision already treat it.
  if (slots_[sender_id].radio == nullptr) return;

  ensure_cache();
  // Only receivers in communication range (prr > 0) draw from the RNG, in
  // ascending node id. Snapshot them first: delivery callbacks may
  // rebuild the cache.
  auto& candidates = delivery_scratch_;
  const std::uint32_t s_idx = slots_[sender_id].cache_idx;
  if (s_idx != kNoRow) {
    candidates.assign(cache_receivers_[s_idx].begin(), cache_receivers_[s_idx].end());
  } else {
    // Reference mode: ask the model for every attached radio.
    candidates.clear();
    const Position& tx_pos = slots_[sender_id].radio->position();
    for (std::size_t rid = 0; rid < slots_.size(); ++rid) {
      const Radio* radio = slots_[rid].radio;
      if (radio == nullptr || rid == sender_id) continue;
      const auto id = static_cast<NodeId>(rid);
      const double prr = model_->prr(sender_id, tx_pos, id, radio->position());
      if (prr > 0.0) candidates.push_back({id, prr});
    }
  }
  // A callback may detach a later candidate (or the sender), so each slot
  // is read afresh.
  for (const Receiver& c : candidates) {
    Radio* radio = slots_[c.id].radio;
    if (radio != nullptr) resolve_receiver(bucket[pos], c.id, *radio, c.prr);
  }

  if (Radio* sender = slots_[sender_id].radio; sender != nullptr) {
    // Owner re-homing, sender side: the tx-done processing (ACK timeout,
    // backoff, next-slot scheduling) is the sender's chain even when a
    // batched drain event is owned by another sender's frame.
    Simulator::ScopedOwner own(sim_, sender_id);
    sender->medium_tx_finished();
  }
}

}  // namespace gttsch
