#include "phy/medium.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "sim/log.hpp"
#include "util/check.hpp"

namespace gttsch {

namespace {
/// How long a finished transmission stays in its channel bucket. A finished
/// frame only matters for collision resolution of frames that overlapped it
/// in time, and no frame is airborne longer than kMaxFrameAirtime — so
/// anything that ended more than one maximal airtime ago can no longer
/// overlap a transmission still in flight.
constexpr TimeUs kInFlightRetention = kMaxFrameAirtime;

constexpr std::size_t kNpos = static_cast<std::size_t>(-1);
constexpr std::uint32_t kNpos32 = 0xFFFFFFFFu;

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

/// Insert `value` into an ascending vector, keeping it sorted and unique.
void insert_sorted(std::vector<std::uint32_t>& v, std::uint32_t value) {
  const auto it = std::lower_bound(v.begin(), v.end(), value);
  if (it == v.end() || *it != value) v.insert(it, value);
}

/// Remove `value` from an ascending vector if present.
void erase_sorted(std::vector<std::uint32_t>& v, std::uint32_t value) {
  const auto it = std::lower_bound(v.begin(), v.end(), value);
  if (it != v.end() && *it == value) v.erase(it);
}
}  // namespace

Medium::Medium(Simulator& sim, std::unique_ptr<LinkModel> model, Rng rng)
    : sim_(sim), model_(std::move(model)), rng_(rng) {
  GTTSCH_CHECK(model_ != nullptr);
}

void Medium::attach(Radio* radio) {
  GTTSCH_CHECK(radio != nullptr);
  radios_[radio->id()] = radio;
  // Forked by node id, persistent across reboots: the stream is a
  // function of the run seed and the receiver identity alone, never of
  // attach order or of other nodes' delivery interleavings.
  rx_rngs_.try_emplace(radio->id(), rng_.fork(radio->id()));
  ++structure_version_;
}

void Medium::detach(NodeId id) {
  radios_.erase(id);
  ++structure_version_;
}

void Medium::position_changed(NodeId id) {
  if (!cache_valid_) return;  // a full (re)build is pending anyway
  // Deduplicate: a node walking many steps between medium queries stays
  // one dirty entry (the refresh reads its *current* position anyway), so
  // the backlog is bounded by distinct movers and only overflows — into a
  // full rebuild — when essentially the whole network moved. The cap is
  // measured against the *live* radio count: cache_ids_ goes stale after
  // detach, and with dedup bounding the backlog at the attached count the
  // fallback must fire at equality, not beyond it.
  if (std::find(moved_.begin(), moved_.end(), id) != moved_.end()) return;
  moved_.push_back(id);
  if (moved_.size() >= radios_.size()) {
    cache_valid_ = false;
    moved_.clear();
  }
}

void Medium::set_link_cache_enabled(bool enabled) {
  if (link_cache_enabled_ == enabled) return;
  link_cache_enabled_ = enabled;
  cache_valid_ = false;
  cache_ids_.clear();
  cache_index_of_.clear();
  cache_radios_.clear();
  cache_rngs_.clear();
  cache_pairs_.clear();
  cache_receivers_.clear();
  moved_.clear();
  grid_.clear();
  node_grid_key_.clear();
}

void Medium::reset_stats() { stats_ = MediumStats{}; }

Rng& Medium::rx_rng(NodeId id) const {
  const auto it = rx_rngs_.find(id);
  GTTSCH_CHECK(it != rx_rngs_.end());
  return it->second;
}

double Medium::link_prr(NodeId tx, NodeId rx) const {
  const auto a = radios_.find(tx);
  const auto b = radios_.find(rx);
  if (a == radios_.end() || b == radios_.end()) return 0.0;
  return model_->prr(tx, a->second->position(), rx, b->second->position());
}

bool Medium::grid_active() const {
  return std::isfinite(cache_range_) && cache_range_ > 0.0;
}

void Medium::update_grid_membership(std::uint32_t idx) const {
  if (!grid_active()) return;
  std::int64_t cx = 0;
  std::int64_t cy = 0;
  grid_coords(cache_radios_[idx]->position(), cache_range_, cx, cy);
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
  const std::size_t n = radios_.size();
  cache_ids_.clear();
  cache_radios_.clear();
  cache_rngs_.clear();
  cache_ids_.reserve(n);
  cache_radios_.reserve(n);
  cache_rngs_.reserve(n);
  for (const auto& [id, radio] : radios_) {
    cache_ids_.push_back(id);
    cache_radios_.push_back(radio);
    cache_rngs_.push_back(&rx_rng(id));
  }
  cache_index_of_.assign(n == 0 ? 0 : std::size_t{cache_ids_.back()} + 1, kNpos32);
  for (std::uint32_t i = 0; i < n; ++i) cache_index_of_[cache_ids_[i]] = i;
  cache_pairs_.assign(n * n, PairLink{});
  cache_receivers_.assign(n, {});
  cache_range_ = model_->max_interaction_range();
  grid_.clear();
  node_grid_key_.assign(n, 0);
  if (grid_active()) {
    for (std::uint32_t i = 0; i < n; ++i) {
      std::int64_t cx = 0;
      std::int64_t cy = 0;
      grid_coords(cache_radios_[i]->position(), cache_range_, cx, cy);
      const std::uint64_t key = pack_cell(cx, cy);
      grid_[key].push_back(i);
      node_grid_key_[i] = key;
    }
  }
  // Pairs outside a node's grid neighborhood stay {0, false}, which the
  // model's max_interaction_range contract guarantees the model would
  // answer too — so this O(n * degree) build is bit-identical to the
  // all-pairs one.
  for (std::uint32_t t = 0; t < n; ++t) {
    const Position& tx_pos = cache_radios_[t]->position();
    collect_candidates(tx_pos, candidate_scratch_);
    for (const std::uint32_t r : candidate_scratch_) {
      if (r == t) continue;
      const Position& rx_pos = cache_radios_[r]->position();
      PairLink& link = cache_pairs_[t * n + r];
      link.prr = model_->prr(cache_ids_[t], tx_pos, cache_ids_[r], rx_pos);
      link.interferes =
          model_->interferes(cache_ids_[t], tx_pos, cache_ids_[r], rx_pos);
      if (link.prr > 0.0) cache_receivers_[t].push_back(r);
    }
  }
  ++cache_builds_;
  cached_structure_version_ = structure_version_;
  cached_model_version_ = model_->version();
  moved_.clear();
  cache_valid_ = true;
}

void Medium::refresh_node(std::uint32_t m) const {
  const std::size_t n = cache_ids_.size();
  // Clear column m: forget every sender's link *to* the node (the prr > 0
  // ones are exactly those holding m in their receiver list).
  for (std::uint32_t s = 0; s < n; ++s) {
    if (s == m) continue;
    PairLink& to_m = cache_pairs_[s * n + m];
    if (to_m.prr > 0.0) erase_sorted(cache_receivers_[s], m);
    to_m = PairLink{};
  }
  // Clear row m.
  std::fill(cache_pairs_.begin() + static_cast<std::ptrdiff_t>(m * n),
            cache_pairs_.begin() + static_cast<std::ptrdiff_t>((m + 1) * n),
            PairLink{});
  cache_receivers_[m].clear();
  // Recompute both directions against the grid neighborhood of the
  // node's current position. Values are whatever the model answers for
  // current positions, and anything farther than the spatial bound is
  // {0, false} on both sides — bit-identical to a full rebuild.
  const Position& m_pos = cache_radios_[m]->position();
  collect_candidates(m_pos, candidate_scratch_);
  for (const std::uint32_t r : candidate_scratch_) {
    if (r == m) continue;
    const Position& r_pos = cache_radios_[r]->position();
    PairLink& out = cache_pairs_[m * n + r];
    out.prr = model_->prr(cache_ids_[m], m_pos, cache_ids_[r], r_pos);
    out.interferes = model_->interferes(cache_ids_[m], m_pos, cache_ids_[r], r_pos);
    if (out.prr > 0.0) cache_receivers_[m].push_back(r);  // candidates ascend
    PairLink& in = cache_pairs_[r * n + m];
    in.prr = model_->prr(cache_ids_[r], r_pos, cache_ids_[m], m_pos);
    in.interferes = model_->interferes(cache_ids_[r], r_pos, cache_ids_[m], m_pos);
    if (in.prr > 0.0) insert_sorted(cache_receivers_[r], m);
  }
}

void Medium::ensure_cache() const {
  if (!link_cache_enabled_) return;
  const std::uint64_t model_version = model_->version();
  if (cache_valid_ && cached_structure_version_ == structure_version_ &&
      cached_model_version_ == model_version && moved_.empty()) {
    return;
  }
  if (!cache_valid_ || cached_structure_version_ != structure_version_) {
    rebuild_cache();  // structural change: membership itself moved
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
    for (const NodeId id : model_dirty_scratch_) {
      const std::size_t idx = cache_index(id);
      if (idx != kNpos) dirty_scratch_.push_back(static_cast<std::uint32_t>(idx));
    }
  }
  for (const NodeId id : moved_) {
    const std::size_t idx = cache_index(id);
    // A moved radio unknown to the cache would have changed the structure
    // version and taken the rebuild branch above.
    if (idx != kNpos) dirty_scratch_.push_back(static_cast<std::uint32_t>(idx));
  }
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

std::size_t Medium::cache_index(NodeId id) const {
  if (id >= cache_index_of_.size()) return kNpos;
  const std::uint32_t idx = cache_index_of_[id];
  return idx == kNpos32 ? kNpos : idx;
}

void Medium::start_transmission(Radio& sender, FramePtr frame, PhysChannel channel) {
  // kInFlightRetention's overlap bound assumes no frame outlives the
  // maximal legal airtime; enforce the 127-byte invariant at the source.
  GTTSCH_CHECK(frame->length_bytes <= kMaxMacFrameBytes);
  const TimeUs air = frame_airtime(frame->length_bytes);
  const std::uint64_t id = next_tx_id_++;
  const TimeUs end = sim_.now() + air;
  ChannelState& cs = channels_[channel];
  cs.in_flight.push_back(
      Transmission{id, sender.id(), std::move(frame), channel, sim_.now(), end});
  ++stats_.transmissions;
  ++mutations_;
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

bool Medium::suffers_collision(const Transmission& tx, NodeId rid, std::size_t rx_idx,
                               const Radio& rx) const {
  const std::size_t n = cache_ids_.size();
  for (const auto& other : channels_[tx.channel].in_flight) {
    if (other.id == tx.id) continue;
    if (other.sender == rid) continue;  // a radio cannot jam itself here:
    // it would be transmitting, and the listening check already failed.
    const bool overlap = other.start < tx.end && tx.start < other.end;
    if (!overlap) continue;
    const std::size_t s_idx = cache_index(other.sender);
    if (rx_idx != kNpos && s_idx != kNpos) {
      if (cache_pairs_[s_idx * n + rx_idx].interferes) return true;
      continue;
    }
    // Uncached (e.g. sender detached mid-flight, or the cache is in
    // reference mode): ask the model directly.
    const auto it = radios_.find(other.sender);
    if (it == radios_.end()) continue;
    if (model_->interferes(other.sender, it->second->position(), rid, rx.position()))
      return true;
  }
  return false;
}

TimeUs Medium::busy_until(NodeId listener, PhysChannel channel) const {
  const std::vector<Transmission>& in_flight = channels_[channel].in_flight;
  if (in_flight.empty()) return 0;
  ensure_cache();
  // ensure_cache() leaves the cache matching radios_, so in cached mode an
  // id it does not know is not attached.
  std::size_t l_idx = kNpos;
  const Radio* lradio = nullptr;
  if (link_cache_enabled_) {
    l_idx = cache_index(listener);
    if (l_idx == kNpos) return 0;
    lradio = cache_radios_[l_idx];
  } else {
    const auto lit = radios_.find(listener);
    if (lit == radios_.end()) return 0;
    lradio = lit->second;
  }
  const std::size_t n = cache_ids_.size();
  const TimeUs now = sim_.now();
  const Position& lpos = lradio->position();
  // Batch the bucket scan: all nodes polling carrier sense at the same
  // (instant, channel) — every receiver of a TSCH slot during its rx
  // guard — share one pass that resolves live transmissions and their
  // sender cache indices; each listener then only walks the compact
  // (s_idx, end) list against its own column of the pair matrix.
  BusyMemo& memo = busy_memo_;
  if (memo.at != now || memo.channel != channel ||
      memo.mutations != mutations_ || memo.cache_builds != cache_builds_) {
    memo.at = now;
    memo.channel = channel;
    memo.mutations = mutations_;
    memo.cache_builds = cache_builds_;
    memo.live.clear();
    for (const auto& tx : in_flight) {
      if (tx.end <= now) continue;
      const std::size_t s_idx = cache_index(tx.sender);
      memo.live.push_back(LiveTx{
          s_idx == kNpos ? kNpos32 : static_cast<std::uint32_t>(s_idx),
          tx.sender, tx.end});
    }
  }
  TimeUs latest = 0;
  for (const LiveTx& t : memo.live) {
    if (t.sender == listener) continue;
    if (t.s_idx != kNpos32 && l_idx != kNpos) {
      const PairLink& link = cache_pairs_[t.s_idx * n + l_idx];
      if (link.prr > 0.0 || link.interferes) latest = std::max(latest, t.end);
      continue;
    }
    const auto sit = radios_.find(t.sender);
    if (sit == radios_.end()) continue;
    const Position& spos = sit->second->position();
    if (model_->prr(t.sender, spos, listener, lpos) > 0.0 ||
        model_->interferes(t.sender, spos, listener, lpos)) {
      latest = std::max(latest, t.end);
    }
  }
  return latest;
}

void Medium::resolve_receiver(const Transmission& tx, NodeId rid, Radio& radio,
                              std::size_t r_idx, double prr) {
  // Receiver must have been listening on the right channel for the whole
  // frame (preamble included).
  if (radio.state() != RadioState::kListening) return;
  if (radio.channel() != tx.channel) return;
  if (radio.listening_since() > tx.start) return;
  if (prr <= 0.0) return;  // out of communication range entirely
  if (suffers_collision(tx, rid, r_idx, radio)) {
    ++stats_.collision_losses;
    GTTSCH_LOG_DEBUG("medium", "collision at node %u (frame %s from %u)", rid,
                     frame_type_name(tx.frame->type), tx.sender);
    return;
  }
  Rng& rng = r_idx != kNpos ? *cache_rngs_[r_idx] : rx_rng(rid);
  if (!rng.bernoulli(prr)) {
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
  // Snapshot the batch first: delivery callbacks may start new
  // transmissions (which end strictly later — never in this batch) and
  // the per-frame pruning below compacts the bucket.
  drain_scratch_.clear();
  for (const Transmission& t : cs.in_flight) {
    if (t.end == end) drain_scratch_.push_back(t.id);
  }
  // Bucket order is insertion order, so the batch runs in ascending
  // transmission id — exactly the order the per-frame completion events
  // fired in before batching.
  for (const std::uint64_t id : drain_scratch_) finish_transmission(channel, id);
}

void Medium::finish_transmission(PhysChannel channel, std::uint64_t tx_id) {
  auto& bucket = channels_[channel].in_flight;
  const auto it = std::find_if(bucket.begin(), bucket.end(),
                               [tx_id](const Transmission& t) { return t.id == tx_id; });
  GTTSCH_CHECK(it != bucket.end());
  const Transmission tx = *it;  // copy: delivery callbacks may mutate the list

  const auto sender_it = radios_.find(tx.sender);
  Radio* sender = sender_it == radios_.end() ? nullptr : sender_it->second;

  ensure_cache();
  const std::size_t s_idx = sender != nullptr ? cache_index(tx.sender) : kNpos;
  if (s_idx != kNpos) {
    const std::size_t n = cache_ids_.size();
    // Only receivers in communication range (prr > 0) draw from the RNG,
    // in ascending node id — matching the full-radio iteration this fast
    // path replaces. Snapshot the candidates first: like the Transmission
    // copy above, delivery callbacks may invalidate the cache vectors.
    auto& scratch = delivery_scratch_;
    scratch.clear();
    for (const std::uint32_t r_idx : cache_receivers_[s_idx]) {
      scratch.push_back(DeliveryCandidate{cache_ids_[r_idx], r_idx, nullptr,
                                          cache_pairs_[s_idx * n + r_idx].prr});
    }
    // While no callback attaches/detaches a radio or rebuilds the cache,
    // the snapshotted indices stay valid and candidates resolve through
    // the cache's radio and RNG tables, with no per-candidate map lookup.
    // On the (rare) mutation, fall back to revalidating each remaining
    // candidate through the id map.
    const std::uint64_t snap_structure = structure_version_;
    const std::uint64_t snap_builds = cache_builds_;
    for (const DeliveryCandidate& cand : scratch) {
      if (structure_version_ == snap_structure && cache_builds_ == snap_builds) {
        resolve_receiver(tx, cand.id, *cache_radios_[cand.r_idx], cand.r_idx, cand.prr);
        continue;
      }
      const auto rit = radios_.find(cand.id);
      if (rit == radios_.end()) continue;
      resolve_receiver(tx, cand.id, *rit->second, kNpos, cand.prr);
    }
  } else {
    // Sender unknown to the cache (detached mid-flight, or reference
    // mode): resolve each receiver against the model directly — with the
    // same snapshot + revalidation discipline as above, since delivery
    // callbacks may detach radios mid-loop. Out-of-range receivers
    // (prr <= 0) are filtered here: they draw nothing and deliver
    // nothing.
    auto& scratch = delivery_scratch_;
    scratch.clear();
    for (auto& [rid, radio] : radios_) {
      if (rid == tx.sender) continue;
      const Position& tx_pos = sender != nullptr ? sender->position() : Position{};
      const double prr = model_->prr(tx.sender, tx_pos, rid, radio->position());
      if (prr <= 0.0) continue;
      scratch.push_back(DeliveryCandidate{rid, kNpos32, radio, prr});
    }
    for (const DeliveryCandidate& cand : scratch) {
      const auto rit = radios_.find(cand.id);
      if (rit == radios_.end() || rit->second != cand.radio) continue;
      resolve_receiver(tx, cand.id, *cand.radio, kNpos, cand.prr);
    }
  }

  // Prune this channel's transmissions that can no longer overlap anything
  // still in flight.
  const TimeUs horizon = sim_.now() - kInFlightRetention;
  std::erase_if(bucket, [&](const Transmission& t) { return t.end < horizon; });
  ++mutations_;

  // Same revalidation as the receivers: a delivery callback may have
  // detached (destroyed) the sender since the lookup above.
  const auto sit = radios_.find(tx.sender);
  if (sit != radios_.end() && sit->second == sender && sender != nullptr) {
    // Owner re-homing, sender side: the tx-done processing (ACK timeout,
    // backoff, next-slot scheduling) is the sender's chain even when a
    // batched drain event is owned by another sender's frame.
    Simulator::ScopedOwner own(sim_, tx.sender);
    sender->medium_tx_finished();
  }
}

}  // namespace gttsch
