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

/// Ordering key for drain events. Giving drains a *fixed* key (above every
/// node id, below the default class) pins their position among same-time
/// events to (end, kDrainEventKey, owner) — independent of the insertion
/// sequence number. That independence is what lets a repartition cancel
/// and re-home a pending drain without perturbing the event order the
/// sequential reference mode produces.
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
  shards_.push_back(std::make_unique<Shard>());
}

Medium::~Medium() = default;

Medium::Shard& Medium::shard() const {
  const std::uint32_t ctx = sim_.current_ctx();
  return ctx < shards_.size() ? *shards_[ctx] : *shards_[0];
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
  ++position_epoch_;
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
  cache_pairs_.clear();
  cache_receivers_.clear();
  moved_.clear();
  grid_.clear();
  node_grid_key_.clear();
  hot_state_.clear();
  hot_channel_.clear();
  hot_listen_since_.clear();
  hot_rng_.clear();
  for (auto& [id, radio] : radios_) radio->set_medium_slot(Radio::kNoMediumSlot);
}

MediumStats Medium::stats() const {
  MediumStats total;
  for (const auto& sp : shards_) {
    total.transmissions += sp->stats.transmissions;
    total.deliveries += sp->stats.deliveries;
    total.collision_losses += sp->stats.collision_losses;
    total.prr_losses += sp->stats.prr_losses;
  }
  return total;
}

void Medium::reset_stats() {
  for (const auto& sp : shards_) sp->stats = MediumStats{};
}

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
  cache_ids_.reserve(n);
  cache_radios_.reserve(n);
  for (const auto& [id, radio] : radios_) {
    cache_ids_.push_back(id);
    cache_radios_.push_back(radio);
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
  // Snapshot the SoA hot mirror and hand each radio its slot so later
  // state transitions update the arrays in O(1).
  hot_state_.assign(n, static_cast<std::uint8_t>(RadioState::kOff));
  hot_channel_.assign(n, 0);
  hot_listen_since_.assign(n, 0);
  hot_rng_.assign(n, nullptr);
  for (std::uint32_t i = 0; i < n; ++i) {
    Radio* r = cache_radios_[i];
    hot_state_[i] = static_cast<std::uint8_t>(r->state());
    hot_channel_[i] = r->channel();
    hot_listen_since_[i] = r->listening_since();
    hot_rng_[i] = &rx_rng(cache_ids_[i]);
    r->set_medium_slot(i);
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
  Shard& sh = shard();
  const TimeUs air = frame_airtime(frame->length_bytes);
  const std::uint64_t id = sh.next_tx_id++;
  const TimeUs end = sim_.now() + air;
  ChannelState& cs = sh.channels[channel];
  cs.in_flight.push_back(
      Transmission{id, sender.id(), std::move(frame), channel, sim_.now(), end});
  ++sh.stats.transmissions;
  ++sh.mutations;
  // One drain event per (channel, end-time) rendezvous: every later frame
  // ending at the same instant on the same channel (the TSCH case — equal
  // frame lengths transmitted at the same slot's tx offset) rides the
  // first frame's event. Airtime is strictly positive, so the drain this
  // frame may join cannot have fired already. The event inherits the
  // sender as owner, homing it to the sender's island.
  bool have_drain = false;
  for (const PendingDrain& d : cs.pending_drains) {
    if (d.end == end) {
      have_drain = true;
      break;
    }
  }
  if (!have_drain) {
    const EventId ev = sim_.at_keyed(
        end, kDrainEventKey, [this, channel, end] { drain_channel(channel, end); });
    cs.pending_drains.push_back(PendingDrain{end, ev});
  }
}

bool Medium::suffers_collision(const Shard& sh, const Transmission& tx, NodeId rid,
                               std::size_t rx_idx, const Radio* rx) const {
  const std::size_t n = cache_ids_.size();
  for (const auto& other : sh.channels[tx.channel].in_flight) {
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
    const Radio* receiver = rx != nullptr ? rx : cache_radios_[rx_idx];
    if (model_->interferes(other.sender, it->second->position(), rid,
                           receiver->position()))
      return true;
  }
  return false;
}

TimeUs Medium::busy_until(NodeId listener, PhysChannel channel) const {
  Shard& sh = shard();
  const std::vector<Transmission>& in_flight = sh.channels[channel].in_flight;
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
  BusyMemo& memo = sh.busy_memo;
  if (memo.at != now || memo.channel != channel ||
      memo.mutations != sh.mutations || memo.cache_builds != cache_builds_) {
    memo.at = now;
    memo.channel = channel;
    memo.mutations = sh.mutations;
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

void Medium::resolve_receiver_fast(Shard& sh, const Transmission& tx, NodeId rid,
                                   std::uint32_t r_idx, double prr) {
  // Receiver must have been listening on the right channel for the whole
  // frame (preamble included) — filters read the contiguous SoA mirror;
  // the Radio object is only touched for an actual delivery.
  if (hot_state_[r_idx] != static_cast<std::uint8_t>(RadioState::kListening)) return;
  if (hot_channel_[r_idx] != tx.channel) return;
  if (hot_listen_since_[r_idx] > tx.start) return;
  if (prr <= 0.0) return;  // out of communication range entirely
  if (suffers_collision(sh, tx, rid, r_idx, nullptr)) {
    ++sh.stats.collision_losses;
    GTTSCH_LOG_DEBUG("medium", "collision at node %u (frame %s from %u)", rid,
                     frame_type_name(tx.frame->type), tx.sender);
    return;
  }
  if (!hot_rng_[r_idx]->bernoulli(prr)) {
    ++sh.stats.prr_losses;
    return;
  }
  ++sh.stats.deliveries;
  // The receiver's processing — and every event chain it spawns (ACKs,
  // slot timers, routing reactions) — belongs to the *receiver*: without
  // this re-homing, a node bootstrapped by another node's frame would
  // inherit the sender's owner for its whole lifetime and a later
  // repartition would tear its event chains across two islands.
  Simulator::ScopedOwner own(sim_, rid);
  cache_radios_[r_idx]->medium_deliver(tx.frame);
}

void Medium::resolve_receiver_slow(Shard& sh, const Transmission& tx, NodeId rid,
                                   Radio& radio, double prr) {
  if (radio.state() != RadioState::kListening) return;
  if (radio.channel() != tx.channel) return;
  if (radio.listening_since() > tx.start) return;
  if (prr <= 0.0) return;
  if (suffers_collision(sh, tx, rid, kNpos, &radio)) {
    ++sh.stats.collision_losses;
    GTTSCH_LOG_DEBUG("medium", "collision at node %u (frame %s from %u)", rid,
                     frame_type_name(tx.frame->type), tx.sender);
    return;
  }
  if (!rx_rng(rid).bernoulli(prr)) {
    ++sh.stats.prr_losses;
    return;
  }
  ++sh.stats.deliveries;
  // Same receiver re-homing as the fast path (see above).
  Simulator::ScopedOwner own(sim_, rid);
  radio.medium_deliver(tx.frame);
}

void Medium::drain_channel(PhysChannel channel, TimeUs end) {
  Shard& sh = shard();
  ChannelState& cs = sh.channels[channel];
  std::erase_if(cs.pending_drains,
                [end](const PendingDrain& d) { return d.end == end; });
  // Snapshot the batch first: delivery callbacks may start new
  // transmissions (which end strictly later — never in this batch) and
  // the per-frame pruning below compacts the bucket.
  sh.drain_scratch.clear();
  for (const Transmission& t : cs.in_flight) {
    if (t.end == end) sh.drain_scratch.push_back(t.id);
  }
  // Bucket order is insertion order, so the batch runs in ascending
  // transmission id — exactly the order the per-frame completion events
  // fired in before batching.
  for (const std::uint64_t id : sh.drain_scratch) finish_transmission(sh, channel, id);
}

void Medium::finish_transmission(Shard& sh, PhysChannel channel, std::uint64_t tx_id) {
  auto& bucket = sh.channels[channel].in_flight;
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
    auto& scratch = sh.delivery_scratch;
    scratch.clear();
    for (const std::uint32_t r_idx : cache_receivers_[s_idx]) {
      scratch.push_back(DeliveryCandidate{cache_ids_[r_idx], r_idx, nullptr,
                                          cache_pairs_[s_idx * n + r_idx].prr});
    }
    // While no callback attaches/detaches a radio or rebuilds the cache,
    // the snapshotted indices stay valid and candidates resolve straight
    // off the SoA mirror — one integer compare per candidate instead of
    // the old per-candidate map lookup. On the (rare) mutation, fall
    // back to revalidating each remaining candidate through the id map.
    const std::uint64_t snap_structure = structure_version_;
    const std::uint64_t snap_builds = cache_builds_;
    for (const DeliveryCandidate& cand : scratch) {
      if (structure_version_ == snap_structure && cache_builds_ == snap_builds) {
        resolve_receiver_fast(sh, tx, cand.id, cand.r_idx, cand.prr);
        continue;
      }
      const auto rit = radios_.find(cand.id);
      if (rit == radios_.end()) continue;
      resolve_receiver_slow(sh, tx, cand.id, *rit->second, cand.prr);
    }
  } else {
    // Sender unknown to the cache (detached mid-flight, or reference
    // mode): resolve each receiver against the model directly — with the
    // same snapshot + revalidation discipline as above, since delivery
    // callbacks may detach radios mid-loop. Out-of-range receivers
    // (prr <= 0) are filtered here: they draw nothing and deliver
    // nothing, and skipping them keeps the loop from touching radios the
    // executing island does not own.
    auto& scratch = sh.delivery_scratch;
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
      resolve_receiver_slow(sh, tx, cand.id, *cand.radio, cand.prr);
    }
  }

  // Prune this channel's transmissions that can no longer overlap anything
  // still in flight.
  const TimeUs horizon = sim_.now() - kInFlightRetention;
  std::erase_if(bucket, [&](const Transmission& t) { return t.end < horizon; });
  ++sh.mutations;

  // Same revalidation as the receivers: a delivery callback may have
  // detached (destroyed) the sender since the lookup above.
  const auto sit = radios_.find(tx.sender);
  if (sit != radios_.end() && sit->second == sender && sender != nullptr) {
    // Owner re-homing, sender side: the tx-done processing (ACK timeout,
    // backoff, next-slot scheduling) is the sender's chain even when a
    // batched drain event is owned by another island-mate's frame.
    Simulator::ScopedOwner own(sim_, tx.sender);
    sender->medium_tx_finished();
  }
}

// --- IslandSource ---------------------------------------------------------

std::uint64_t Medium::partition_epoch() const {
  // Any attach/detach, any position change, or any link-model activation
  // may change island membership; mix the three counters so each bump
  // forces one repartition check at the next phase boundary.
  return structure_version_ * 0x9E3779B97F4A7C15ull +
         position_epoch_ * 0xC2B2AE3D27D4EB4Full + model_->version();
}

void Medium::settle(TimeUs /*now*/) {
  // Runs on the main thread at every phase boundary, with the main clock
  // already advanced: forces the link model's lazy activation recount and
  // folds pending cache refreshes, so island lanes see ensure_cache() as
  // a pure read for the whole phase.
  if (link_cache_enabled_) {
    ensure_cache();
  } else {
    (void)model_->version();
  }
}

bool Medium::compute_islands(
    std::vector<std::pair<std::uint32_t, std::uint32_t>>* owner_island,
    std::uint32_t* island_count) {
  if (!link_cache_enabled_) return false;
  ensure_cache();
  if (!cache_valid_ || !grid_active()) return false;
  const std::size_t n = cache_ids_.size();
  if (n == 0) return false;

  // Union-find over the compiled pair matrix: two nodes are connected
  // when either direction communicates (prr > 0) or interferes. Pairs
  // beyond a node's 3x3 grid neighborhood are {0, false} by the model's
  // max_interaction_range contract, so scanning neighborhoods covers
  // every edge.
  std::vector<std::uint32_t> parent(n);
  for (std::uint32_t i = 0; i < n; ++i) parent[i] = i;
  const auto find = [&parent](std::uint32_t x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];  // path halving
      x = parent[x];
    }
    return x;
  };
  for (std::uint32_t t = 0; t < n; ++t) {
    collect_candidates(cache_radios_[t]->position(), candidate_scratch_);
    for (const std::uint32_t r : candidate_scratch_) {
      if (r == t) continue;
      const PairLink& ab = cache_pairs_[t * n + r];
      const PairLink& ba = cache_pairs_[r * n + t];
      if (ab.prr > 0.0 || ab.interferes || ba.prr > 0.0 || ba.interferes) {
        const std::uint32_t ra = find(t);
        const std::uint32_t rb = find(r);
        if (ra != rb) parent[rb] = ra;
      }
    }
  }
  // Dense island ids, ordered by smallest member index — deterministic
  // regardless of union order.
  std::vector<std::uint32_t> island(n, kNpos32);
  owner_island->clear();
  owner_island->reserve(n);
  std::uint32_t next = 0;
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::uint32_t root = find(i);
    if (island[root] == kNpos32) island[root] = next++;
    owner_island->emplace_back(cache_ids_[i], island[root]);
  }
  *island_count = next;
  return true;
}

void Medium::on_partition() {
  const std::uint32_t want = std::max<std::uint32_t>(1, sim_.ctx_count());
  // Sweep every shard: sum stats, collect in-flight transmissions, and
  // cancel all pending drains (they are re-homed below).
  MediumStats total;
  std::vector<Transmission> all;
  std::vector<std::pair<PhysChannel, TimeUs>> pending;
  std::uint64_t max_id = 1;
  for (const auto& sp : shards_) {
    total.transmissions += sp->stats.transmissions;
    total.deliveries += sp->stats.deliveries;
    total.collision_losses += sp->stats.collision_losses;
    total.prr_losses += sp->stats.prr_losses;
    max_id = std::max(max_id, sp->next_tx_id);
    for (std::size_t ch = 0; ch < sp->channels.size(); ++ch) {
      ChannelState& cs = sp->channels[ch];
      for (const PendingDrain& d : cs.pending_drains) {
        sim_.cancel(d.event);
        const auto key = std::make_pair(static_cast<PhysChannel>(ch), d.end);
        if (std::find(pending.begin(), pending.end(), key) == pending.end())
          pending.push_back(key);
      }
      for (auto& t : cs.in_flight) all.push_back(std::move(t));
    }
  }
  shards_.clear();
  shards_.reserve(want);
  for (std::uint32_t i = 0; i < want; ++i) {
    shards_.push_back(std::make_unique<Shard>());
    shards_.back()->next_tx_id = max_id;
  }
  shards_[0]->stats = total;
  // Route by sender island in sequential insertion order — chronological
  // by start, node id at equal starts (same-time tx events execute in
  // node order in both modes) — re-assigning per-shard unique ids that
  // preserve that order for the drain batches.
  std::sort(all.begin(), all.end(),
            [](const Transmission& a, const Transmission& b) {
              if (a.start != b.start) return a.start < b.start;
              return a.sender < b.sender;
            });
  for (Transmission& t : all) {
    const std::uint32_t idx = sim_.island_of(t.sender);
    Shard& s = *shards_[idx < want ? idx : 0];
    t.id = s.next_tx_id++;
    s.channels[t.channel].in_flight.push_back(std::move(t));
  }
  // Re-schedule one drain per (shard, channel, pending end), owned by the
  // first frame of the rendezvous so the event executes on the island
  // whose shard holds the frames. The fixed drain key makes the new
  // event's position in the time-step identical to the cancelled one's.
  for (const auto& sp : shards_) {
    for (std::size_t ch = 0; ch < sp->channels.size(); ++ch) {
      ChannelState& cs = sp->channels[ch];
      const auto channel = static_cast<PhysChannel>(ch);
      for (const Transmission& t : cs.in_flight) {
        if (std::find(pending.begin(), pending.end(), std::make_pair(channel, t.end)) ==
            pending.end())
          continue;
        bool scheduled = false;
        for (const PendingDrain& d : cs.pending_drains) {
          if (d.end == t.end) {
            scheduled = true;
            break;
          }
        }
        if (scheduled) continue;
        Simulator::ScopedOwner own(sim_, t.sender);
        const TimeUs end = t.end;
        cs.pending_drains.push_back(PendingDrain{
            end, sim_.at_keyed(end, kDrainEventKey,
                               [this, channel, end] { drain_channel(channel, end); })});
      }
    }
  }
}

}  // namespace gttsch
