// The shared wireless medium: transports frames between radios, resolving
// per-receiver outcomes (link loss, collisions, hidden terminals).
#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "phy/link_model.hpp"
#include "phy/radio.hpp"
#include "phy/wire.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace gttsch {

/// Aggregate medium statistics (useful for tests and the channel-allocation
/// ablation: GT-TSCH's claim is precisely that collisions vanish).
struct MediumStats {
  std::uint64_t transmissions = 0;
  std::uint64_t deliveries = 0;
  std::uint64_t collision_losses = 0;  ///< receiver lost frame to interference
  std::uint64_t prr_losses = 0;        ///< receiver lost frame to link quality
};

/// Delivery resolution is cached: the pairwise PRR/interference matrix and
/// the per-sender in-range receiver lists are compiled from the link model.
/// Invalidation is *incremental*: a moved radio (Radio::set_position) or a
/// model change the model can attribute (LinkModel::changed_nodes_since)
/// refreshes only the affected rows/columns, discovering candidates through
/// a uniform-grid spatial index sized by LinkModel::max_interaction_range()
/// — O(degree) model calls per move instead of the full O(n^2) rebuild.
/// Attach/detach (structural) and unattributable model changes still
/// rebuild from scratch. Cached answers are bit-identical to querying the
/// model directly (set_link_cache_enabled(false) is the reference mode the
/// property tests compare against).
///
/// In-flight transmissions are bucketed per physical channel, and frame
/// completions are *batched*: one drain event per (channel, end-time)
/// rendezvous resolves every frame ending at that instant in transmission
/// order, instead of one simulator event per frame.
///
/// The medium is also the simulator's IslandSource (PR 10): the same grid
/// that bounds cache refreshes partitions nodes into interference islands
/// (union-find over the compiled pair matrix), and all transmission state
/// is sharded per island so island lanes never share mutable PHY state.
/// Delivery RNG is per-*receiver* (forked from the medium stream by node
/// id at attach), so the draw a receiver makes is independent of the
/// global interleaving of other islands' deliveries — the keystone of the
/// parallel == sequential bit-identity contract.
class Medium final : public IslandSource {
 public:
  Medium(Simulator& sim, std::unique_ptr<LinkModel> model, Rng rng);
  ~Medium() override;

  void attach(Radio* radio);
  void detach(NodeId id);

  /// Radio position changed (mobility): marks only that radio's cache
  /// rows/columns for refresh.
  void position_changed(NodeId id);

  /// Called by Radio::transmit. Takes care of completion and delivery.
  void start_transmission(Radio& sender, FramePtr frame, PhysChannel channel);

  /// Aggregated over all island shards.
  MediumStats stats() const;
  void reset_stats();

  /// Latest end time of any in-flight transmission on `channel` audible at
  /// `listener` (carrier sense). Returns 0 when the channel is clear or the
  /// listener is not attached. Constant work per query apart from the live
  /// transmissions themselves: an empty channel bucket answers before any
  /// lookup, the bucket scan is shared by every listener polling the same
  /// (instant, channel), and the listener resolves through the cache's
  /// id-indexed table (the radio map is read only in the uncached
  /// reference mode).
  TimeUs busy_until(NodeId listener, PhysChannel channel) const;

  const LinkModel& link_model() const { return *model_; }

  /// PRR between two attached radios under the current model (testing aid).
  double link_prr(NodeId tx, NodeId rx) const;

  /// Reference mode for the cache property tests: with the link cache off,
  /// every delivery, carrier-sense and collision check queries the model
  /// directly. Observably identical to the cached mode (same candidate
  /// order, same RNG draw discipline) — which is exactly what the tests
  /// assert, bit for bit.
  void set_link_cache_enabled(bool enabled);
  bool link_cache_enabled() const { return link_cache_enabled_; }

  /// Radio hot-state mirror (SoA): radios push their state transitions
  /// here so the delivery loop filters against three contiguous arrays
  /// instead of pointer-chasing into each Radio object.
  void radio_hot_changed(std::uint32_t slot, RadioState state,
                         PhysChannel channel, TimeUs listen_since) {
    if (slot >= hot_state_.size()) return;
    hot_state_[slot] = static_cast<std::uint8_t>(state);
    hot_channel_[slot] = channel;
    hot_listen_since_[slot] = listen_since;
  }

  // --- IslandSource (see sim/simulator.hpp) -----------------------------
  std::uint64_t partition_epoch() const override;
  bool compute_islands(
      std::vector<std::pair<std::uint32_t, std::uint32_t>>* owner_island,
      std::uint32_t* island_count) override;
  void on_partition() override;
  void settle(TimeUs now) override;

 private:
  struct Transmission {
    std::uint64_t id;
    NodeId sender;
    FramePtr frame;
    PhysChannel channel;
    TimeUs start;
    TimeUs end;
  };

  /// A scheduled (channel, end-time) drain rendezvous. The EventId is
  /// kept so a repartition can cancel and re-home pending drains.
  struct PendingDrain {
    TimeUs end;
    EventId event;
  };

  /// Per-channel in-flight bucket plus the end times that already have a
  /// drain event scheduled (one event per distinct end time).
  struct ChannelState {
    std::vector<Transmission> in_flight;
    std::vector<PendingDrain> pending_drains;
  };

  /// One compiled link-cache entry (row-major: pairs_[tx_idx*n + rx_idx]).
  struct PairLink {
    double prr = 0.0;
    bool interferes = false;
  };

  /// See the delivery-loop comment in finish_transmission.
  struct DeliveryCandidate {
    NodeId id;
    std::uint32_t r_idx;
    Radio* radio;
    double prr;
  };

  /// Carrier-sense batch memo: the bucket scan (live transmissions with
  /// resolved sender cache indices) is shared by every node polling the
  /// same (instant, channel) — the TSCH rx-guard case, where all receivers
  /// of a slot check the same channel at the same tick.
  struct LiveTx {
    std::uint32_t s_idx;  ///< sender cache index; npos32 when uncached
    NodeId sender;
    TimeUs end;
  };
  struct BusyMemo {
    TimeUs at = -1;
    PhysChannel channel = 0;
    std::uint64_t mutations = 0;
    std::uint64_t cache_builds = 0;
    std::vector<LiveTx> live;
  };

  /// All mutable transmission state of one island (shard 0 doubles as the
  /// sequential / global shard). Island lanes only ever touch their own
  /// shard, selected by the executing simulator context.
  struct Shard {
    /// Indexed by physical channel: one bucket for every PhysChannel value,
    /// so no lookup or bounds check is needed.
    std::array<ChannelState, std::numeric_limits<PhysChannel>::max() + 1> channels;
    MediumStats stats;
    std::uint64_t next_tx_id = 1;
    /// Bucket-change counter; invalidates the carrier-sense memo.
    std::uint64_t mutations = 0;
    std::vector<std::uint64_t> drain_scratch;
    std::vector<DeliveryCandidate> delivery_scratch;
    BusyMemo busy_memo;
  };

  Shard& shard() const;

  /// Resolve every transmission on `channel` ending exactly at `end`, in
  /// transmission-id (= start) order — the batched replacement for the
  /// old one-event-per-frame completion.
  void drain_channel(PhysChannel channel, TimeUs end);
  void finish_transmission(Shard& sh, PhysChannel channel, std::uint64_t tx_id);
  /// Resolve one candidate receiver of a finished transmission: listening
  /// filters, collision check, PRR draw, stats, delivery. `fast` reads
  /// the SoA mirror by cache index; `slow` reads the Radio (reference
  /// mode / structure changed mid-batch). Both share the filter order and
  /// RNG-draw discipline (part of the fast-path bit-equivalence
  /// contract). `prr` <= 0 draws nothing.
  void resolve_receiver_fast(Shard& sh, const Transmission& tx, NodeId rid,
                             std::uint32_t r_idx, double prr);
  void resolve_receiver_slow(Shard& sh, const Transmission& tx, NodeId rid,
                             Radio& radio, double prr);
  bool suffers_collision(const Shard& sh, const Transmission& tx, NodeId rid,
                         std::size_t rx_idx, const Radio* rx) const;
  Rng& rx_rng(NodeId id) const;
  void ensure_cache() const;
  void rebuild_cache() const;
  /// Recompute row + column `idx` of the pair matrix (and the affected
  /// receiver lists) against the node's current position, touching only
  /// its grid neighborhood.
  void refresh_node(std::uint32_t idx) const;
  /// Move node `idx` to the grid cell of its current position.
  void update_grid_membership(std::uint32_t idx) const;
  /// Candidate peer indices for a node at `pos`: occupants of the 3x3
  /// grid neighborhood, or every node when the model has no spatial bound.
  void collect_candidates(const Position& pos, std::vector<std::uint32_t>& out) const;
  bool grid_active() const;
  /// Cache row index for `id`, or npos when unknown (e.g. detached). O(1).
  std::size_t cache_index(NodeId id) const;

  Simulator& sim_;
  std::unique_ptr<LinkModel> model_;
  Rng rng_;  ///< fork source for the per-receiver delivery streams
  std::map<NodeId, Radio*> radios_;
  /// Per-receiver delivery RNG, forked by node id at first attach and
  /// persistent across reboots — draw order within one receiver is its
  /// own delivery order, independent of other islands' interleaving.
  mutable std::map<NodeId, Rng> rx_rngs_;
  mutable std::vector<std::unique_ptr<Shard>> shards_;  ///< [0] = global

  // --- compiled link cache (see class comment) --------------------------
  bool link_cache_enabled_ = true;
  std::uint64_t structure_version_ = 1;  ///< attach/detach counter
  std::uint64_t position_epoch_ = 0;     ///< every position_changed call
  mutable std::uint64_t cached_structure_version_ = 0;
  mutable std::uint64_t cached_model_version_ = 0;
  mutable std::uint64_t cache_builds_ = 0;  ///< full rebuild counter
  mutable bool cache_valid_ = false;
  mutable std::vector<NodeId> cache_ids_;     ///< ascending
  /// NodeId -> cache index (kNpos32 when absent), sized by the largest
  /// cached id. Stale between a detach and the next ensure_cache(), exactly
  /// like cache_ids_.
  mutable std::vector<std::uint32_t> cache_index_of_;
  mutable std::vector<Radio*> cache_radios_;  ///< parallel to cache_ids_
  mutable std::vector<PairLink> cache_pairs_;
  /// Per sender index: receiver indices with prr > 0, ascending by NodeId
  /// (the delivery-loop order, so RNG draws match the uncached iteration).
  mutable std::vector<std::vector<std::uint32_t>> cache_receivers_;
  /// Radios whose position changed since the cache last refreshed.
  mutable std::vector<NodeId> moved_;

  /// SoA hot mirror of radio state, parallel to cache_ids_ — the delivery
  /// filters scan these contiguous arrays; the Radio object is only
  /// dereferenced for an actual delivery.
  mutable std::vector<std::uint8_t> hot_state_;
  mutable std::vector<std::uint8_t> hot_channel_;
  mutable std::vector<TimeUs> hot_listen_since_;
  mutable std::vector<Rng*> hot_rng_;  ///< &rx_rngs_[cache_ids_[i]]

  // --- uniform-grid spatial index over radio positions ------------------
  /// Cell size == the model's max_interaction_range at the last full
  /// rebuild; infinity (or <= 0) disables the grid (all-pairs refresh).
  mutable double cache_range_ = 0.0;
  mutable std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> grid_;
  mutable std::vector<std::uint64_t> node_grid_key_;  ///< parallel to cache_ids_
  mutable std::vector<std::uint32_t> dirty_scratch_;
  mutable std::vector<std::uint32_t> candidate_scratch_;
  mutable std::vector<NodeId> model_dirty_scratch_;
};

}  // namespace gttsch
