// The shared wireless medium: transports frames between radios, resolving
// per-receiver outcomes (link loss, collisions, hidden terminals).
#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <memory>
#include <unordered_map>
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

/// Every radio lives in one table indexed by NodeId. A slot holds the
/// radio (null while detached), its receiver RNG and its row in the link
/// cache, and stays across detach and re-attach.
///
/// Delivery resolution is cached: a one-byte reach/interference flag per
/// ordered pair and the per-sender in-range receiver lists (with their
/// PRR) are compiled from the link model.
/// Invalidation is *incremental*: a moved radio (Radio::set_position) or a
/// model change the model can attribute (LinkModel::changed_nodes_since)
/// refreshes only the affected rows/columns, discovering candidates through
/// a uniform-grid spatial index sized by LinkModel::max_interaction_range()
/// — O(degree) model calls per move instead of the full O(n^2) rebuild.
/// Attach and detach mark the cache stale directly (detach also clears the
/// slot's cache row), and unattributable model changes rebuild from
/// scratch too. Cached answers are bit-identical to querying the model
/// directly (set_link_cache_enabled(false) is the reference mode the
/// property tests compare against).
///
/// In-flight transmissions are bucketed per physical channel, and frame
/// completions are *batched*: one drain event per (channel, end-time)
/// rendezvous resolves every frame ending at that instant in transmission
/// order, instead of one simulator event per frame. A bucket holds the
/// frames in flight plus the finished frames that overlap one of them —
/// the only finished frames a later collision check can still meet. Each
/// drain drops the rest once its whole batch is resolved, so a channel's
/// bucket is empty whenever the channel is quiet.
///
/// Delivery RNG is per-*receiver* (forked from the medium stream by node
/// id, and kept across reboots), so the draws a receiver makes depend on
/// the run seed, its identity and its own deliveries alone — not on attach
/// order or on how other receivers' deliveries interleave with its own.
class Medium {
 public:
  Medium(Simulator& sim, std::unique_ptr<LinkModel> model, Rng rng);

  void attach(Radio* radio);
  void detach(NodeId id);

  /// Radio position changed (mobility): marks only that radio's cache
  /// rows/columns for refresh.
  void position_changed(NodeId id);

  /// Called by Radio::transmit. Takes care of completion and delivery.
  void start_transmission(Radio& sender, FramePtr frame, PhysChannel channel);

  MediumStats stats() const { return stats_; }
  void reset_stats();

  /// Latest end time of any in-flight transmission on `channel` audible at
  /// `listener` (carrier sense). Returns 0 when the channel is clear or the
  /// listener is not attached. An empty channel bucket answers before any
  /// lookup; otherwise the scan walks the bucket (by the invariant in the
  /// class comment, only the frames in flight and the finished frames
  /// overlapping them) and reads one link-flag byte per live sender,
  /// found through the senders' slots.
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

 private:
  struct Transmission {
    std::uint64_t id;
    NodeId sender;
    FramePtr frame;
    PhysChannel channel;
    TimeUs start;
    TimeUs end;
  };

  /// Per-channel in-flight bucket plus the end times that already have a
  /// drain event scheduled (one event per distinct end time).
  struct ChannelState {
    std::vector<Transmission> in_flight;
    std::vector<TimeUs> pending_drains;
  };

  /// One entry of a sender's receiver list (cache_receivers_).
  struct Receiver {
    NodeId id;
    double prr;  ///< > 0
  };

  /// One entry of the radio table (slots_), indexed by NodeId.
  struct RadioSlot {
    Radio* radio;             ///< null while detached
    std::uint32_t cache_idx;  ///< link-cache row, kNoRow when not cached
    Rng rng;                  ///< delivery draws at this receiver
  };
  static constexpr std::uint32_t kNoRow = 0xFFFFFFFFu;

  /// Resolve every transmission on `channel` ending exactly at `end`, in
  /// transmission-id (= start) order — the batched replacement for the
  /// old one-event-per-frame completion — then drop the finished frames
  /// that overlap nothing still in flight.
  void drain_channel(PhysChannel channel, TimeUs end);
  /// Resolve the frame at position `pos` of `channel`'s bucket. Delivery
  /// callbacks may append to the bucket (and so move it), so the frame is
  /// re-read at `pos` after each one; nothing erases from a bucket while
  /// its drain batch runs.
  void finish_transmission(PhysChannel channel, std::size_t pos);
  /// Resolve one candidate receiver of a finished transmission: listening
  /// filters, collision check, PRR draw, stats, delivery. Must not touch
  /// `tx` after the delivery callback.
  void resolve_receiver(const Transmission& tx, NodeId rid, Radio& radio, double prr);
  /// Collisions read the link flags when both radios have a cache row
  /// and ask the model otherwise (reference mode, or a radio attached
  /// since the cache was last built).
  bool suffers_collision(const Transmission& tx, NodeId rid, const Radio& rx) const;
  void ensure_cache() const;
  void rebuild_cache() const;
  /// Recompute row + column `idx` of the link flags (and the affected
  /// receiver lists) against the node's current position, touching only
  /// its grid neighborhood.
  void refresh_node(std::uint32_t idx) const;
  /// Move node `idx` to the grid cell of its current position.
  void update_grid_membership(std::uint32_t idx) const;
  /// Candidate peer indices for a node at `pos`: occupants of the 3x3
  /// grid neighborhood, or every node when the model has no spatial bound.
  void collect_candidates(const Position& pos, std::vector<std::uint32_t>& out) const;
  bool grid_active() const;
  const Position& cached_position(std::uint32_t idx) const;

  Simulator& sim_;
  std::unique_ptr<LinkModel> model_;
  Rng rng_;  ///< fork source for the per-receiver delivery streams
  /// The radio table, sized by the largest id ever attached. A slot's RNG
  /// is forked by its id when the slot is made and is never replaced, so
  /// draw order within one receiver is its own delivery order. A delivery
  /// callback may attach a radio and so grow the table: never hold a slot
  /// reference across one.
  mutable std::vector<RadioSlot> slots_;

  // --- transmission state -------------------------------------------------
  /// Indexed by physical channel: one bucket for every PhysChannel value,
  /// so no lookup or bounds check is needed.
  std::array<ChannelState, std::numeric_limits<PhysChannel>::max() + 1> channels_;
  MediumStats stats_;
  std::uint64_t next_tx_id_ = 1;
  std::vector<std::size_t> drain_scratch_;  ///< batch positions in a bucket
  std::vector<Receiver> delivery_scratch_;  ///< a finished frame's candidates

  // --- compiled link cache (see class comment) --------------------------
  bool link_cache_enabled_ = true;
  mutable std::uint64_t cached_model_version_ = 0;
  /// False after attach/detach: the next query rebuilds. While true, the
  /// cached ids are exactly the attached radios.
  mutable bool cache_valid_ = false;
  mutable std::vector<NodeId> cache_ids_;  ///< cache index -> id, ascending
  /// Link flags, one byte per ordered pair (row-major: [tx_idx * n +
  /// rx_idx]; bits in medium.cpp): whether the sender reaches (prr > 0)
  /// and whether it interferes. Carrier sense and collision checks read
  /// them down a receiver's column, so they are kept this small.
  mutable std::vector<std::uint8_t> cache_flags_;
  /// Per sender index: the receivers with prr > 0 and their PRR,
  /// ascending by NodeId, which is cache-index order too (the delivery-loop
  /// order, so RNG draws match the uncached iteration). A finished frame's
  /// candidates are this list.
  mutable std::vector<std::vector<Receiver>> cache_receivers_;
  /// Radios whose position changed since the cache last refreshed.
  mutable std::vector<NodeId> moved_;

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
