// ALICE baseline (Kim, Kim & Kim, "ALICE: Autonomous Link-based Cell
// scheduling for TSCH", IPSN'19) — autonomous, link-based, time-varying
// cell scheduling with zero 6P traffic.
//
// Like Orchestra it derives the whole schedule from hashes, but cells are
// per *directed link*, not per node, and the hash input includes the
// absolute slotframe number (ASFN), so a link's (slot, channel) pair
// rotates every slotframe — recurring hash collisions between neighboring
// links de-synchronize instead of persisting.
//
// Three slotframes, priority by handle:
//   0: EB slotframe       — Tx cell at hash(self), Rx cell at hash(time src)
//   1: common/broadcast   — one shared Tx|Rx cell at slot 0 (DIOs, fallback)
//   2: unicast            — per-link, time-varying: a Tx cell toward the
//      parent at hash(self -> parent, ASFN) and one Rx cell per known
//      neighbor at hash(neighbor -> self, ASFN). Both endpoints recompute
//      at every slotframe boundary from the same global ASFN, so they
//      agree without signalling.
//
// Rx cells are installed per *neighbor* (anyone heard recently), not per
// confirmed child: a new child's first unicast frame must find its parent
// already listening on the link cell, and RPL here has no downward routes
// to learn children from.
#pragma once

#include <map>
#include <vector>

#include "mac/tsch_mac.hpp"
#include "net/rpl.hpp"
#include "sim/timer.hpp"
#include "sixp/sf.hpp"

namespace gttsch {

struct AliceConfig {
  std::uint16_t eb_slotframe_length = 41;
  std::uint16_t common_slotframe_length = 31;
  std::uint16_t unicast_slotframe_length = 8;  ///< L_u; the rehash period
  ChannelOffset eb_channel_offset = 0;
  ChannelOffset common_channel_offset = 1;
  /// Link channels hash over [2, num_channel_offsets) — ALICE always
  /// channel-hops per link (there is no fixed-offset mode).
  std::uint8_t num_channel_offsets = 8;
  /// Forget a neighbor (and stop scheduling its Rx link cell) when
  /// nothing was heard from it for this long. 0 disables.
  TimeUs neighbor_timeout = 120000000;
};

class AliceSf final : public SchedulingFunction {
 public:
  AliceSf(Simulator& sim, TschMac& mac, RplAgent& rpl, AliceConfig config);

  const char* name() const override { return "alice"; }
  void start(bool is_root) override;
  void on_associated() override;
  void on_frame(const Frame& frame) override;
  void on_parent_changed(NodeId old_parent, NodeId new_parent) override;
  void on_local_packet_generated() override {}
  std::uint16_t advertised_free_rx() override { return 0; }
  std::optional<EbPayload> eb_info() override;

  bool operational() const override { return associated_; }
  int dedicated_tx_cells() const override;
  int dedicated_rx_cells() const override;

  /// ALICE's per-link hash: mixes (src, dst, asfn) through a splitmix64
  /// finalizer — deterministic across hosts, identical on both endpoints.
  static std::uint64_t link_hash(NodeId src, NodeId dst, std::uint64_t asfn);

  const AliceConfig& config() const { return config_; }

 private:
  /// The global slotframe number both link endpoints agree on: sim time
  /// over the nominal slotframe duration. Wall-clock-based on purpose —
  /// per-node ASN counters start at association and differ, while the
  /// simulation clock (which TSCH sync tracks) is shared.
  std::uint64_t current_asfn() const;
  void install_base_slotframes();
  /// Replace every unicast link cell with those of `asfn`, as one
  /// schedule edit.
  void reinstall_link_cells(std::uint64_t asfn);
  void rehash_tick();

  Simulator& sim_;
  TschMac& mac_;
  RplAgent& rpl_;
  AliceConfig config_;
  bool is_root_ = false;
  bool associated_ = false;
  NodeId eb_rx_source_ = kNoNode;
  /// Liveness of everyone we heard (any frame type) — the Rx-cell set.
  std::map<NodeId, TimeUs> neighbors_;
  std::vector<Cell> link_cells_;  ///< reinstall_link_cells' scratch
  OneShotTimer rehash_;
};

}  // namespace gttsch
