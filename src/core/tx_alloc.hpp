// Unicast-Data timeslot placement (Section V).
//
// The parent owns its slotframe layout: a child's Tx cells toward the
// parent are the parent's Rx cells, placed by the parent under three rules:
//   (a) the parent keeps #Tx > #Rx among its own data cells (it must drain
//       faster than it fills; vacuous at the root, which is the sink);
//   (b) at least one of its Tx cells lies between any two of its Rx cells
//       in cyclic slot order (bounds queue growth within a slotframe);
//   (c) fairness: avoid granting a child a cell cyclically adjacent to its
//       own existing Rx cells while other children hold cells too.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/slotframe_layout.hpp"
#include "mac/schedule.hpp"

namespace gttsch {

/// Rule toggles, used by the ablation bench to isolate the contribution of
/// the Section V placement rules (production default: all on).
struct PlacementRules {
  bool tx_margin = true;   ///< rule (a): #Tx > #Rx
  bool interleave = true;  ///< rule (b): a Tx between consecutive Rx
};

class TxSlotAllocator {
 public:
  /// A node's data cells, extracted from its slotframe. "Data" excludes
  /// broadcast, shared and 6P cells.
  struct DataCells {
    std::vector<std::uint16_t> tx;  ///< to the parent (sorted)
    std::vector<std::uint16_t> rx;  ///< from children (sorted)
    std::vector<NodeId> rx_owner;   ///< child per rx entry (parallel array)
  };

  static DataCells extract_data_cells(const Slotframe& sf);

  /// Sizes of extract_data_cells(sf).tx and .rx, counted in place with
  /// the same data-cell predicate.
  struct DataCellCounts {
    int tx = 0;
    int rx = 0;
  };
  static DataCellCounts count_data_cells(const Slotframe& sf);

  /// How many additional Rx cells this node could currently grant while
  /// honouring rules (a) and (b). This is the l^rx advertised in DIOs.
  static int grantable_rx(const Slotframe& sf, const SlotframeLayout& layout, bool is_root,
                          const PlacementRules& rules = {});

  /// Choose up to `count` slot offsets for new Rx cells granted to `child`.
  /// Returns fewer (possibly zero) offsets when the rules forbid more.
  /// `allowed`, when non-null, restricts candidates to offsets that are
  /// also free on the requester's side (RFC 8480 CellList negotiation).
  static std::vector<std::uint16_t> place_rx(const Slotframe& sf,
                                             const SlotframeLayout& layout, NodeId child,
                                             int count, bool is_root,
                                             const std::vector<std::uint16_t>* allowed = nullptr,
                                             const PlacementRules& rules = {});

  /// First free negotiable slot (for 6P signalling cells); nullopt if full.
  /// `allowed` as in place_rx.
  static std::optional<std::uint16_t> place_free(
      const Slotframe& sf, const SlotframeLayout& layout,
      const std::vector<std::uint16_t>* allowed = nullptr);

  // --- invariant checks (used by tests and debug assertions) -----------
  /// Rule (a): #data-Tx > #data-Rx (non-root with any Rx).
  static bool tx_exceeds_rx(const Slotframe& sf);
  /// Rule (b): every cyclically-consecutive Rx pair has a Tx in between.
  static bool rx_interleaved(const Slotframe& sf);
  /// Rule (b) on raw offset lists (e.g. to vet a hypothetical deletion).
  static bool lists_interleaved(const std::vector<std::uint16_t>& tx,
                                const std::vector<std::uint16_t>& rx,
                                std::uint16_t length);

 private:
  static bool placement_valid(const std::vector<std::uint16_t>& tx,
                              const std::vector<std::uint16_t>& rx, std::uint16_t cand,
                              std::uint16_t length);
};

}  // namespace gttsch
