// Unicast-Data placement tests (Section V): Tx>Rx, Rx interleaving,
// fairness across children, candidate-list (CellList) restriction.
#include <gtest/gtest.h>

#include "core/slotframe_layout.hpp"
#include "core/tx_alloc.hpp"

namespace gttsch {
namespace {

Cell cell(std::uint16_t slot, std::uint8_t options, NodeId nbr,
          ChannelOffset ch = 1) {
  Cell c;
  c.slot_offset = slot;
  c.channel_offset = ch;
  c.options = options;
  c.neighbor = nbr;
  return c;
}

SlotframeLayout layout32() { return SlotframeLayout({32, 4, 3}); }

TEST(TxAlloc, ExtractSeparatesKinds) {
  Slotframe sf(0, 32);
  sf.add(cell(1, kCellTx, 9));                      // data tx
  sf.add(cell(2, kCellRx, 7));                      // data rx
  sf.add(cell(3, kCellTx | kCellSixp, 9));          // 6P: excluded
  sf.add(cell(4, kCellTx | kCellShared, 9));        // shared: excluded
  sf.add(cell(0, kCellTx | kCellRx, kBroadcastId)); // broadcast: excluded
  const auto cells = TxSlotAllocator::extract_data_cells(sf);
  EXPECT_EQ(cells.tx, (std::vector<std::uint16_t>{1}));
  EXPECT_EQ(cells.rx, (std::vector<std::uint16_t>{2}));
  ASSERT_EQ(cells.rx_owner.size(), 1u);
  EXPECT_EQ(cells.rx_owner[0], 7);
  // The in-place counts use the same definition of a data cell.
  const auto counts = TxSlotAllocator::count_data_cells(sf);
  EXPECT_EQ(counts.tx, 1);
  EXPECT_EQ(counts.rx, 1);
}

TEST(TxAlloc, RootGrantsWithoutTxCells) {
  Slotframe sf(0, 32);
  const auto layout = layout32();
  const auto offsets = TxSlotAllocator::place_rx(sf, layout, 5, 4, /*is_root=*/true);
  EXPECT_EQ(offsets.size(), 4u);
  for (auto o : offsets) {
    EXPECT_FALSE(layout.is_broadcast_slot(o));
    EXPECT_FALSE(layout.is_shared_slot(o));
  }
}

TEST(TxAlloc, NonRootNeedsTxFirst) {
  Slotframe sf(0, 32);
  const auto layout = layout32();
  // No Tx cells at all -> cannot grant any Rx (rule a).
  EXPECT_TRUE(TxSlotAllocator::place_rx(sf, layout, 5, 2, false).empty());
  EXPECT_EQ(TxSlotAllocator::grantable_rx(sf, layout, false), 0);
}

TEST(TxAlloc, MarginRuleTxExceedsRx) {
  Slotframe sf(0, 32);
  const auto layout = layout32();
  sf.add(cell(5, kCellTx, 1));
  sf.add(cell(13, kCellTx, 1));
  sf.add(cell(21, kCellTx, 1));
  // 3 Tx, 0 Rx: may grant at most 2 (so Tx=3 > Rx=2 still holds).
  const auto offsets = TxSlotAllocator::place_rx(sf, layout, 7, 10, false);
  EXPECT_EQ(offsets.size(), 2u);
}

TEST(TxAlloc, InterleavingMaintainedAfterPlacement) {
  Slotframe sf(0, 32);
  const auto layout = layout32();
  for (std::uint16_t o : {3, 9, 14, 20, 26}) sf.add(cell(o, kCellTx, 1));
  const auto offsets = TxSlotAllocator::place_rx(sf, layout, 7, 4, false);
  EXPECT_EQ(offsets.size(), 4u);
  for (auto o : offsets) sf.add(cell(o, kCellRx, 7));
  EXPECT_TRUE(TxSlotAllocator::rx_interleaved(sf));
  EXPECT_TRUE(TxSlotAllocator::tx_exceeds_rx(sf));
}

TEST(TxAlloc, GrantableMatchesActualPlacement) {
  Slotframe sf(0, 32);
  const auto layout = layout32();
  for (std::uint16_t o : {3, 9, 14, 20}) sf.add(cell(o, kCellTx, 1));
  const int grantable = TxSlotAllocator::grantable_rx(sf, layout, false);
  const auto offsets = TxSlotAllocator::place_rx(sf, layout, 7, 100, false);
  EXPECT_EQ(static_cast<int>(offsets.size()), grantable);
  EXPECT_EQ(grantable, 3);  // 4 tx - 0 rx - 1
}

TEST(TxAlloc, FairnessPrefersSeparatingChildren) {
  Slotframe sf(0, 32);
  const auto layout = layout32();
  for (std::uint16_t o : {2, 6, 10, 14, 18, 22, 26}) sf.add(cell(o, kCellTx, 1));
  // Child 7 already has Rx at 3 and 11.
  sf.add(cell(3, kCellRx, 7));
  sf.add(cell(11, kCellRx, 7));
  // Grant one more cell to child 7: it should not be adjacent (in Rx
  // order) to 3 or 11 more closely than necessary — concretely, the chosen
  // offset must keep interleaving and maximize distance to 7's cells.
  const auto offsets = TxSlotAllocator::place_rx(sf, layout, 7, 1, false);
  ASSERT_EQ(offsets.size(), 1u);
  const int d3 = std::min<int>(std::abs(offsets[0] - 3), 32 - std::abs(offsets[0] - 3));
  const int d11 = std::min<int>(std::abs(offsets[0] - 11), 32 - std::abs(offsets[0] - 11));
  EXPECT_GE(std::min(d3, d11), 4);
}

TEST(TxAlloc, AllowedListRestrictsPlacement) {
  Slotframe sf(0, 32);
  const auto layout = layout32();
  for (std::uint16_t o : {3, 9, 14, 20, 26}) sf.add(cell(o, kCellTx, 1));
  const std::vector<std::uint16_t> allowed{5, 6};
  const auto offsets = TxSlotAllocator::place_rx(sf, layout, 7, 4, false, &allowed);
  EXPECT_LE(offsets.size(), 2u);
  for (auto o : offsets) EXPECT_TRUE(o == 5 || o == 6);
}

TEST(TxAlloc, EmptyAllowedListGrantsNothing) {
  Slotframe sf(0, 32);
  const auto layout = layout32();
  for (std::uint16_t o : {3, 9}) sf.add(cell(o, kCellTx, 1));
  const std::vector<std::uint16_t> allowed;
  EXPECT_TRUE(TxSlotAllocator::place_rx(sf, layout, 7, 2, false, &allowed).empty());
}

TEST(TxAlloc, PlaceFreeSkipsUsedAndReserved) {
  Slotframe sf(0, 32);
  const auto layout = layout32();
  // First negotiable offset is 1 (0 is broadcast); occupy it.
  sf.add(cell(1, kCellTx | kCellSixp, 2));
  const auto slot = TxSlotAllocator::place_free(sf, layout);
  ASSERT_TRUE(slot.has_value());
  EXPECT_EQ(*slot, 2);
}

TEST(TxAlloc, PlaceFreeRespectsAllowed) {
  Slotframe sf(0, 32);
  const auto layout = layout32();
  const std::vector<std::uint16_t> allowed{10, 11};
  const auto slot = TxSlotAllocator::place_free(sf, layout, &allowed);
  ASSERT_TRUE(slot.has_value());
  EXPECT_EQ(*slot, 10);
}

TEST(TxAlloc, PlaceFreeReturnsNothingWhenFull) {
  Slotframe sf(0, 32);
  const auto layout = layout32();
  for (auto s : layout.negotiable_offsets()) sf.add(cell(s, kCellTx, 2));
  EXPECT_FALSE(TxSlotAllocator::place_free(sf, layout).has_value());
}

TEST(TxAlloc, InterleaveValidatorDetectsViolation) {
  Slotframe sf(0, 32);
  sf.add(cell(5, kCellRx, 7));
  sf.add(cell(6, kCellRx, 8));  // two Rx with no Tx between
  sf.add(cell(20, kCellTx, 1));
  EXPECT_FALSE(TxSlotAllocator::rx_interleaved(sf));
}

TEST(TxAlloc, InterleaveValidatorAcceptsAlternating) {
  Slotframe sf(0, 32);
  sf.add(cell(2, kCellRx, 7));
  sf.add(cell(4, kCellTx, 1));
  sf.add(cell(6, kCellRx, 8));
  sf.add(cell(8, kCellTx, 1));
  EXPECT_TRUE(TxSlotAllocator::rx_interleaved(sf));
}

TEST(TxAlloc, TxExceedsRxValidator) {
  Slotframe sf(0, 32);
  sf.add(cell(2, kCellRx, 7));
  EXPECT_FALSE(TxSlotAllocator::tx_exceeds_rx(sf));
  sf.add(cell(4, kCellTx, 1));
  EXPECT_FALSE(TxSlotAllocator::tx_exceeds_rx(sf));  // 1 == 1
  sf.add(cell(6, kCellTx, 1));
  EXPECT_TRUE(TxSlotAllocator::tx_exceeds_rx(sf));
}

/// Incremental stress: repeatedly grant cells to several children while
/// adding Tx capacity, checking invariants after every step (the situation
/// a busy forwarder faces under rising load).
TEST(TxAlloc, IncrementalGrowthKeepsInvariants) {
  Slotframe sf(0, 32);
  const auto layout = layout32();
  std::uint16_t next_tx_slot = 1;
  int granted = 0;
  for (int round = 0; round < 8; ++round) {
    // Parent acquires two more Tx cells (as if granted by the grandparent).
    for (int i = 0; i < 2; ++i) {
      while (sf.slot_in_use(next_tx_slot) || layout.is_broadcast_slot(next_tx_slot) ||
             layout.is_shared_slot(next_tx_slot))
        ++next_tx_slot;
      if (next_tx_slot >= 32) break;
      sf.add(cell(next_tx_slot, kCellTx, 1));
    }
    const NodeId child = static_cast<NodeId>(10 + round % 3);
    const auto offsets = TxSlotAllocator::place_rx(sf, layout, child, 1, false);
    for (auto o : offsets) {
      sf.add(cell(o, kCellRx, child));
      ++granted;
    }
    EXPECT_TRUE(TxSlotAllocator::tx_exceeds_rx(sf)) << "round " << round;
    EXPECT_TRUE(TxSlotAllocator::rx_interleaved(sf)) << "round " << round;
  }
  EXPECT_GE(granted, 3);
}

}  // namespace
}  // namespace gttsch
