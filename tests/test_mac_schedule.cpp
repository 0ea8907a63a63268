// Tests for TSCH schedule containers, hopping, and transmit queues.
#include <gtest/gtest.h>

#include "mac/hopping.hpp"
#include "mac/schedule.hpp"
#include "mac/txqueue.hpp"

namespace gttsch {
namespace {

Cell make_cell(std::uint16_t slot, ChannelOffset ch, std::uint8_t options,
               NodeId neighbor = kBroadcastId) {
  Cell c;
  c.slot_offset = slot;
  c.channel_offset = ch;
  c.options = options;
  c.neighbor = neighbor;
  return c;
}

TEST(Hopping, DefaultIsTableII) {
  HoppingSequence h;
  EXPECT_EQ(h.sequence(), (std::vector<PhysChannel>{17, 23, 15, 25, 19, 11, 13, 21}));
  EXPECT_EQ(h.num_offsets(), 8u);
}

TEST(Hopping, ChannelForFollowsFormula) {
  HoppingSequence h;
  EXPECT_EQ(h.channel_for(0, 0), 17);
  EXPECT_EQ(h.channel_for(0, 1), 23);
  EXPECT_EQ(h.channel_for(1, 0), 23);
  EXPECT_EQ(h.channel_for(8, 0), 17);  // wraps
  EXPECT_EQ(h.channel_for(7, 3), h.channel_for(15, 3));
}

TEST(Hopping, DistinctOffsetsNeverCollideInASlot) {
  HoppingSequence h;
  for (Asn asn = 0; asn < 64; ++asn)
    for (ChannelOffset o1 = 0; o1 < 8; ++o1)
      for (ChannelOffset o2 = static_cast<ChannelOffset>(o1 + 1); o2 < 8; ++o2)
        EXPECT_NE(h.channel_for(asn, o1), h.channel_for(asn, o2));
}

TEST(Slotframe, AddRemoveFind) {
  Slotframe sf(0, 10);
  const Cell c = make_cell(3, 2, kCellTx, 7);
  EXPECT_TRUE(sf.add(c));
  EXPECT_FALSE(sf.add(c));  // duplicate
  EXPECT_EQ(sf.size(), 1u);
  ASSERT_EQ(sf.cells_at(3).size(), 1u);
  EXPECT_EQ(sf.cells_at(3)[0].neighbor, 7);
  EXPECT_TRUE(sf.remove(c));
  EXPECT_FALSE(sf.remove(c));
  EXPECT_EQ(sf.size(), 0u);
}

TEST(Slotframe, MultipleCellsPerSlot) {
  Slotframe sf(0, 10);
  sf.add(make_cell(3, 1, kCellTx, 7));
  sf.add(make_cell(3, 2, kCellRx, 8));
  EXPECT_EQ(sf.cells_at(3).size(), 2u);
}

TEST(Slotframe, RemoveIf) {
  Slotframe sf(0, 10);
  sf.add(make_cell(1, 1, kCellTx, 7));
  sf.add(make_cell(2, 1, kCellRx, 7));
  sf.add(make_cell(3, 1, kCellTx, 8));
  const auto removed = sf.remove_if([](const Cell& c) { return c.neighbor == 7; });
  EXPECT_EQ(removed, 2u);
  EXPECT_EQ(sf.size(), 1u);
}

TEST(Slotframe, FreeSlots) {
  Slotframe sf(0, 5);
  sf.add(make_cell(1, 0, kCellTx));
  sf.add(make_cell(3, 0, kCellRx));
  EXPECT_EQ(sf.free_slots(), (std::vector<std::uint16_t>{0, 2, 4}));
  EXPECT_TRUE(sf.slot_in_use(1));
  EXPECT_FALSE(sf.slot_in_use(0));
}

TEST(Schedule, ActiveCellsAcrossSlotframes) {
  TschSchedule s;
  s.add_slotframe(0, 4).add(make_cell(2, 0, kCellTx));
  s.add_slotframe(1, 3).add(make_cell(2, 1, kCellRx));
  // ASN 2: sf0 slot 2 active, sf1 slot 2 active.
  auto cells = s.active_cells(2);
  ASSERT_EQ(cells.size(), 2u);
  EXPECT_EQ(cells[0].first, 0);  // handle order
  EXPECT_EQ(cells[1].first, 1);
  // ASN 6: sf0 slot 2, sf1 slot 0 (empty).
  cells = s.active_cells(6);
  ASSERT_EQ(cells.size(), 1u);
  EXPECT_EQ(cells[0].first, 0);
}

TEST(Schedule, ActiveCellsIntoMatchesAllocatingVariant) {
  TschSchedule s;
  s.add_slotframe(0, 4).add(make_cell(2, 0, kCellTx));
  s.add_slotframe(1, 3).add(make_cell(2, 1, kCellRx));
  std::vector<TschSchedule::ActiveCell> scratch;
  for (Asn asn = 0; asn < 24; ++asn) {
    s.active_cells_into(asn, scratch);
    EXPECT_EQ(scratch, s.active_cells(asn)) << "asn " << asn;
  }
}

TEST(Schedule, NextActiveAsnSkipsEmptySlots) {
  TschSchedule s;
  s.add_slotframe(0, 8).add(make_cell(5, 0, kCellTx));
  // Slot 5 of 8: occurrences at 5, 13, 21, ...
  EXPECT_EQ(s.next_active_asn(0), 5u);
  EXPECT_EQ(s.next_active_asn(4), 5u);
  EXPECT_EQ(s.next_active_asn(5), 13u);  // strictly greater than `after`
  EXPECT_EQ(s.next_active_asn(12), 13u);
  EXPECT_EQ(s.next_active_asn(1000), 1005u);
}

TEST(Schedule, NextActiveAsnMergesSlotframes) {
  TschSchedule s;
  s.add_slotframe(0, 10).add(make_cell(7, 0, kCellTx));
  s.add_slotframe(1, 3).add(make_cell(1, 0, kCellRx));
  // sf1 hits at 1, 4, 7, 10, ...; sf0 hits at 7, 17, 27, ...
  EXPECT_EQ(s.next_active_asn(0), 1u);
  EXPECT_EQ(s.next_active_asn(1), 4u);
  EXPECT_EQ(s.next_active_asn(5), 7u);  // both frames; earliest wins
}

TEST(Schedule, NextActiveAsnTracksMutations) {
  TschSchedule s;
  EXPECT_EQ(s.next_active_asn(0), TschSchedule::kNoActiveAsn);
  auto& sf = s.add_slotframe(0, 16);
  EXPECT_EQ(s.next_active_asn(0), TschSchedule::kNoActiveAsn);
  const Cell c = make_cell(9, 2, kCellTx, 7);
  sf.add(c);
  EXPECT_EQ(s.next_active_asn(0), 9u);
  sf.remove(c);
  EXPECT_EQ(s.next_active_asn(0), TschSchedule::kNoActiveAsn);
  sf.add(make_cell(3, 0, kCellRx));
  sf.remove_if([](const Cell&) { return true; });
  EXPECT_EQ(s.next_active_asn(0), TschSchedule::kNoActiveAsn);
  s.add_slotframe(2, 5).add(make_cell(0, 0, kCellTx));
  EXPECT_EQ(s.next_active_asn(0), 5u);  // slot 0 of len 5: 0, 5, 10, ...
  s.remove_slotframe(2);
  EXPECT_EQ(s.next_active_asn(0), TschSchedule::kNoActiveAsn);
}

TEST(Schedule, ChangeListenerFiresOnEveryMutation) {
  TschSchedule s;
  int calls = 0;
  s.set_change_listener([&] { ++calls; });
  auto& sf = s.add_slotframe(0, 8);
  EXPECT_EQ(calls, 1);
  const Cell c = make_cell(1, 0, kCellTx, 3);
  sf.add(c);
  EXPECT_EQ(calls, 2);
  sf.add(c);  // duplicate: no change, no notification
  EXPECT_EQ(calls, 2);
  sf.remove(c);
  EXPECT_EQ(calls, 3);
  sf.remove(c);  // absent: no change
  EXPECT_EQ(calls, 3);
  const std::uint64_t v = s.version();
  s.remove_slotframe(0);
  EXPECT_EQ(calls, 4);
  EXPECT_GT(s.version(), v);
}

TEST(Schedule, RemoveSlotframe) {
  TschSchedule s;
  s.add_slotframe(0, 4);
  s.add_slotframe(2, 8);
  EXPECT_EQ(s.slotframe_count(), 2u);
  s.remove_slotframe(0);
  EXPECT_EQ(s.slotframe_count(), 1u);
  EXPECT_EQ(s.get(0), nullptr);
  EXPECT_NE(s.get(2), nullptr);
}

TEST(Schedule, TotalCells) {
  TschSchedule s;
  s.add_slotframe(0, 4).add(make_cell(0, 0, kCellTx));
  auto& sf = *s.get(0);
  sf.add(make_cell(1, 0, kCellRx));
  EXPECT_EQ(s.total_cells(), 2u);
}

// --- TxQueues --------------------------------------------------------------

FramePtr data_frame(NodeId src, NodeId dst) { return make_data_frame(src, dst, DataPayload{}); }

TEST(TxQueues, DataCapacityIsGlobal) {
  TxQueues q(3, 8);
  EXPECT_TRUE(q.enqueue_unicast(10, data_frame(1, 10), 1, 0));
  EXPECT_TRUE(q.enqueue_unicast(11, data_frame(1, 11), 2, 0));
  EXPECT_TRUE(q.enqueue_unicast(10, data_frame(1, 10), 3, 0));
  EXPECT_FALSE(q.enqueue_unicast(12, data_frame(1, 12), 4, 0));  // cap 3
  EXPECT_EQ(q.data_queued(), 3u);
}

TEST(TxQueues, ControlCapacityPerQueue) {
  TxQueues q(32, 2);
  SixpPayload p;
  EXPECT_TRUE(q.enqueue_unicast(5, make_sixp_frame(1, 5, p), 1, 0));
  EXPECT_TRUE(q.enqueue_unicast(5, make_sixp_frame(1, 5, p), 2, 0));
  EXPECT_FALSE(q.enqueue_unicast(5, make_sixp_frame(1, 5, p), 3, 0));
  // Control cap does not affect data.
  EXPECT_TRUE(q.enqueue_unicast(5, data_frame(1, 5), 4, 0));
}

TEST(TxQueues, FifoPerNeighbor) {
  TxQueues q(8, 8);
  q.enqueue_unicast(5, data_frame(1, 5), 100, 0);
  q.enqueue_unicast(5, data_frame(1, 5), 101, 0);
  ASSERT_NE(q.peek_unicast(5), nullptr);
  EXPECT_EQ(q.peek_unicast(5)->mac_seq, 100u);
  q.pop_unicast(5);
  EXPECT_EQ(q.peek_unicast(5)->mac_seq, 101u);
  q.pop_unicast(5);
  EXPECT_EQ(q.peek_unicast(5), nullptr);
  EXPECT_EQ(q.data_queued(), 0u);
}

TEST(TxQueues, BroadcastQueueSeparate) {
  TxQueues q(1, 8);
  q.enqueue_unicast(5, data_frame(1, 5), 1, 0);  // fills data cap
  DioPayload dio;
  EXPECT_TRUE(q.enqueue_broadcast(make_dio_frame(1, dio), 2, 0));
  EXPECT_EQ(q.broadcast_queued(), 1u);
  q.pop_broadcast();
  EXPECT_EQ(q.peek_broadcast(), nullptr);
}

TEST(TxQueues, RoundRobinSharedPick) {
  TxQueues q(8, 8);
  q.enqueue_unicast(5, data_frame(1, 5), 1, 0);
  q.enqueue_unicast(9, data_frame(1, 9), 2, 0);
  const auto first = q.pick_any_unicast_shared();
  const auto second = q.pick_any_unicast_shared();
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(second.has_value());
  EXPECT_NE(*first, *second);  // alternates between backlogged neighbors
}

TEST(TxQueues, SharedPickHonorsBackoff) {
  TxQueues q(8, 8);
  q.enqueue_unicast(5, data_frame(1, 5), 1, 0);
  q.ensure_queue(5).backoff_window = 2;
  EXPECT_FALSE(q.pick_any_unicast_shared().has_value());  // window 2 -> 1
  EXPECT_FALSE(q.pick_any_unicast_shared().has_value());  // window 1 -> 0
  EXPECT_TRUE(q.pick_any_unicast_shared().has_value());
}

TEST(TxQueues, RetargetMovesDataRewritesDst) {
  TxQueues q(8, 8);
  q.enqueue_unicast(5, data_frame(1, 5), 1, 0);
  q.enqueue_unicast(5, data_frame(1, 5), 2, 0);
  SixpPayload p;
  q.enqueue_unicast(5, make_sixp_frame(1, 5, p), 3, 0);  // control: dropped
  const auto moved = q.retarget(5, 9);
  EXPECT_EQ(moved, 2u);
  EXPECT_EQ(q.peek_unicast(5), nullptr);
  ASSERT_NE(q.peek_unicast(9), nullptr);
  EXPECT_EQ(q.peek_unicast(9)->frame->dst, 9);
  EXPECT_EQ(q.data_queued(), 2u);
}

// The shared pick returns early when its count of unicast packets reads 0,
// so a count that reads low starves shared cells. retarget leaves the moved
// data frames behind as moved-from elements; only the dropped control frame
// may leave the count.
TEST(TxQueues, SharedPickFollowsRetargetedFrames) {
  TxQueues q(8, 8);
  q.enqueue_unicast(5, data_frame(1, 5), 1, 0);
  q.enqueue_unicast(5, data_frame(1, 5), 2, 0);
  SixpPayload p;
  q.enqueue_unicast(5, make_sixp_frame(1, 5, p), 3, 0);
  ASSERT_EQ(q.retarget(5, 9), 2u);
  for (int popped = 0; popped < 2; ++popped) {
    EXPECT_EQ(q.pick_any_unicast_shared(), std::optional<NodeId>(9));
    q.pop_unicast(9);
  }
  EXPECT_EQ(q.pick_any_unicast_shared(), std::nullopt);
}

TEST(TxQueues, SharedPickFollowsDropQueue) {
  TxQueues q(8, 8);
  q.enqueue_unicast(5, data_frame(1, 5), 1, 0);
  q.enqueue_unicast(5, data_frame(1, 5), 2, 0);
  SixpPayload p;
  q.enqueue_unicast(5, make_sixp_frame(1, 5, p), 3, 0);
  q.enqueue_unicast(9, data_frame(1, 9), 4, 0);
  q.enqueue_unicast(9, data_frame(1, 9), 5, 0);
  ASSERT_EQ(q.drop_queue(5), 3u);
  for (int popped = 0; popped < 2; ++popped) {
    EXPECT_EQ(q.pick_any_unicast_shared(), std::optional<NodeId>(9));
    q.pop_unicast(9);
  }
  EXPECT_EQ(q.pick_any_unicast_shared(), std::nullopt);
}

TEST(TxQueues, DropQueueUpdatesDataCount) {
  TxQueues q(8, 8);
  q.enqueue_unicast(5, data_frame(1, 5), 1, 0);
  q.enqueue_unicast(6, data_frame(1, 6), 2, 0);
  EXPECT_EQ(q.drop_queue(5), 1u);
  EXPECT_EQ(q.data_queued(), 1u);
}

TEST(TxQueues, BackloggedNeighbors) {
  TxQueues q(8, 8);
  q.enqueue_unicast(5, data_frame(1, 5), 1, 0);
  q.enqueue_unicast(7, data_frame(1, 7), 2, 0);
  const auto b = q.backlogged_neighbors();
  EXPECT_EQ(b, (std::vector<NodeId>{5, 7}));
}

}  // namespace
}  // namespace gttsch
