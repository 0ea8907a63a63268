// Tests for TSCH schedule containers, hopping, and transmit queues.
#include <gtest/gtest.h>

#include <deque>
#include <map>
#include <optional>
#include <vector>

#include "mac/hopping.hpp"
#include "mac/schedule.hpp"
#include "mac/txqueue.hpp"
#include "util/rng.hpp"

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
  // assign is one edit however many cells it replaces...
  std::uint64_t v = s.version();
  sf.assign(
      {make_cell(1, 0, kCellTx, 3), make_cell(2, 1, kCellRx), make_cell(5, 0, kCellTx)});
  EXPECT_EQ(calls, 4);
  EXPECT_EQ(s.version(), v + 1);
  EXPECT_EQ(sf.size(), 3u);
  sf.assign({});  // ...emptying the slotframe included
  EXPECT_EQ(calls, 5);
  EXPECT_EQ(sf.size(), 0u);
  // Empty to empty changes nothing, as remove_if + no adds would not.
  v = s.version();
  sf.assign({});
  EXPECT_EQ(calls, 5);
  EXPECT_EQ(s.version(), v);
  s.remove_slotframe(0);
  EXPECT_EQ(calls, 6);
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

// --- Compiled slot table vs brute force ------------------------------------

/// Reference for active_cells: every slotframe in handle order, read
/// straight from the cell containers.
std::vector<TschSchedule::ActiveCell> brute_active_cells(const TschSchedule& s, Asn asn) {
  std::vector<TschSchedule::ActiveCell> out;
  s.for_each([&](const Slotframe& sf) {
    for (const Cell& c : sf.cells_at(static_cast<std::uint16_t>(asn % sf.length())))
      out.emplace_back(sf.handle(), c);
  });
  return out;
}

/// Reference for next_active_asn: step ASN by ASN. Any occupied slot
/// recurs within its slotframe's length, so the longest length bounds the
/// scan; nothing within it means every slotframe is empty.
Asn brute_next_active(const TschSchedule& s, Asn after) {
  std::uint16_t longest = 0;
  s.for_each([&](const Slotframe& sf) { longest = std::max(longest, sf.length()); });
  for (Asn asn = after + 1; asn <= after + longest; ++asn)
    if (!brute_active_cells(s, asn).empty()) return asn;
  return TschSchedule::kNoActiveAsn;
}

/// One random schedule edit: slotframe add/remove, cell add/remove,
/// remove_if, a frame reduced to a single occupied slot (whose cyclic
/// gap wraps the whole slotframe), or an assign of 0-3 cells with
/// duplicates (empty to empty included), checked against clearing and
/// adding the same cells one by one.
void random_schedule_edit(TschSchedule& s, Rng& rng) {
  static constexpr std::uint16_t kLengths[] = {7, 32, 101, 397};
  const auto handle = static_cast<std::uint16_t>(rng.uniform(4));
  Slotframe* sf = s.get(handle);
  if (sf == nullptr) {
    s.add_slotframe(handle, kLengths[rng.uniform(4)]);  // starts empty
    return;
  }
  const auto slot = static_cast<std::uint16_t>(rng.uniform(sf->length()));
  const Cell cell = make_cell(slot, static_cast<ChannelOffset>(rng.uniform(3)),
                              rng.uniform(2) ? kCellTx : kCellRx,
                              static_cast<NodeId>(rng.uniform(3)));
  switch (rng.uniform(12)) {
    case 0:
      s.remove_slotframe(handle);
      break;
    case 1:
      sf->remove_if([](const Cell&) { return true; });
      sf->add(cell);
      break;
    case 2:
      sf->remove_if([&](const Cell& c) { return c.neighbor == cell.neighbor; });
      break;
    case 3:
    case 4: {
      const auto cells = sf->all_cells();
      if (!cells.empty()) sf->remove(cells[rng.uniform(cells.size())]);
      break;
    }
    case 10:
    case 11: {
      std::vector<Cell> cells;
      const auto n = rng.uniform(4);
      for (std::uint64_t i = 0; i < n; ++i) {
        cells.push_back(make_cell(static_cast<std::uint16_t>(rng.uniform(sf->length())),
                                  static_cast<ChannelOffset>(rng.uniform(2)), kCellTx));
        if (rng.uniform(3) == 0) cells.push_back(cells.back());
      }
      Slotframe expected(handle, sf->length());
      for (const Cell& c : cells) expected.add(c);
      const std::uint64_t v = s.version();
      const bool was_empty = sf->size() == 0;
      sf->assign(cells);
      EXPECT_EQ(sf->all_cells(), expected.all_cells());
      EXPECT_EQ(s.version(), v + (was_empty && cells.empty() ? 0 : 1));
      break;
    }
    default:
      sf->add(cell);
      break;
  }
}

void expect_table_matches_brute(const TschSchedule& s, Rng& rng) {
  std::vector<TschSchedule::ActiveCell> scratch;
  // Random far-off probes exercise the modulo of large ASNs...
  for (int i = 0; i < 8; ++i) {
    const Asn asn = rng.uniform(Asn{1} << 40);
    ASSERT_EQ(s.next_active_asn(asn), brute_next_active(s, asn)) << "after " << asn;
    s.active_cells_into(asn, scratch);
    ASSERT_EQ(scratch, brute_active_cells(s, asn)) << "asn " << asn;
  }
  // ...and a walk over two periods of the longest slotframe checks every
  // ASN in between: the jumps land on the brute-force next active slot,
  // and the cells there come out in handle order.
  const Asn start = rng.uniform(1000);
  Asn asn = start;
  while (asn < start + 2 * 397) {
    const Asn next = s.next_active_asn(asn);
    ASSERT_EQ(next, brute_next_active(s, asn)) << "after " << asn;
    if (next == TschSchedule::kNoActiveAsn) break;
    s.active_cells_into(next, scratch);
    ASSERT_FALSE(scratch.empty());
    ASSERT_EQ(scratch, brute_active_cells(s, next)) << "asn " << next;
    asn = next;
  }
}

TEST(CompiledSlotTable, MatchesBruteForceUnderInterleavedEdits) {
  for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    Rng rng(seed);
    TschSchedule s;
    for (int step = 0; step < 150; ++step) {
      // Up to three edits, possibly to different slotframes, between
      // queries: each query recompiles only the slotframes edited since
      // the last one.
      for (auto edits = rng.uniform(3) + 1; edits > 0; --edits) {
        random_schedule_edit(s, rng);
      }
      expect_table_matches_brute(s, rng);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

TEST(CompiledSlotTable, SingleOccupiedSlotWrapsTheSlotframe) {
  TschSchedule s;
  s.add_slotframe(1, 397).add(make_cell(0, 0, kCellTx));
  s.add_slotframe(2, 7);  // empty frames take no part
  EXPECT_EQ(s.next_active_asn(0), 397u);
  EXPECT_EQ(s.next_active_asn(396), 397u);
  EXPECT_EQ(s.next_active_asn(397), 794u);
  s.get(1)->remove(make_cell(0, 0, kCellTx));
  s.get(1)->add(make_cell(396, 0, kCellTx));
  EXPECT_EQ(s.next_active_asn(395), 396u);
  EXPECT_EQ(s.next_active_asn(396), 793u);
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

// The shared pick walks only the backlog index, so a queue the index misses
// is starved of shared cells: retarget must index the queue its data frames
// moved to, and drop the one they left.
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

// --- TxQueues backlog index vs the full-map scan ---------------------------

/// Reference model: every unicast queue ever created, scanned in full for
/// shared picks (empty queues skipped before their backoff is touched).
struct QueueModel {
  struct Entry {
    std::deque<std::uint32_t> seqs;
    std::deque<bool> is_data;
    int backoff_window = 0;
  };
  std::size_t data_capacity = 0;
  std::size_t control_capacity = 0;
  std::size_t data_queued = 0;
  std::map<NodeId, Entry> queues;
  NodeId rr_cursor = 0;

  bool enqueue(NodeId n, bool data, std::uint32_t seq) {
    Entry& e = queues[n];
    if (data) {
      if (data_queued >= data_capacity) return false;
      ++data_queued;
    } else if (static_cast<std::size_t>(std::count(e.is_data.begin(), e.is_data.end(),
                                                   false)) >= control_capacity) {
      return false;
    }
    e.seqs.push_back(seq);
    e.is_data.push_back(data);
    return true;
  }
  void pop(NodeId n) {
    const auto it = queues.find(n);
    if (it == queues.end() || it->second.seqs.empty()) return;
    if (it->second.is_data.front()) --data_queued;
    it->second.seqs.pop_front();
    it->second.is_data.pop_front();
  }
  std::size_t retarget(NodeId from, NodeId to) {
    const auto it = queues.find(from);
    if (it == queues.end() || from == to) return 0;
    Entry& dst = queues[to];
    std::size_t moved = 0;
    for (std::size_t i = 0; i < it->second.seqs.size(); ++i) {
      if (!it->second.is_data[i]) continue;
      dst.seqs.push_back(it->second.seqs[i]);
      dst.is_data.push_back(true);
      ++moved;
    }
    queues.erase(it);
    return moved;
  }
  std::size_t drop(NodeId n) {
    const auto it = queues.find(n);
    if (it == queues.end()) return 0;
    const std::size_t dropped = it->second.seqs.size();
    data_queued -= static_cast<std::size_t>(
        std::count(it->second.is_data.begin(), it->second.is_data.end(), true));
    queues.erase(it);
    return dropped;
  }
  std::optional<NodeId> pick() {
    std::optional<NodeId> chosen;
    const auto visit = [&chosen](NodeId id, Entry& e) {
      if (e.seqs.empty()) return;
      if (e.backoff_window > 0) {
        --e.backoff_window;
        return;
      }
      if (!chosen) chosen = id;
    };
    const auto start = queues.upper_bound(rr_cursor);
    for (auto it = start; it != queues.end(); ++it) visit(it->first, it->second);
    for (auto it = queues.begin(); it != start; ++it) visit(it->first, it->second);
    if (chosen) rr_cursor = *chosen;
    return chosen;
  }
  std::vector<NodeId> backlogged() const {
    std::vector<NodeId> out;
    for (const auto& [id, e] : queues)
      if (!e.seqs.empty()) out.push_back(id);
    return out;
  }
};

void expect_queues_match(TxQueues& q, const QueueModel& m) {
  ASSERT_EQ(q.backlogged_neighbors(), m.backlogged());
  ASSERT_EQ(q.data_queued(), m.data_queued);
  for (NodeId n = 0; n < 40; ++n) {
    SCOPED_TRACE(::testing::Message() << "neighbor " << n);
    const auto it = m.queues.find(n);
    NeighborQueue* nq = q.queue_for(n);
    ASSERT_EQ(nq != nullptr, it != m.queues.end());
    if (nq == nullptr) continue;
    ASSERT_EQ(nq->backoff_window, it->second.backoff_window);
    const QueuedPacket* head = q.peek_unicast(n);
    ASSERT_EQ(head != nullptr, !it->second.seqs.empty());
    if (head != nullptr) {
      ASSERT_EQ(head->mac_seq, it->second.seqs.front());
    }
  }
}

TEST(TxQueues, BacklogIndexMatchesFullScanModel) {
  for (const std::uint64_t seed : {11ull, 12ull, 13ull}) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    Rng rng(seed);
    TxQueues q(24, 3);
    QueueModel m;
    m.data_capacity = 24;
    m.control_capacity = 3;
    std::uint32_t seq = 0;
    // Mostly a few hot neighbors, so queues both fill and drain; the rest
    // spread over 40 ids, so sparse backlogs among many queues occur too.
    const auto pick_neighbor = [&rng] {
      return static_cast<NodeId>(rng.uniform(4) == 0 ? rng.uniform(40) : rng.uniform(6));
    };
    for (int step = 0; step < 3000; ++step) {
      const NodeId n = pick_neighbor();
      switch (rng.uniform(12)) {
        case 0:
        case 1:
        case 2: {
          const bool data = rng.uniform(4) != 0;
          ++seq;
          const FramePtr f = data ? data_frame(1, n) : make_sixp_frame(1, n, SixpPayload{});
          ASSERT_EQ(q.enqueue_unicast(n, f, seq, 0), m.enqueue(n, data, seq));
          break;
        }
        case 3:
        case 4:
          q.pop_unicast(n);
          m.pop(n);
          break;
        case 5: {
          const NodeId to = pick_neighbor();
          ASSERT_EQ(q.retarget(n, to), m.retarget(n, to));
          break;
        }
        case 6:
          ASSERT_EQ(q.drop_queue(n), m.drop(n));
          break;
        case 7:
          // A failed shared-cell transmission backs the queue off.
          if (NeighborQueue* nq = q.queue_for(n)) {
            nq->backoff_window = static_cast<int>(rng.uniform(5));
            m.queues.at(n).backoff_window = nq->backoff_window;
          }
          break;
        default:
          ASSERT_EQ(q.pick_any_unicast_shared(), m.pick()) << "step " << step;
          break;
      }
      expect_queues_match(q, m);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

}  // namespace
}  // namespace gttsch
