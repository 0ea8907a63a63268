// Microbenchmarks for schedule operations: cell lookup, next-active-slot
// search and the shared-cell queue pick (the MAC slot-start hot path, run
// at every active slot of every node), cell add/remove, and the Section V
// placement search used in every 6P ADD.
#include <benchmark/benchmark.h>

#include "core/channel_alloc.hpp"
#include "core/slotframe_layout.hpp"
#include "core/tx_alloc.hpp"
#include "mac/schedule.hpp"
#include "mac/txqueue.hpp"

namespace {

using namespace gttsch;

void build_schedule(TschSchedule& s, int cells) {  // TschSchedule is non-copyable
  auto& sf = s.add_slotframe(0, 101);
  for (int i = 0; i < cells; ++i) {
    Cell c;
    c.slot_offset = static_cast<std::uint16_t>((i * 13) % 101);
    c.channel_offset = static_cast<ChannelOffset>(i % 8);
    c.options = (i % 2) ? kCellTx : kCellRx;
    c.neighbor = static_cast<NodeId>(i % 6);
    sf.add(c);
  }
}

void BM_ActiveCellLookup(benchmark::State& state) {
  TschSchedule sched;
  build_schedule(sched, static_cast<int>(state.range(0)));
  Asn asn = 0;
  for (auto _ : state) benchmark::DoNotOptimize(sched.active_cells(++asn));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ActiveCellLookup)->Arg(8)->Arg(32)->Arg(96);

/// The paper's slotframe (Table II: 4 broadcast + 2x3 shared of 32) plus
/// a few data cells, alone or beside two longer slotframes as an
/// Orchestra-style multi-slotframe schedule would have.
void BM_NextActiveAsn(benchmark::State& state) {
  TschSchedule sched;
  auto& sf = sched.add_slotframe(0, 32);
  for (std::uint16_t o : {0, 8, 16, 24, 1, 2, 3, 9, 10, 11, 5, 13, 21}) {
    Cell c;
    c.slot_offset = o;
    c.options = kCellTx | kCellRx | kCellShared;
    c.neighbor = kBroadcastId;
    sf.add(c);
  }
  if (state.range(0) > 1) {
    Cell c;
    c.options = kCellTx;
    c.neighbor = 4;
    c.slot_offset = 40;
    sched.add_slotframe(1, 101).add(c);
    c.slot_offset = 200;
    sched.add_slotframe(2, 397).add(c);
  }
  Asn asn = 0;
  for (auto _ : state) {
    asn = sched.next_active_asn(asn);
    benchmark::DoNotOptimize(asn);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NextActiveAsn)->Arg(1)->Arg(3);

/// Shared-cell pick with `range(0)` of 40 neighbor queues backlogged (the
/// other queues exist but are empty, as after a burst has drained). Each
/// pick is followed by a re-enqueue, so the backlog stays the same size.
void BM_SharedPick(benchmark::State& state) {
  constexpr NodeId kQueues = 40;
  const auto backlogged = static_cast<NodeId>(state.range(0));
  TxQueues q(64, 8);
  const FramePtr frame = make_data_frame(1, 2, DataPayload{});
  std::uint32_t seq = 0;
  const NodeId stride = kQueues / backlogged;  // backlogged ids spread evenly
  for (NodeId n = 0; n < kQueues; ++n) {
    q.enqueue_unicast(n, frame, ++seq, 0);
    if (n % stride != 0 || n / stride >= backlogged) q.pop_unicast(n);
  }
  for (auto _ : state) {
    const auto chosen = q.pick_any_unicast_shared();
    benchmark::DoNotOptimize(chosen);
    if (chosen) {
      q.pop_unicast(*chosen);
      q.enqueue_unicast(*chosen, frame, ++seq, 0);
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SharedPick)->Arg(1)->Arg(8)->Arg(32);

void BM_CellAddRemove(benchmark::State& state) {
  Slotframe sf(0, 101);
  Cell c;
  c.slot_offset = 50;
  c.channel_offset = 3;
  c.options = kCellTx;
  c.neighbor = 9;
  for (auto _ : state) {
    sf.add(c);
    sf.remove(c);
  }
}
BENCHMARK(BM_CellAddRemove);

void BM_PlaceRxSearch(benchmark::State& state) {
  const SlotframeLayout layout({32, 4, 3});
  Slotframe sf(0, 32);
  for (std::uint16_t o : {3, 9, 14, 20, 26}) {
    Cell c;
    c.slot_offset = o;
    c.channel_offset = 1;
    c.options = kCellTx;
    c.neighbor = 1;
    sf.add(c);
  }
  for (auto _ : state)
    benchmark::DoNotOptimize(TxSlotAllocator::place_rx(sf, layout, 7, 3, false));
}
BENCHMARK(BM_PlaceRxSearch);

void BM_GrantableRx(benchmark::State& state) {
  const SlotframeLayout layout({static_cast<std::uint16_t>(state.range(0)),
                                static_cast<std::uint16_t>(state.range(0) / 8), 3});
  Slotframe sf(0, static_cast<std::uint16_t>(state.range(0)));
  Cell c;
  c.channel_offset = 1;
  c.options = kCellTx;
  c.neighbor = 1;
  for (std::uint16_t o : layout.negotiable_offsets()) {
    if (o % 3 == 0) {
      c.slot_offset = o;
      sf.add(c);
    }
  }
  for (auto _ : state)
    benchmark::DoNotOptimize(TxSlotAllocator::grantable_rx(sf, layout, false));
}
BENCHMARK(BM_GrantableRx)->Arg(32)->Arg(80);

void BM_ChannelAssignment(benchmark::State& state) {
  ChannelAllocator alloc(8, 0);
  const std::vector<ChannelOffset> siblings{3, 4, 5};
  for (auto _ : state)
    benchmark::DoNotOptimize(alloc.assign_child_family_channel(1, 2, siblings));
}
BENCHMARK(BM_ChannelAssignment);

}  // namespace
