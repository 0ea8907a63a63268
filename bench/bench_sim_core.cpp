// Microbenchmarks for the simulation substrate: event queue throughput,
// OneShotTimer re-arm churn on slot-aligned and drifted instants, medium
// delivery resolution, cache refresh after a move (with and without a
// churn-laden DynamicLinkModel), and carrier sense as rx guards poll it —
// at one frozen instant and across slots whose frames drain.
// End-to-end runs are timed by perfbench (perfbench/README.md).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <vector>

#include "phy/dynamic_link.hpp"
#include "phy/medium.hpp"
#include "sim/simulator.hpp"
#include "sim/timer.hpp"
#include "util/rng.hpp"

namespace {

using namespace gttsch;
using namespace gttsch::literals;

void BM_SimulatorScheduleRun(benchmark::State& state) {
  const int batch = static_cast<int>(state.range(0));
  for (auto _ : state) {
    Simulator sim(1);
    for (int i = 0; i < batch; ++i) sim.after((i * 7919) % 100000, [] {});
    sim.run_all();
    benchmark::DoNotOptimize(sim.events_processed());
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_SimulatorScheduleRun)->Range(1 << 8, 1 << 14);

/// OneShotTimer churn over a steady population of `pending` timers, one
/// per node and keyed by node id like the MAC slot timer. Each timer
/// re-arms itself when it fires, 1-16 slots ahead. Every iteration also
/// re-arms one random timer early, which kills its pending expiry, and
/// then advances the clock by an eighth of a slot. Instants are either
/// slot-aligned (all timers on the 10 ms grid, so expiries share
/// instants) or drifted (a per-timer offset inside the slot, as with
/// NodeConfig::max_drift_ppm, so almost every instant is distinct).
void BM_EventCoreRearm(benchmark::State& state) {
  const int pending = static_cast<int>(state.range(0));
  const bool drifted = state.range(1) != 0;
  constexpr TimeUs kSlot = 10'000;
  Simulator sim(1);
  Rng rng(7);
  std::vector<std::unique_ptr<OneShotTimer>> timers;
  std::vector<TimeUs> offset;
  for (int i = 0; i < pending; ++i) {
    timers.push_back(std::make_unique<OneShotTimer>(sim, static_cast<std::uint32_t>(i)));
    offset.push_back(drifted ? 1 + (static_cast<TimeUs>(i) * 7919) % (kSlot - 1) : 0);
  }
  std::function<void(int)> arm = [&](int i) {
    const std::size_t n = static_cast<std::size_t>(i);
    const TimeUs at = sim.now() / kSlot * kSlot +
                      kSlot * static_cast<TimeUs>(1 + rng.uniform(16)) + offset[n];
    timers[n]->start(at - sim.now(), [&arm, i] { arm(i); });
  };
  for (int i = 0; i < pending; ++i) arm(i);
  const std::uint64_t events_before = sim.events_processed();
  for (auto _ : state) {
    arm(static_cast<int>(rng.uniform(static_cast<std::uint64_t>(pending))));
    sim.run_until(sim.now() + kSlot / 8);
    benchmark::DoNotOptimize(sim.events_processed());
  }
  // One item per re-arm: the random one of each iteration plus the one
  // each fired timer makes.
  state.SetItemsProcessed(state.iterations() +
                          static_cast<std::int64_t>(sim.events_processed() - events_before));
}
BENCHMARK(BM_EventCoreRearm)
    ->ArgNames({"pending", "drifted"})
    ->Args({1000, 0})
    ->Args({1000, 1})
    ->Args({10000, 0})
    ->Args({10000, 1});

void BM_MediumBroadcastResolution(benchmark::State& state) {
  const int receivers = static_cast<int>(state.range(0));
  Simulator sim(3);
  Medium medium(sim, std::make_unique<UnitDiskModel>(100.0), Rng(3));
  std::vector<std::unique_ptr<Radio>> radios;
  radios.push_back(std::make_unique<Radio>(sim, medium, 0, Position{0, 0}));
  for (int i = 1; i <= receivers; ++i) {
    radios.push_back(std::make_unique<Radio>(sim, medium, static_cast<NodeId>(i),
                                             Position{static_cast<double>(i % 10), 1.0}));
    radios.back()->on_rx = [](FramePtr) {};
  }
  for (auto _ : state) {
    for (int i = 1; i <= receivers; ++i) radios[static_cast<std::size_t>(i)]->listen(17);
    radios[0]->transmit(make_data_frame(0, kBroadcastId, DataPayload{}), 17);
    sim.run_until(sim.now() + 10_ms);
  }
  state.SetItemsProcessed(state.iterations() * receivers);
}
BENCHMARK(BM_MediumBroadcastResolution)->Arg(4)->Arg(16)->Arg(64)->Arg(200);

void BM_MediumSingleMoveRefresh(benchmark::State& state) {
  // Cost of one Radio::set_position + cache refresh in a spread-out
  // field: O(degree) with the grid index, not O(n^2).
  const int nodes = static_cast<int>(state.range(0));
  Simulator sim(5);
  Medium medium(sim, std::make_unique<UnitDiskModel>(40.0, 1.0, 1.6), Rng(5));
  std::vector<std::unique_ptr<Radio>> radios;
  Rng place(7);
  const double side = 30.0 * std::sqrt(static_cast<double>(nodes));
  for (int i = 0; i < nodes; ++i) {
    radios.push_back(std::make_unique<Radio>(
        sim, medium, static_cast<NodeId>(i),
        Position{place.uniform_double(0, side), place.uniform_double(0, side)}));
    radios.back()->on_rx = [](FramePtr) {};
  }
  // Build the cache once, then move one node back and forth; each
  // busy-path touch (a transmission) refreshes the single dirty row.
  double dx = 1.0;
  for (auto _ : state) {
    radios[0]->set_position(Position{radios[0]->position().x + dx, 5.0});
    dx = -dx;
    radios[1]->listen(17);
    radios[0]->transmit(make_data_frame(0, kBroadcastId, DataPayload{}), 17);
    sim.run_until(sim.now() + 10_ms);
    radios[1]->turn_off();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MediumSingleMoveRefresh)->Arg(50)->Arg(200);

/// BM_MediumSingleMoveRefresh/200 behind a DynamicLinkModel holding `k`
/// kill/revive entries, registered up front as a trace player does, for
/// the half of the field farthest from the mover. They activate at a
/// far-future time, so the cached links never change: the time per
/// iteration differs from k = 0 only by what the model's lookups cost.
void BM_MediumChurnMoveRefresh(benchmark::State& state) {
  constexpr int kNodes = 200;
  const int entries = static_cast<int>(state.range(0));
  Simulator sim(5);
  auto dynamic = std::make_unique<DynamicLinkModel>(
      sim, std::make_unique<UnitDiskModel>(40.0, 1.0, 1.6));
  DynamicLinkModel& model = *dynamic;
  Medium medium(sim, std::move(dynamic), Rng(5));
  std::vector<std::unique_ptr<Radio>> radios;
  Rng place(7);
  const double side = 30.0 * std::sqrt(static_cast<double>(kNodes));
  for (int i = 0; i < kNodes; ++i) {
    radios.push_back(std::make_unique<Radio>(
        sim, medium, static_cast<NodeId>(i),
        Position{place.uniform_double(0, side), place.uniform_double(0, side)}));
    radios.back()->on_rx = [](FramePtr) {};
  }
  std::vector<NodeId> far;
  for (int i = 1; i < kNodes; ++i) far.push_back(static_cast<NodeId>(i));
  const Position mover{radios[0]->position().x, 5.0};  // where the loop moves it
  std::sort(far.begin(), far.end(), [&](NodeId a, NodeId b) {
    return distance(radios[a]->position(), mover) >
           distance(radios[b]->position(), mover);
  });
  far.resize(far.size() / 2);
  constexpr TimeUs kFarFuture = 1'000'000_s;
  for (int i = 0; i < entries; ++i) {
    const NodeId id = far[static_cast<std::size_t>(i) % far.size()];
    const TimeUs at = kFarFuture + static_cast<TimeUs>(i) * 1_s;
    if (i % 2 == 0) {
      model.kill_node(at, id);
    } else {
      model.revive_node(at, id);
    }
  }
  double dx = 1.0;
  for (auto _ : state) {
    radios[0]->set_position(Position{radios[0]->position().x + dx, 5.0});
    dx = -dx;
    radios[1]->listen(17);
    radios[0]->transmit(make_data_frame(0, kBroadcastId, DataPayload{}), 17);
    sim.run_until(sim.now() + 10_ms);
    radios[1]->turn_off();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MediumChurnMoveRefresh)->ArgName("entries")->Arg(0)->Arg(200)->Arg(2000);

/// Carrier sense as TSCH rx guards poll it: every eighth radio transmits on
/// one of the 16 channels, and every other radio polls busy_until on each
/// channel at one instant. One item per poll.
void BM_CarrierSense(benchmark::State& state) {
  constexpr int kChannels = 16;
  constexpr PhysChannel kFirstChannel = 11;
  const int nodes = static_cast<int>(state.range(0));
  Simulator sim(5);
  Medium medium(sim, std::make_unique<UnitDiskModel>(40.0, 1.0, 1.6), Rng(5));
  std::vector<std::unique_ptr<Radio>> radios;
  Rng place(7);
  const double side = 30.0 * std::sqrt(static_cast<double>(nodes));
  for (int i = 0; i < nodes; ++i) {
    radios.push_back(std::make_unique<Radio>(
        sim, medium, static_cast<NodeId>(i),
        Position{place.uniform_double(0, side), place.uniform_double(0, side)}));
  }
  std::vector<NodeId> listeners;
  for (int i = 0; i < nodes; ++i) {
    const auto id = static_cast<NodeId>(i);
    if (i % 8 != 0) {
      listeners.push_back(id);
      continue;
    }
    const auto channel = static_cast<PhysChannel>(kFirstChannel + (i / 8) % kChannels);
    radios[id]->transmit(make_data_frame(id, kBroadcastId, DataPayload{}), channel);
  }
  // The frames stay in flight: the clock never advances inside the loop.
  for (auto _ : state) {
    TimeUs acc = 0;
    for (int c = 0; c < kChannels; ++c) {
      const auto channel = static_cast<PhysChannel>(kFirstChannel + c);
      for (const NodeId id : listeners) acc += medium.busy_until(id, channel);
    }
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() * kChannels *
                          static_cast<std::int64_t>(listeners.size()));
}
BENCHMARK(BM_CarrierSense)->Arg(50)->Arg(200);

/// Carrier sense across slots, with the clock running through the drains:
/// each iteration is one 10 ms slot in which every eighth radio sends a
/// maximal frame on one of the 16 channels and the next radio answers
/// with an ACK once it ends. Every radio that is not sending polls each
/// channel at the data rx guard and again at the ACK's, so the ACK polls
/// meet the data frames just finished. One item per poll.
void BM_CarrierSenseSlots(benchmark::State& state) {
  constexpr int kChannels = 16;
  constexpr PhysChannel kFirstChannel = 11;
  constexpr TimeUs kSlot = 10'000;
  constexpr TimeUs kRxGuard = 100;
  constexpr TimeUs kAckDelay = 1'000;
  const int nodes = static_cast<int>(state.range(0));
  Simulator sim(5);
  Medium medium(sim, std::make_unique<UnitDiskModel>(40.0, 1.0, 1.6), Rng(5));
  std::vector<std::unique_ptr<Radio>> radios;
  Rng place(7);
  const double side = 30.0 * std::sqrt(static_cast<double>(nodes));
  for (int i = 0; i < nodes; ++i) {
    radios.push_back(std::make_unique<Radio>(
        sim, medium, static_cast<NodeId>(i),
        Position{place.uniform_double(0, side), place.uniform_double(0, side)}));
  }
  std::vector<NodeId> senders;
  for (int i = 0; i + 1 < nodes; i += 8) senders.push_back(static_cast<NodeId>(i));
  const auto channel_of = [&](std::size_t k) {
    return static_cast<PhysChannel>(kFirstChannel + k % kChannels);
  };
  std::int64_t polls = 0;
  const auto poll_all = [&](bool ack_phase) {
    TimeUs acc = 0;
    for (int c = 0; c < kChannels; ++c) {
      const auto channel = static_cast<PhysChannel>(kFirstChannel + c);
      for (int i = 0; i < nodes; ++i) {
        if (i % 8 == (ack_phase ? 1 : 0)) continue;  // this phase's senders
        acc += medium.busy_until(static_cast<NodeId>(i), channel);
        ++polls;
      }
    }
    return acc;
  };
  for (auto _ : state) {
    const TimeUs slot = sim.now();
    for (std::size_t k = 0; k < senders.size(); ++k) {
      const NodeId id = senders[k];
      auto data = std::make_shared<Frame>();
      data->src = id;
      data->length_bytes = kMaxMacFrameBytes;
      radios[id]->transmit(data, channel_of(k));
    }
    sim.run_until(slot + kRxGuard);
    TimeUs acc = poll_all(false);
    sim.run_until(slot + kMaxFrameAirtime + kAckDelay);
    for (std::size_t k = 0; k < senders.size(); ++k) {
      const NodeId id = senders[k] + 1;
      radios[id]->transmit(make_ack_frame(id, senders[k]), channel_of(k));
    }
    sim.run_until(sim.now() + kRxGuard);
    acc += poll_all(true);
    benchmark::DoNotOptimize(acc);
    sim.run_until(slot + kSlot);
  }
  state.SetItemsProcessed(polls);
}
BENCHMARK(BM_CarrierSenseSlots)->Arg(50)->Arg(200);

}  // namespace
