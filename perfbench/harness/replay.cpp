// Replays for the traced run: each times one public hot function of a
// layer, from outside the simulator, on state taken from the finished run.
#include <memory>
#include <vector>

#include "phy/medium.hpp"
#include "run.hpp"
#include "scenario/network.hpp"
#include "sim/timer.hpp"

namespace perfbench {

using namespace gttsch;

namespace {

/// Physical channels of the Table-II hopping sequence range.
constexpr PhysChannel kFirstChannel = 11;
constexpr int kChannels = 16;

volatile std::uint64_t g_sink = 0;  // keeps timed results observable

/// OneShotTimer re-arm plus fire, with a heap holding as many pending
/// events as the run ended with (parked far beyond the replay's horizon).
double rearm_ns(std::size_t population) {
  Simulator sim(1);
  const TimeUs far = TimeUs{1} << 50;
  for (std::size_t i = 0; i < population; ++i) {
    sim.at(far + static_cast<TimeUs>((i * 7919) % 1000003), [] {});
  }
  OneShotTimer timer(sim);
  std::uint64_t fired = 0;
  constexpr int kIterations = 200000;
  const auto start = Clock::now();
  for (int i = 0; i < kIterations; ++i) {
    timer.start(2000, [&fired] { ++fired; });
    timer.start(1000, [&fired] { ++fired; });  // re-arm: the first expiry dies
    sim.run_until(sim.now() + 1000);
  }
  const double ns = seconds_since(start) * 1e9 / kIterations;
  if (fired != kIterations) die("timer replay fired an unexpected number of times");
  g_sink = g_sink + fired;
  return ns;
}

/// A bare medium with one radio per node at its end-of-run position.
struct ReplayMedium {
  ReplayMedium(Network& net, const ScenarioConfig& config)
      : sim(config.seed),
        medium(sim,
               std::make_unique<UnitDiskModel>(config.radio_range, config.link_prr,
                                               config.interference_factor),
               Rng(config.seed)) {
    for (const auto& [id, node] : net.nodes()) {
      radios.push_back(std::make_unique<Radio>(sim, medium, id, node->position()));
      radios.back()->on_rx = [](FramePtr) {};
    }
  }

  void listen_all(PhysChannel channel) {
    for (auto& radio : radios) radio->listen(channel);
  }

  void settle() { sim.run_until(sim.now() + 10000); }

  Simulator sim;
  Medium medium;
  std::vector<std::unique_ptr<Radio>> radios;  // destroyed before the medium
};

/// Carrier sense with every eighth node transmitting, polled the way rx
/// guards poll it: every listener on one channel at one instant.
double busy_until_ns(ReplayMedium& r) {
  r.listen_all(kFirstChannel);
  for (std::size_t i = 0; i < r.radios.size(); i += 8) {
    const auto channel = static_cast<PhysChannel>(kFirstChannel + (i / 8) % kChannels);
    r.radios[i]->transmit(make_data_frame(r.radios[i]->id(), kBroadcastId, DataPayload{}),
                          channel);
  }
  constexpr int kPasses = 50;
  std::uint64_t calls = 0;
  TimeUs acc = 0;
  const auto start = Clock::now();
  for (int pass = 0; pass < kPasses; ++pass) {
    for (int c = 0; c < kChannels; ++c) {
      const auto channel = static_cast<PhysChannel>(kFirstChannel + c);
      for (const auto& radio : r.radios) {
        acc += r.medium.busy_until(radio->id(), channel);
        ++calls;
      }
    }
  }
  const double ns = seconds_since(start) * 1e9 / static_cast<double>(calls);
  g_sink = g_sink + static_cast<std::uint64_t>(acc);
  r.settle();
  return ns;
}

/// One broadcast per node to an all-listening neighbourhood: the
/// transmission start plus its batched delivery resolution.
double tx_resolve_ns(ReplayMedium& r) {
  constexpr int kPasses = 5;
  double seconds = 0.0;
  std::uint64_t transmissions = 0;
  for (int pass = 0; pass < kPasses; ++pass) {
    const auto channel = static_cast<PhysChannel>(kFirstChannel + pass % kChannels);
    r.listen_all(channel);
    for (auto& radio : r.radios) {
      FramePtr frame = make_data_frame(radio->id(), kBroadcastId, DataPayload{});
      const auto start = Clock::now();
      radio->transmit(std::move(frame), channel);
      r.settle();
      seconds += seconds_since(start);
      ++transmissions;
      radio->listen(channel);
    }
  }
  g_sink = g_sink + r.medium.stats().deliveries;
  return seconds * 1e9 / static_cast<double>(transmissions);
}

/// Next-active-slot lookups over every node's end schedule.
double next_active_ns(Network& net) {
  constexpr Asn kAsns = 4096;
  std::uint64_t calls = 0;
  Asn acc = 0;
  const auto start = Clock::now();
  for (const auto& [id, node] : net.nodes()) {
    const TschSchedule& schedule = node->mac().schedule();
    for (Asn asn = 0; asn < kAsns; ++asn) acc ^= schedule.next_active_asn(asn);
    calls += kAsns;
  }
  const double ns = seconds_since(start) * 1e9 / static_cast<double>(calls);
  g_sink = g_sink + acc;
  return ns;
}

}  // namespace

Values replay_timings(Network& net, const ScenarioConfig& config) {
  Values out;
  out.emplace_back("sim.rearm_ns", rearm_ns(net.sim().pending_events()));
  ReplayMedium replay(net, config);
  out.emplace_back("phy.busy_until_ns", busy_until_ns(replay));
  out.emplace_back("phy.tx_resolve_ns", tx_resolve_ns(replay));
  out.emplace_back("mac.next_active_ns", next_active_ns(net));
  return out;
}

}  // namespace perfbench
