// Randomized property tests on the wireless medium: conservation laws,
// determinism, metamorphic relations that must hold for any topology, and
// the link-cache contract — incremental refreshes (mobility, dynamic
// links) must be bit-identical to a cache-disabled reference medium and
// cost O(degree) model calls, not O(n^2) — and an overlap oracle: collision
// outcomes and carrier sense checked against the full frame history, so
// pruning a channel's finished frames can drop nothing that still matters.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "phy/dynamic_link.hpp"
#include "phy/medium.hpp"
#include "scenario/experiment.hpp"
#include "scenario/network.hpp"
#include "scenario/trace.hpp"
#include "sim/simulator.hpp"

namespace gttsch {
namespace {

using namespace literals;

struct RandomAirScenario {
  std::uint64_t seed;
  int nodes;
  double range;
  int transmissions;
};

/// Runs `transmissions` randomly timed broadcasts from random nodes with
/// all other radios listening on a random channel, and returns the medium
/// stats plus per-node delivery counts.
struct AirResult {
  MediumStats stats;
  std::vector<int> rx_count;
};

AirResult run_random_air(const RandomAirScenario& sc, double range_override = -1) {
  Simulator sim(sc.seed);
  Rng rng(sc.seed * 77 + 1);
  const double range = range_override > 0 ? range_override : sc.range;
  Medium medium(sim, std::make_unique<UnitDiskModel>(range, 1.0, 1.5), Rng(sc.seed));
  std::vector<std::unique_ptr<Radio>> radios;
  AirResult result;
  result.rx_count.assign(static_cast<std::size_t>(sc.nodes), 0);
  for (int i = 0; i < sc.nodes; ++i) {
    radios.push_back(std::make_unique<Radio>(
        sim, medium, static_cast<NodeId>(i),
        Position{rng.uniform_double(0, 100), rng.uniform_double(0, 100)}));
    const auto idx = static_cast<std::size_t>(i);
    radios.back()->on_rx = [&result, idx](FramePtr) { ++result.rx_count[idx]; };
  }
  for (int t = 0; t < sc.transmissions; ++t) {
    const TimeUs at = static_cast<TimeUs>(rng.uniform(60000000));
    const auto sender = static_cast<std::size_t>(rng.uniform(sc.nodes));
    const PhysChannel ch = static_cast<PhysChannel>(11 + rng.uniform(8));
    sim.at(at, [&radios, sender, ch] {
      // Everyone else listens on the channel (if idle).
      for (std::size_t r = 0; r < radios.size(); ++r) {
        if (r == sender) continue;
        if (radios[r]->state() == RadioState::kOff) radios[r]->listen(ch);
      }
      if (radios[sender]->state() != RadioState::kTransmitting) {
        if (radios[sender]->state() == RadioState::kListening) radios[sender]->turn_off();
        radios[sender]->transmit(
            make_data_frame(static_cast<NodeId>(sender), kBroadcastId, DataPayload{}), ch);
      }
    });
    sim.at(at + 8_ms, [&radios] {
      for (auto& r : radios)
        if (r->state() == RadioState::kListening) r->turn_off();
    });
  }
  sim.run_until(70_s);
  result.stats = medium.stats();
  return result;
}

class MediumProperties : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MediumProperties, AccountingConserved) {
  const RandomAirScenario sc{GetParam(), 8, 45.0, 300};
  const AirResult r = run_random_air(sc);
  // Every loss category is bounded by potential receptions. (A sender
  // drawn while already transmitting skips that round, so allow slack.)
  EXPECT_LE(r.stats.transmissions, 300u);
  EXPECT_GE(r.stats.transmissions, 290u);
  int total_rx = 0;
  for (int c : r.rx_count) total_rx += c;
  EXPECT_EQ(static_cast<std::uint64_t>(total_rx), r.stats.deliveries);
  // deliveries + losses <= transmissions * (nodes-1).
  EXPECT_LE(r.stats.deliveries + r.stats.collision_losses + r.stats.prr_losses,
            r.stats.transmissions * 7);
}

TEST_P(MediumProperties, DeterministicReplay) {
  const RandomAirScenario sc{GetParam(), 6, 45.0, 200};
  const AirResult a = run_random_air(sc);
  const AirResult b = run_random_air(sc);
  EXPECT_EQ(a.stats.deliveries, b.stats.deliveries);
  EXPECT_EQ(a.stats.collision_losses, b.stats.collision_losses);
  EXPECT_EQ(a.rx_count, b.rx_count);
}

TEST_P(MediumProperties, PerfectPrrMeansNoPrrLosses) {
  const RandomAirScenario sc{GetParam(), 8, 45.0, 300};
  const AirResult r = run_random_air(sc);
  EXPECT_EQ(r.stats.prr_losses, 0u);  // unit disk at PRR 1.0
}

TEST_P(MediumProperties, ShrinkingRangeNeverIncreasesDeliveries) {
  // Metamorphic: with the same traffic pattern, a smaller radio range can
  // only remove receivers (and collisions), never add receptions beyond
  // what extra collisions free up... strictly: deliveries with range 0 are
  // 0, and deliveries grow monotonically only without collisions. Use a
  // sparse pattern (few transmissions, overlap unlikely) where
  // monotonicity must hold.
  const RandomAirScenario sc{GetParam(), 6, 60.0, 40};
  const AirResult wide = run_random_air(sc);
  const AirResult narrow = run_random_air(sc, /*range_override=*/20.0);
  if (wide.stats.collision_losses == 0 && narrow.stats.collision_losses == 0) {
    EXPECT_LE(narrow.stats.deliveries, wide.stats.deliveries);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MediumProperties,
                         ::testing::Values(11u, 23u, 37u, 59u, 71u, 97u));

TEST(MediumProperty, ZeroRangeZeroDeliveries) {
  const RandomAirScenario sc{5, 6, 0.0001, 100};
  const AirResult r = run_random_air(sc);
  EXPECT_EQ(r.stats.deliveries, 0u);
}

TEST(MediumProperty, SingleNodeNoReceivers) {
  const RandomAirScenario sc{7, 1, 50.0, 50};
  const AirResult r = run_random_air(sc);
  EXPECT_EQ(r.stats.deliveries, 0u);
  EXPECT_EQ(r.stats.transmissions, 50u);
}

// ---------------------------------------------------------------------------
// Link-cache contract: incremental invalidation vs the uncached reference.
// ---------------------------------------------------------------------------

/// Counts every prr()/interferes() query so the tests can assert how much
/// model work a cache refresh performs.
class CountingModel final : public LinkModel {
 public:
  explicit CountingModel(std::unique_ptr<LinkModel> base) : base_(std::move(base)) {}

  double prr(NodeId tx, const Position& a, NodeId rx, const Position& b) const override {
    ++calls_;
    return base_->prr(tx, a, rx, b);
  }
  bool interferes(NodeId tx, const Position& a, NodeId rx,
                  const Position& b) const override {
    ++calls_;
    return base_->interferes(tx, a, rx, b);
  }
  std::uint64_t version() const override { return base_->version(); }
  double max_interaction_range() const override { return base_->max_interaction_range(); }
  bool changed_nodes_since(std::uint64_t since, std::vector<NodeId>& out) const override {
    return base_->changed_nodes_since(since, out);
  }

  std::uint64_t calls() const { return calls_; }
  void reset_calls() { calls_ = 0; }

 private:
  std::unique_ptr<LinkModel> base_;
  mutable std::uint64_t calls_ = 0;
};

TEST(MediumCacheIncremental, SingleMoveCostsODegreeModelCalls) {
  using namespace literals;
  Simulator sim(1);
  auto counting =
      std::make_unique<CountingModel>(std::make_unique<UnitDiskModel>(40.0, 1.0, 1.5));
  CountingModel* model = counting.get();
  Medium medium(sim, std::move(counting), Rng(1));

  // 100 nodes spread over 600x600 m: interaction range 60 m, so each node
  // has only a handful of grid neighbors.
  constexpr int kNodes = 100;
  Rng place(3);
  std::vector<std::unique_ptr<Radio>> radios;
  for (int i = 0; i < kNodes; ++i) {
    radios.push_back(std::make_unique<Radio>(
        sim, medium, static_cast<NodeId>(i),
        Position{place.uniform_double(0, 600), place.uniform_double(0, 600)}));
    radios.back()->on_rx = [](FramePtr) {};
  }
  // Any delivery resolution compiles the cache.
  const auto kick = [&] {
    radios[1]->listen(17);
    radios[0]->transmit(make_data_frame(0, kBroadcastId, DataPayload{}), 17);
    sim.run_until(sim.now() + 10_ms);
    radios[1]->turn_off();
  };
  kick();
  const std::uint64_t build_calls = model->calls();
  EXPECT_GT(build_calls, 0u);
  // The grid-driven full build already beats all-pairs (2*n*(n-1) calls).
  EXPECT_LT(build_calls, 2u * kNodes * (kNodes - 1));

  // Warm cache: zero model work.
  model->reset_calls();
  kick();
  EXPECT_EQ(model->calls(), 0u);

  // One move refreshes one row/column through the grid neighborhood:
  // O(degree) calls — two orders of magnitude under the ~19800-call
  // all-pairs rebuild, and well under even one full row scan pair (4n).
  radios[5]->set_position(
      Position{radios[5]->position().x + 3.0, radios[5]->position().y - 2.0});
  model->reset_calls();
  kick();
  const std::uint64_t move_calls = model->calls();
  EXPECT_GT(move_calls, 0u);
  EXPECT_LT(move_calls, 2u * kNodes);
  EXPECT_LT(move_calls * 20, build_calls + 1);
}

TEST(MediumCacheIncremental, MatrixModelEditRefreshesOnlyTouchedNodes) {
  // A MatrixLinkModel mutation is attributed through changed_nodes_since:
  // only the touched pair's rows refresh (here: against all peers, since
  // the matrix has no spatial bound), never the full n^2 matrix.
  using namespace literals;
  Simulator sim(2);
  auto matrix_owned = std::make_unique<MatrixLinkModel>();
  MatrixLinkModel* matrix = matrix_owned.get();
  auto counting = std::make_unique<CountingModel>(std::move(matrix_owned));
  CountingModel* model = counting.get();
  Medium medium(sim, std::move(counting), Rng(2));

  constexpr int kNodes = 40;
  std::vector<std::unique_ptr<Radio>> radios;
  for (int i = 0; i < kNodes; ++i) {
    radios.push_back(
        std::make_unique<Radio>(sim, medium, static_cast<NodeId>(i), Position{}));
    radios.back()->on_rx = [](FramePtr) {};
  }
  // A chain 0-1-2-...: every consecutive pair connected.
  for (int i = 0; i + 1 < kNodes; ++i)
    matrix->set(static_cast<NodeId>(i), static_cast<NodeId>(i + 1), 1.0);

  const auto kick = [&] {
    radios[1]->listen(17);
    radios[0]->transmit(make_data_frame(0, kBroadcastId, DataPayload{}), 17);
    sim.run_until(sim.now() + 10_ms);
    radios[1]->turn_off();
  };
  kick();
  model->reset_calls();
  kick();
  EXPECT_EQ(model->calls(), 0u);  // warm cache

  matrix->set(10, 11, 0.25);  // one link degrades
  model->reset_calls();
  kick();
  const std::uint64_t edit_calls = model->calls();
  EXPECT_GT(edit_calls, 0u);
  // Two dirty nodes x (n-1) peers x 2 queries x 2 directions, vs the
  // 2*n*(n-1) = 3120 calls of a full rebuild.
  EXPECT_LE(edit_calls, 8u * kNodes);
  EXPECT_LT(edit_calls, 2u * kNodes * (kNodes - 1) / 2);
}

/// Per-node observable state of a full-stack run, for bit-identity checks.
struct StackSnapshot {
  std::map<NodeId, MacCounters> mac;
  std::map<NodeId, TimeUs> radio_on;
  std::map<NodeId, std::uint64_t> app_generated;
  MediumStats medium;
  std::uint64_t deliveries = 0;
};

bool counters_equal(const MacCounters& a, const MacCounters& b) {
  return a.unicast_tx_attempts == b.unicast_tx_attempts &&
         a.unicast_success == b.unicast_success && a.unicast_drops == b.unicast_drops &&
         a.retransmissions == b.retransmissions && a.broadcast_sent == b.broadcast_sent &&
         a.eb_sent == b.eb_sent && a.rx_frames == b.rx_frames &&
         a.rx_duplicates == b.rx_duplicates && a.acks_sent == b.acks_sent;
}

/// A GT-TSCH network over a DynamicLinkModel with mid-run moves, link
/// overrides (symmetric, directional and cleared again), a blackout
/// episode, and a node kill followed by a revive — every
/// cache-invalidation source at once.
StackSnapshot run_dynamic_stack(bool cache_enabled) {
  using namespace literals;
  ScenarioConfig sc;
  sc.scheduler = "gt-tsch";
  sc.dodag_count = 1;
  sc.nodes_per_dodag = 7;
  sc.traffic_ppm = 60.0;
  sc.warmup = 120_s;
  sc.measure = 120_s;
  auto nc = sc.make_node_config();
  nc.app_end = 0;
  const Network::LinkModelFactory factory = [&sc](Simulator& sim) {
    auto dyn = std::make_unique<DynamicLinkModel>(
        sim, std::make_unique<UnitDiskModel>(sc.radio_range, sc.link_prr,
                                             sc.interference_factor));
    dyn->override_prr(150_s, 2, 4, 0.4);   // link fades mid-run
    dyn->override_prr(190_s, 2, 4, 1.0);   // ...and recovers
    dyn->override_prr(155_s, 3, 6, 0.5, /*symmetric=*/false);  // one-way fade
    dyn->override_prr(160_s, 3, 5, 0.0);   // blackout episode (pause)...
    dyn->clear_override(175_s, 3, 5);      // ...lifted again (resume)
    dyn->kill_node(210_s, 7);              // a leaf dies outright
    dyn->revive_node(225_s, 7);            // ...and crash-reboots
    return dyn;
  };
  Network net(77, factory, sc.make_topology(), nc, nullptr);
  net.medium().set_link_cache_enabled(cache_enabled);
  net.start();
  // Node 6 roams in small steps through the measurement window.
  for (int step = 0; step < 10; ++step) {
    const double dx = (step % 2 == 0) ? 6.0 : -4.0;
    net.sim().at(130_s + step * 9_s, [&net, dx] {
      Node& n = net.node(6);
      n.move_to({n.position().x + dx, n.position().y + 1.0});
    });
  }
  net.sim().run_until(sc.warmup + sc.measure);

  StackSnapshot snap;
  for (const auto& [id, node] : net.nodes()) {
    snap.mac[id] = node->mac().counters();
    snap.radio_on[id] = node->radio().on_time();
    snap.app_generated[id] = node->app_generated();
  }
  snap.medium = net.medium().stats();
  snap.deliveries = snap.medium.deliveries;
  return snap;
}

TEST(MediumCacheIncremental, DynamicStackMatchesUncachedReferenceBitForBit) {
  const StackSnapshot cached = run_dynamic_stack(/*cache_enabled=*/true);
  const StackSnapshot reference = run_dynamic_stack(/*cache_enabled=*/false);

  ASSERT_EQ(cached.mac.size(), reference.mac.size());
  for (const auto& [id, counters] : cached.mac) {
    SCOPED_TRACE(::testing::Message() << "node " << id);
    EXPECT_TRUE(counters_equal(counters, reference.mac.at(id)));
    EXPECT_EQ(cached.radio_on.at(id), reference.radio_on.at(id));
    EXPECT_EQ(cached.app_generated.at(id), reference.app_generated.at(id));
  }
  EXPECT_EQ(cached.medium.transmissions, reference.medium.transmissions);
  EXPECT_EQ(cached.medium.deliveries, reference.medium.deliveries);
  EXPECT_EQ(cached.medium.collision_losses, reference.medium.collision_losses);
  EXPECT_EQ(cached.medium.prr_losses, reference.medium.prr_losses);
  // The scenario must actually have exercised the medium.
  EXPECT_GT(cached.deliveries, 100u);
}

/// A GT-TSCH stack under a random-waypoint trace whose per-tick jumps
/// (speed * interval = 120 m) dwarf the spatial-grid cell size
/// (max_interaction_range = 40 * 1.6 = 64 m): every move teleports the
/// walker across grid cells, exercising the membership-update path of the
/// incremental cache.
StackSnapshot run_waypoint_stack(bool cache_enabled) {
  using namespace literals;
  ScenarioConfig sc;
  sc.scheduler = "gt-tsch";
  sc.dodag_count = 1;
  sc.nodes_per_dodag = 7;
  sc.traffic_ppm = 60.0;
  sc.warmup = 120_s;
  sc.measure = 120_s;
  sc.trace_kind = TraceKind::kRandomWaypoint;
  sc.trace_seed = 99;
  sc.trace_movers = 3;
  sc.trace_speed_mps = 30.0;
  sc.trace_interval_s = 4.0;

  const TopologySpec topo = sc.make_topology();
  Trace trace;
  std::string error;
  if (!sc.make_trace(topo, &trace, &error)) {
    ADD_FAILURE() << error;
    return {};
  }
  auto nc = sc.make_node_config();
  nc.app_end = 0;
  Network net(123, std::make_unique<UnitDiskModel>(sc.radio_range, sc.link_prr,
                                                   sc.interference_factor),
              topo, nc, nullptr);
  net.medium().set_link_cache_enabled(cache_enabled);
  TracePlayer player(net, std::move(trace), nullptr);
  net.start();
  player.start();
  net.sim().run_until(sc.warmup + sc.measure);
  // 3 movers x ~29 ticks: the teleports actually happened.
  EXPECT_GT(player.applied(), 80u);

  StackSnapshot snap;
  for (const auto& [id, node] : net.nodes()) {
    snap.mac[id] = node->mac().counters();
    snap.radio_on[id] = node->radio().on_time();
    snap.app_generated[id] = node->app_generated();
  }
  snap.medium = net.medium().stats();
  snap.deliveries = snap.medium.deliveries;
  return snap;
}

TEST(MediumCacheIncremental, WaypointTeleportsMatchUncachedReferenceBitForBit) {
  const StackSnapshot cached = run_waypoint_stack(/*cache_enabled=*/true);
  const StackSnapshot reference = run_waypoint_stack(/*cache_enabled=*/false);

  ASSERT_EQ(cached.mac.size(), reference.mac.size());
  for (const auto& [id, counters] : cached.mac) {
    SCOPED_TRACE(::testing::Message() << "node " << id);
    EXPECT_TRUE(counters_equal(counters, reference.mac.at(id)));
    EXPECT_EQ(cached.radio_on.at(id), reference.radio_on.at(id));
    EXPECT_EQ(cached.app_generated.at(id), reference.app_generated.at(id));
  }
  EXPECT_EQ(cached.medium.transmissions, reference.medium.transmissions);
  EXPECT_EQ(cached.medium.deliveries, reference.medium.deliveries);
  EXPECT_EQ(cached.medium.collision_losses, reference.medium.collision_losses);
  EXPECT_EQ(cached.medium.prr_losses, reference.medium.prr_losses);
  EXPECT_GT(cached.deliveries, 100u);
}

TEST(MediumCacheIncremental, SingleTraceMoveStaysUnderTwoNModelCalls) {
  // A one-event trace through the full stack: the refresh triggered by
  // the played move must cost O(degree) model calls — strictly under the
  // 2n bound (even one full row+column re-scan would be ~4n).
  using namespace literals;
  ScenarioConfig sc;
  sc.scheduler = "gt-tsch";
  sc.topology = TopologyKind::kRandomDisk;
  sc.topology_nodes = 64;
  sc.disk_radius = 400.0;  // sparse: a 3x3 grid neighborhood holds few nodes
  sc.topology_seed = 5;
  sc.interference_factor = 1.0;  // interaction range 40 m -> small grid cells
  sc.traffic_ppm = 30.0;
  const TopologySpec topo = sc.make_topology();

  auto nc = sc.make_node_config();
  nc.app_end = 0;
  CountingModel* model = nullptr;
  const Network::LinkModelFactory factory =
      [&sc, &model](Simulator&) -> std::unique_ptr<LinkModel> {
    auto counting = std::make_unique<CountingModel>(std::make_unique<UnitDiskModel>(
        sc.radio_range, sc.link_prr, sc.interference_factor));
    model = counting.get();
    return counting;
  };
  Network net(321, factory, topo, nc, nullptr);

  Trace trace;
  trace.events.push_back(
      TraceEvent{66_s, TraceEventKind::kMove, 5, /*peer=*/0,
                 Position{net.node(5).position().x + 3.0,
                          net.node(5).position().y - 2.0},
                 /*value=*/0.0, /*line=*/0});
  TracePlayer player(net, std::move(trace), nullptr);
  net.start();
  player.start();

  // Warm up: the cache compiles during formation traffic.
  net.sim().run_until(60_s);
  model->reset_calls();
  net.sim().run_until(65_s);
  EXPECT_EQ(model->calls(), 0u);  // warm cache, nobody moved

  net.sim().run_until(80_s);  // the trace move lands at 66 s
  EXPECT_EQ(player.applied(), 1u);
  const std::uint64_t move_calls = model->calls();
  EXPECT_GT(move_calls, 0u);
  EXPECT_LT(move_calls, 2u * static_cast<std::uint64_t>(sc.topology_nodes));
}

TEST(MediumCacheIncremental, WholeNetworkMoveCapFiresAtLiveRadioCount) {
  // Regression for the moved-backlog overflow cap in position_changed:
  // the cap must be measured against the *attached* radio count (which
  // shrinks on detach, while the compiled cache keeps its stale size) and
  // must fire at equality — dedup bounds the backlog at the attached
  // count, so a `>` comparison could never trip once radios detach.
  using namespace literals;
  Simulator sim(9);
  auto counting =
      std::make_unique<CountingModel>(std::make_unique<UnitDiskModel>(40.0, 1.0, 1.5));
  CountingModel* model = counting.get();
  Medium medium(sim, std::move(counting), Rng(9));

  constexpr int kNodes = 40;
  Rng place(11);
  std::vector<std::unique_ptr<Radio>> radios;
  for (int i = 0; i < kNodes; ++i) {
    radios.push_back(std::make_unique<Radio>(
        sim, medium, static_cast<NodeId>(i),
        Position{place.uniform_double(0, 400), place.uniform_double(0, 400)}));
    radios.back()->on_rx = [](FramePtr) {};
  }
  const auto kick = [&] {
    radios[1]->listen(17);
    radios[0]->transmit(make_data_frame(0, kBroadcastId, DataPayload{}), 17);
    sim.run_until(sim.now() + 10_ms);
    radios[1]->turn_off();
  };
  kick();
  const std::uint64_t build_calls = model->calls();
  EXPECT_GT(build_calls, 0u);

  // Detach a quarter of the network; the compiled cache still spans all
  // kNodes until the next query rebuilds it.
  for (int i = kNodes - 10; i < kNodes; ++i) radios[static_cast<std::size_t>(i)].reset();

  // Now move every *remaining* radio. The backlog reaches the live count
  // (30) — far below the stale cache size (40) — and must still collapse
  // the whole batch into one full rebuild.
  for (int i = 0; i < kNodes - 10; ++i) {
    auto& r = radios[static_cast<std::size_t>(i)];
    r->set_position(Position{r->position().x + 1.0, r->position().y + 1.0});
  }
  model->reset_calls();
  kick();
  const std::uint64_t batch_calls = model->calls();
  EXPECT_GT(batch_calls, 0u);
  // One rebuild of the shrunken network, not per-mover incremental
  // refreshes stacked on top of it (those would roughly double the work).
  EXPECT_LE(batch_calls, build_calls);

  // The backlog must be gone: a warm-cache query costs nothing, and a
  // single follow-up move costs O(degree), proving no mover lingered.
  model->reset_calls();
  kick();
  EXPECT_EQ(model->calls(), 0u);
  radios[5]->set_position(
      Position{radios[5]->position().x + 2.0, radios[5]->position().y});
  model->reset_calls();
  kick();
  EXPECT_GT(model->calls(), 0u);
  EXPECT_LT(model->calls(), 2u * kNodes);
}

// ---------------------------------------------------------------------------
// Delivery callbacks that change other receivers mid-drain.
// ---------------------------------------------------------------------------

struct CallbackMutationResult {
  MediumStats stats;
  std::vector<int> rx_count;  ///< per radio id; index 0 is the sender
};

/// What radio 1's on_rx destroys besides its other mutations.
enum class Destroy { kNothing, kListener, kSecondSender };

/// One broadcast from radio 0 to six in-range listeners (ids 1-6, PRR 1).
/// Receiver 1 resolves first (ascending id), and its on_rx turns radio 3
/// off, retunes radio 4 to another channel (which also restarts its listen
/// window) and destroys what `destroy` names. Destroying listener 6
/// detaches a radio while the remaining candidates of the same frame
/// resolve; without a destruction, they resolve through the cache while
/// their radios changed under it. kSecondSender adds radio 7 far away
/// (beyond interference range of 0-6), whose frame to its listener 8 ends
/// in the same drain batch as radio 0's; radio 1's on_rx destroys radio 7
/// before that frame resolves, so it must reach no one.
CallbackMutationResult run_callback_mutations(bool cached, Destroy destroy) {
  constexpr int kListeners = 6;
  constexpr PhysChannel kChannel = 17;
  Simulator sim(11);
  Medium medium(sim, std::make_unique<UnitDiskModel>(50.0, 1.0, 1.5), Rng(11));
  medium.set_link_cache_enabled(cached);
  CallbackMutationResult out;
  std::vector<Position> places;
  for (int i = 0; i <= kListeners; ++i) places.push_back({static_cast<double>(i), 0.0});
  if (destroy == Destroy::kSecondSender) {
    places.push_back({200.0, 0.0});  // radio 7, the second sender
    places.push_back({210.0, 0.0});  // radio 8, its only listener
  }
  out.rx_count.assign(places.size(), 0);
  std::vector<std::unique_ptr<Radio>> radios;
  for (std::size_t i = 0; i < places.size(); ++i) {
    radios.push_back(
        std::make_unique<Radio>(sim, medium, static_cast<NodeId>(i), places[i]));
    radios.back()->on_rx = [&out, i](FramePtr) { ++out.rx_count[i]; };
  }
  radios[1]->on_rx = [&out, &radios, destroy](FramePtr) {
    ++out.rx_count[1];
    radios[3]->turn_off();
    radios[4]->listen(kChannel + 1);
    if (destroy == Destroy::kListener) radios[6].reset();
    if (destroy == Destroy::kSecondSender) radios[7].reset();
  };
  sim.at(10, [&radios] {
    for (std::size_t i = 1; i < radios.size(); ++i) {
      if (i != 7) radios[i]->listen(kChannel);
    }
  });
  sim.at(100, [&radios] {
    radios[0]->transmit(make_data_frame(0, kBroadcastId, DataPayload{}), kChannel);
    if (radios.size() > 7) {
      radios[7]->transmit(make_data_frame(7, kBroadcastId, DataPayload{}), kChannel);
    }
  });
  sim.run_until(100_ms);
  out.stats = medium.stats();
  return out;
}

TEST(MediumCacheIncremental, DeliveryCallbackMutationsMatchUncachedReference) {
  for (const Destroy destroy :
       {Destroy::kNothing, Destroy::kListener, Destroy::kSecondSender}) {
    const int label = static_cast<int>(destroy);
    const CallbackMutationResult cached = run_callback_mutations(true, destroy);
    const CallbackMutationResult reference = run_callback_mutations(false, destroy);
    // Hand-derived: 1, 2 and 5 hear the frame; 3 is off, 4 is on another
    // channel, and 6 hears it unless it was destroyed first. The destroyed
    // second sender's frame reaches no one: not its listener 8, and no
    // radio near 0 counts it as a collision or a PRR loss.
    std::vector<int> expected{0, 1, 1, 0, 0, 1, destroy == Destroy::kListener ? 0 : 1};
    if (destroy == Destroy::kSecondSender) expected.insert(expected.end(), {0, 0});
    for (const CallbackMutationResult* r : {&cached, &reference}) {
      EXPECT_EQ(r->rx_count, expected) << "destroy " << label;
      EXPECT_EQ(r->stats.transmissions, destroy == Destroy::kSecondSender ? 2u : 1u);
      EXPECT_EQ(r->stats.deliveries, destroy == Destroy::kListener ? 3u : 4u);
      EXPECT_EQ(r->stats.collision_losses, 0u) << "destroy " << label;
      EXPECT_EQ(r->stats.prr_losses, 0u);
    }
    EXPECT_EQ(cached.rx_count, reference.rx_count);
    EXPECT_EQ(cached.stats.deliveries, reference.stats.deliveries);
    EXPECT_EQ(cached.stats.collision_losses, reference.stats.collision_losses);
    EXPECT_EQ(cached.stats.prr_losses, reference.stats.prr_losses);
  }
}

TEST(MediumDetachedSender, FrameIsLostInBothModes) {
  // A sender destroyed mid-frame goes silent: its frame reaches no one,
  // neither a listener near the origin (where a detached sender once
  // resolved as if it stood) nor one in range of where it really was.
  for (const bool cached : {true, false}) {
    constexpr PhysChannel kChannel = 17;
    Simulator sim(5);
    Medium medium(sim, std::make_unique<UnitDiskModel>(50.0, 1.0, 1.5), Rng(5));
    medium.set_link_cache_enabled(cached);
    auto sender = std::make_unique<Radio>(sim, medium, 0, Position{500.0, 0.0});
    Radio near_origin(sim, medium, 1, Position{5.0, 0.0});
    Radio near_sender(sim, medium, 2, Position{520.0, 0.0});
    std::vector<int> rx_count(3, 0);
    near_origin.on_rx = [&rx_count](FramePtr) { ++rx_count[1]; };
    near_sender.on_rx = [&rx_count](FramePtr) { ++rx_count[2]; };
    near_origin.listen(kChannel);
    near_sender.listen(kChannel);
    const FramePtr frame = make_data_frame(0, kBroadcastId, DataPayload{});
    const TimeUs air = frame_airtime(frame->length_bytes);
    sim.at(100, [&] { sender->transmit(frame, kChannel); });
    sim.at(100 + air / 2, [&sender] { sender.reset(); });
    sim.run_until(100_ms);
    EXPECT_EQ(rx_count, (std::vector<int>{0, 0, 0})) << "cached " << cached;
    EXPECT_EQ(medium.stats().transmissions, 1u);
    EXPECT_EQ(medium.stats().deliveries, 0u);
    EXPECT_EQ(medium.stats().collision_losses, 0u);
    EXPECT_EQ(medium.stats().prr_losses, 0u);
  }
}

// ---------------------------------------------------------------------------
// Carrier sense: the cached busy_until against the uncached reference.
// ---------------------------------------------------------------------------

struct CarrierSenseAnswers {
  std::vector<TimeUs> answers;  ///< every (instant, id, channel) probe, in order
  int busy = 0;                 ///< probes that heard a live transmission
};

/// One medium with a seeded air scenario: 12 radios, broadcasts on random
/// channels 11-26, random moves, and radio 3 destroyed (detached) while its
/// frame is in flight. At the probe instants every id — the attached ones,
/// the detached one and a never-attached one — polls busy_until on every
/// channel. Every random draw happens up front, so the cached and uncached
/// media run the same event sequence.
CarrierSenseAnswers carrier_sense_answers(std::uint64_t seed, bool cached) {
  constexpr int kNodes = 12;
  constexpr std::size_t kDetached = 3;
  constexpr NodeId kNeverAttached = 40;
  constexpr TimeUs kDetachTx = 500_ms;
  Simulator sim(seed);
  Medium medium(sim, std::make_unique<UnitDiskModel>(35.0, 1.0, 1.5), Rng(seed));
  medium.set_link_cache_enabled(cached);
  Rng rng(seed * 31 + 7);
  std::vector<std::unique_ptr<Radio>> radios;
  for (int i = 0; i < kNodes; ++i) {
    radios.push_back(std::make_unique<Radio>(
        sim, medium, static_cast<NodeId>(i),
        Position{rng.uniform_double(0, 100), rng.uniform_double(0, 100)}));
  }
  const auto transmit = [&radios](std::size_t who, PhysChannel ch) {
    Radio* r = radios[who].get();
    if (r == nullptr || r->state() == RadioState::kTransmitting) return;
    r->transmit(make_data_frame(static_cast<NodeId>(who), kBroadcastId, DataPayload{}), ch);
  };
  for (int t = 0; t < 400; ++t) {
    const auto at = static_cast<TimeUs>(rng.uniform(1000000));
    const auto who = static_cast<std::size_t>(rng.uniform(kNodes));
    const auto ch = static_cast<PhysChannel>(11 + rng.uniform(16));
    sim.at(at, [&transmit, who, ch] { transmit(who, ch); });
  }
  for (int m = 0; m < 30; ++m) {
    const auto at = static_cast<TimeUs>(rng.uniform(1000000));
    const auto who = static_cast<std::size_t>(rng.uniform(kNodes));
    const Position to{rng.uniform_double(0, 100), rng.uniform_double(0, 100)};
    sim.at(at, [&radios, who, to] {
      if (radios[who] != nullptr) radios[who]->set_position(to);
    });
  }
  sim.at(kDetachTx, [&transmit] { transmit(kDetached, 15); });
  sim.at(kDetachTx + 100, [&radios] { radios[kDetached].reset(); });

  CarrierSenseAnswers out;
  const auto probe = [&] {
    for (NodeId id = 0; id <= kNodes; ++id) {
      const NodeId listener = id == kNodes ? kNeverAttached : id;
      const bool attached = listener < kNodes && radios[listener] != nullptr;
      for (PhysChannel ch = 11; ch <= 26; ++ch) {
        const TimeUs busy = medium.busy_until(listener, ch);
        if (!attached) {
          EXPECT_EQ(busy, 0) << "unattached listener " << listener;
        }
        if (busy > sim.now()) ++out.busy;
        out.answers.push_back(busy);
      }
    }
  };
  std::vector<TimeUs> probes{kDetachTx + 200, kDetachTx + 300};
  for (int p = 0; p < 80; ++p) probes.push_back(static_cast<TimeUs>(rng.uniform(1100000)));
  for (const TimeUs at : probes) sim.at(at, probe);
  sim.run_until(1200_ms);
  return out;
}

TEST(MediumCarrierSense, CachedBusyUntilMatchesUncachedReference) {
  for (const std::uint64_t seed : {3u, 17u, 29u, 41u}) {
    const CarrierSenseAnswers cached = carrier_sense_answers(seed, true);
    const CarrierSenseAnswers reference = carrier_sense_answers(seed, false);
    ASSERT_EQ(cached.answers.size(), reference.answers.size());
    EXPECT_EQ(cached.answers, reference.answers) << "seed " << seed;
    EXPECT_GT(cached.busy, 0) << "seed " << seed << ": no probe heard anything";
  }
}

// ---------------------------------------------------------------------------
// Overlap oracle: the pruned channel buckets against the full history.
// ---------------------------------------------------------------------------

struct PlannedFrame {
  std::size_t sender;  ///< index into the sender radios
  PhysChannel channel;
  std::uint16_t length;
  TimeUs start;
  TimeUs end;
};

/// Random frames on three channels from kSenders radios, heard by
/// kListeners radios that each listen on one channel for the whole run.
/// Lengths are ACK-length or maximal; starts lie on a 32 us grid (so every
/// start and end is even) and two thirds of the frames start with, or end
/// with, an earlier frame on its channel, so drains resolve batches whose
/// frames overlap each other. No sender overlaps itself. Links are unit
/// disk at PRR 1, so every outcome is a function of the frame history.
std::vector<PlannedFrame> plan_frames(Rng& rng, std::size_t senders, int count) {
  constexpr TimeUs kGrid = 32;
  constexpr TimeUs kHorizon = 150'000;
  const std::uint16_t lengths[] = {default_frame_length(FrameType::kAck),
                                   kMaxMacFrameBytes};
  std::vector<PlannedFrame> frames;
  for (int i = 0; i < count; ++i) {
    PlannedFrame f{static_cast<std::size_t>(rng.uniform(senders)),
                   static_cast<PhysChannel>(11 + rng.uniform(3)), lengths[rng.uniform(2)],
                   0, 0};
    const TimeUs air = frame_airtime(f.length);
    const std::uint64_t mode = frames.empty() ? 0 : rng.uniform(3);
    if (mode == 0) {
      f.start = kGrid * static_cast<TimeUs>(1 + rng.uniform(kHorizon / kGrid));
    } else {
      const PlannedFrame& other = frames[rng.uniform(frames.size())];
      f.channel = other.channel;
      f.start = mode == 1 ? other.start : other.end - air;
    }
    f.end = f.start + air;
    if (f.start <= 0) continue;
    const bool sender_busy =
        std::any_of(frames.begin(), frames.end(), [&](const PlannedFrame& g) {
          return g.sender == f.sender && g.start <= f.end && f.start <= g.end;
        });
    if (!sender_busy) frames.push_back(f);
  }
  return frames;
}

TEST(MediumOverlapOracle, OutcomesAndCarrierSenseMatchFullHistory) {
  constexpr std::size_t kSenders = 8;
  constexpr std::size_t kListeners = 10;
  constexpr double kRange = 40.0;
  const UnitDiskModel oracle_model(kRange, 1.0, 1.5);
  for (const std::uint64_t seed : {5u, 19u, 33u, 47u}) {
    for (const bool cached : {true, false}) {
      SCOPED_TRACE(testing::Message() << "seed " << seed << " cached " << cached);
      Simulator sim(seed);
      Medium medium(sim, std::make_unique<UnitDiskModel>(kRange, 1.0, 1.5), Rng(seed));
      medium.set_link_cache_enabled(cached);
      Rng rng(seed * 13 + 5);
      std::vector<std::unique_ptr<Radio>> radios;  // senders, then listeners
      for (std::size_t i = 0; i < kSenders + kListeners; ++i) {
        radios.push_back(std::make_unique<Radio>(
            sim, medium, static_cast<NodeId>(i),
            Position{rng.uniform_double(0, 120), rng.uniform_double(0, 120)}));
      }
      const auto listen_channel = [](std::size_t listener) {
        return static_cast<PhysChannel>(11 + listener % 3);
      };
      std::vector<std::vector<std::uint32_t>> delivered(kListeners);
      for (std::size_t l = 0; l < kListeners; ++l) {
        radios[kSenders + l]->on_rx = [&delivered, l](FramePtr f) {
          delivered[l].push_back(f->mac_seq);
        };
        radios[kSenders + l]->listen(listen_channel(l));
      }
      const std::vector<PlannedFrame> frames = plan_frames(rng, kSenders, 400);
      for (std::size_t i = 0; i < frames.size(); ++i) {
        const PlannedFrame& f = frames[i];
        auto frame = std::make_shared<Frame>();
        frame->src = static_cast<NodeId>(f.sender);
        frame->length_bytes = f.length;
        frame->mac_seq = static_cast<std::uint32_t>(i);
        sim.at(f.start,
               [&radios, &f, frame] { radios[f.sender]->transmit(frame, f.channel); });
      }
      const auto sender_pos = [&](const PlannedFrame& f) -> const Position& {
        return radios[f.sender]->position();
      };

      // Carrier sense at odd instants, which no frame starts or ends at.
      int busy_probes = 0;
      const auto probe = [&](TimeUs at) {
        for (std::size_t r = 0; r < radios.size(); ++r) {
          for (const PhysChannel ch : {PhysChannel{11}, PhysChannel{12}, PhysChannel{13},
                                       PhysChannel{20}}) {
            TimeUs expected = 0;
            for (const PlannedFrame& f : frames) {
              if (f.channel != ch || f.sender == r || !(f.start < at && at < f.end)) {
                continue;
              }
              const Position& rpos = radios[r]->position();
              if (oracle_model.prr(0, sender_pos(f), 0, rpos) > 0.0 ||
                  oracle_model.interferes(0, sender_pos(f), 0, rpos)) {
                expected = std::max(expected, f.end);
              }
            }
            const TimeUs busy = medium.busy_until(static_cast<NodeId>(r), ch);
            EXPECT_EQ(busy, expected) << "node " << r << " channel " << int{ch}
                                      << " at " << at;
            if (expected > 0) ++busy_probes;
          }
        }
      };
      for (int p = 0; p < 200; ++p) {
        const TimeUs at = 2 * static_cast<TimeUs>(rng.uniform(80'000)) + 1;
        sim.at(at, [&probe, at] { probe(at); });
      }
      sim.run_until(1'000'000);

      // Every in-range listener on the frame's channel either decodes it or
      // loses it to an overlapping frame on that channel whose sender
      // interferes at the listener.
      std::vector<std::vector<std::uint32_t>> expected(kListeners);
      std::uint64_t expected_collisions = 0;
      std::uint64_t batch_collisions = 0;  // lost to a frame ending at the same instant
      for (std::size_t i = 0; i < frames.size(); ++i) {
        const PlannedFrame& f = frames[i];
        for (std::size_t l = 0; l < kListeners; ++l) {
          const Position& lpos = radios[kSenders + l]->position();
          if (listen_channel(l) != f.channel ||
              oracle_model.prr(0, sender_pos(f), 0, lpos) <= 0.0) {
            continue;
          }
          bool collided = false;
          bool by_batch = false;
          for (std::size_t j = 0; j < frames.size(); ++j) {
            const PlannedFrame& g = frames[j];
            const bool overlap = g.start < f.end && f.start < g.end;
            if (j == i || g.channel != f.channel || !overlap ||
                !oracle_model.interferes(0, sender_pos(g), 0, lpos)) {
              continue;
            }
            collided = true;
            by_batch = by_batch || g.end == f.end;
          }
          if (collided) {
            ++expected_collisions;
            if (by_batch) ++batch_collisions;
          } else {
            expected[l].push_back(static_cast<std::uint32_t>(i));
          }
        }
      }
      std::uint64_t expected_deliveries = 0;
      for (std::size_t l = 0; l < kListeners; ++l) {
        std::sort(delivered[l].begin(), delivered[l].end());  // was delivery order
        EXPECT_EQ(delivered[l], expected[l]) << "listener " << kSenders + l;
        expected_deliveries += expected[l].size();
      }
      const MediumStats stats = medium.stats();
      EXPECT_EQ(stats.transmissions, frames.size());
      EXPECT_EQ(stats.deliveries, expected_deliveries);
      EXPECT_EQ(stats.collision_losses, expected_collisions);
      EXPECT_EQ(stats.prr_losses, 0u);
      // The scenario must exercise what the oracle guards.
      EXPECT_GT(expected_deliveries, 0u);
      EXPECT_GT(batch_collisions, 0u);
      EXPECT_GT(expected_collisions, batch_collisions);
      EXPECT_GT(busy_probes, 0);
    }
  }
}

}  // namespace
}  // namespace gttsch
