// Failure injection and dynamics: time-varying link quality (the paper's
// core motivation), node death with RPL re-parenting, and the GT-TSCH
// child-timeout cell reclamation path.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "phy/dynamic_link.hpp"
#include "core/gt_tsch_sf.hpp"
#include "scenario/experiment.hpp"
#include "scenario/network.hpp"
#include "util/rng.hpp"

namespace gttsch {
namespace {

using namespace literals;

/// GT-specific assertions reach the concrete SF through the common
/// interface; nullptr when the node runs a different scheduler.
const GtTschSf* gt_sf(const Node& n) {
  return dynamic_cast<const GtTschSf*>(&n.sf());
}

NodeStackConfig gt_config(double ppm) {
  ScenarioConfig sc;
  sc.scheduler = "gt-tsch";
  sc.traffic_ppm = ppm;
  auto nc = sc.make_node_config();
  nc.app_start = 60_s;
  nc.app_end = 0;
  return nc;
}

/// Network factory wiring a DynamicLinkModel to the network's simulator.
Network::LinkModelFactory dynamic_disk(DynamicLinkModel** out) {
  return [out](Simulator& sim) {
    auto model =
        std::make_unique<DynamicLinkModel>(sim, std::make_unique<UnitDiskModel>(40.0, 1.0, 1.6));
    *out = model.get();
    return model;
  };
}

TEST(DynamicLink, OverridesTakeEffectAtTime) {
  Simulator sim(1);
  DynamicLinkModel model(sim, std::make_unique<UnitDiskModel>(40.0));
  model.override_prr(10_s, 1, 2, 0.25);
  const Position a{0, 0}, b{10, 0};
  EXPECT_DOUBLE_EQ(model.prr(1, a, 2, b), 1.0);  // before override
  sim.run_until(10_s);
  EXPECT_DOUBLE_EQ(model.prr(1, a, 2, b), 0.25);
  EXPECT_DOUBLE_EQ(model.prr(2, b, 1, a), 0.25);  // symmetric by default
}

TEST(DynamicLink, LaterOverrideWins) {
  Simulator sim(1);
  DynamicLinkModel model(sim, std::make_unique<UnitDiskModel>(40.0));
  model.override_prr(5_s, 1, 2, 0.5);
  model.override_prr(15_s, 1, 2, 0.9);
  sim.run_until(10_s);
  EXPECT_DOUBLE_EQ(model.prr(1, {}, 2, {0, 1}), 0.5);
  sim.run_until(20_s);
  EXPECT_DOUBLE_EQ(model.prr(1, {}, 2, {0, 1}), 0.9);
}

TEST(DynamicLink, AsymmetricOverride) {
  Simulator sim(1);
  DynamicLinkModel model(sim, std::make_unique<UnitDiskModel>(40.0));
  model.override_prr(1_s, 1, 2, 0.3, /*symmetric=*/false);
  sim.run_until(2_s);
  EXPECT_DOUBLE_EQ(model.prr(1, {}, 2, {0, 1}), 0.3);
  EXPECT_DOUBLE_EQ(model.prr(2, {0, 1}, 1, {}), 1.0);
}

TEST(DynamicLink, DeadLinkStopsInterfering) {
  Simulator sim(1);
  DynamicLinkModel model(sim, std::make_unique<UnitDiskModel>(40.0));
  model.override_prr(1_s, 1, 2, 0.0);
  sim.run_until(2_s);
  EXPECT_FALSE(model.interferes(1, {}, 2, {0, 1}));
}

TEST(DynamicLink, KilledNodeSilentBothWays) {
  Simulator sim(1);
  DynamicLinkModel model(sim, std::make_unique<UnitDiskModel>(40.0));
  model.kill_node(5_s, 3);
  sim.run_until(6_s);
  EXPECT_DOUBLE_EQ(model.prr(3, {}, 2, {0, 1}), 0.0);
  EXPECT_DOUBLE_EQ(model.prr(2, {}, 3, {0, 1}), 0.0);
  EXPECT_FALSE(model.interferes(3, {}, 2, {0, 1}));
  // Unrelated links unaffected.
  EXPECT_DOUBLE_EQ(model.prr(1, {}, 2, {0, 1}), 1.0);
}

TEST(DynamicLink, BaseModelPassThrough) {
  Simulator sim(1);
  DynamicLinkModel model(sim, std::make_unique<UnitDiskModel>(40.0, 0.8, 1.5));
  EXPECT_DOUBLE_EQ(model.prr(1, {0, 0}, 2, {0, 39}), 0.8);
  EXPECT_DOUBLE_EQ(model.prr(1, {0, 0}, 2, {0, 41}), 0.0);
  EXPECT_TRUE(model.interferes(1, {0, 0}, 2, {0, 59}));
}

/// The rule DynamicLinkModel's per-key indices must reproduce, written as
/// the plain scan over every registration: the latest entry with at <= now
/// decides, a tie going to the later registration; version() counts the
/// entries seen active, and each check reports the nodes of the entries
/// that became active since the previous one.
class LinearScanOracle {
 public:
  LinearScanOracle(const Simulator& sim, const LinkModel& base)
      : sim_(sim), base_(base) {}

  void override_prr(TimeUs at, NodeId tx, NodeId rx, double prr, bool symmetric) {
    entries_.push_back({at, tx, rx, Kind::kOverride, prr});
    if (symmetric) entries_.push_back({at, rx, tx, Kind::kOverride, prr});
  }
  void clear_override(TimeUs at, NodeId tx, NodeId rx) {
    entries_.push_back({at, tx, rx, Kind::kOverride, -1.0});
    entries_.push_back({at, rx, tx, Kind::kOverride, -1.0});
  }
  void kill_node(TimeUs at, NodeId id) {
    entries_.push_back({at, id, id, Kind::kKill, 0.0});
  }
  void revive_node(TimeUs at, NodeId id) {
    entries_.push_back({at, id, id, Kind::kRevive, 0.0});
  }

  double prr(NodeId tx, const Position& tx_pos, NodeId rx, const Position& rx_pos) const {
    if (dead(tx) || dead(rx)) return 0.0;
    const Entry* o = latest_override(tx, rx);
    if (o != nullptr && o->prr >= 0.0) return o->prr;
    return base_.prr(tx, tx_pos, rx, rx_pos);
  }
  bool interferes(NodeId tx, const Position& tx_pos, NodeId rx,
                  const Position& rx_pos) const {
    if (dead(tx)) return false;
    const Entry* o = latest_override(tx, rx);
    if (o != nullptr && o->prr == 0.0) return false;
    return base_.interferes(tx, tx_pos, rx, rx_pos);
  }

  /// Marks the entries active by now as seen; returns the nodes of those
  /// seen for the first time.
  std::set<NodeId> newly_active() {
    std::set<NodeId> nodes;
    for (Entry& e : entries_) {
      if (e.seen || e.at > sim_.now()) continue;
      e.seen = true;
      nodes.insert(e.a);
      nodes.insert(e.b);
    }
    return nodes;
  }
  std::uint64_t seen_count() const {
    return static_cast<std::uint64_t>(std::count_if(
        entries_.begin(), entries_.end(), [](const Entry& e) { return e.seen; }));
  }

 private:
  enum class Kind { kOverride, kKill, kRevive };
  struct Entry {
    TimeUs at;
    NodeId a;
    NodeId b;
    Kind kind;
    double prr;
    bool seen = false;
  };

  template <typename Match>
  const Entry* latest(Match match) const {
    const Entry* best = nullptr;
    for (const Entry& e : entries_) {
      if (!match(e) || e.at > sim_.now()) continue;
      if (best == nullptr || e.at >= best->at) best = &e;
    }
    return best;
  }
  bool dead(NodeId id) const {
    const Entry* e =
        latest([id](const Entry& x) { return x.kind != Kind::kOverride && x.a == id; });
    return e != nullptr && e->kind == Kind::kKill;
  }
  const Entry* latest_override(NodeId tx, NodeId rx) const {
    return latest([tx, rx](const Entry& x) {
      return x.kind == Kind::kOverride && x.a == tx && x.b == rx;
    });
  }

  const Simulator& sim_;
  const LinkModel& base_;
  std::vector<Entry> entries_;
};

/// Registers the same entries with the model and the oracle.
struct Registrar {
  DynamicLinkModel& model;
  LinearScanOracle& oracle;

  void override_prr(TimeUs at, NodeId tx, NodeId rx, double prr, bool symmetric) {
    model.override_prr(at, tx, rx, prr, symmetric);
    oracle.override_prr(at, tx, rx, prr, symmetric);
  }
  void clear_override(TimeUs at, NodeId tx, NodeId rx) {
    model.clear_override(at, tx, rx);
    oracle.clear_override(at, tx, rx);
  }
  void kill_node(TimeUs at, NodeId id) {
    model.kill_node(at, id);
    oracle.kill_node(at, id);
  }
  void revive_node(TimeUs at, NodeId id) {
    model.revive_node(at, id);
    oracle.revive_node(at, id);
  }
};

TEST(DynamicLink, IndexedLookupsMatchLinearScan) {
  constexpr NodeId kRegistered = 20;  // entries name ids 0..19
  constexpr NodeId kQueried = 23;     // queries also cover 20..22
  constexpr TimeUs kStep = 100_ms;    // activation grid: 40 instants, many ties
  constexpr int kGrid = 40;
  constexpr int kBatches = 4;
  constexpr int kPerBatch = 60;
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE(seed);
    Simulator sim(seed);
    Rng rng(seed);
    DynamicLinkModel model(sim, std::make_unique<UnitDiskModel>(40.0, 0.9, 1.6));
    const UnitDiskModel oracle_base(40.0, 0.9, 1.6);
    LinearScanOracle oracle(sim, oracle_base);
    Registrar reg{model, oracle};
    std::vector<Position> pos;
    for (NodeId id = 0; id < kQueried; ++id) {
      pos.push_back(Position{rng.uniform_double(0, 80), rng.uniform_double(0, 80)});
    }
    auto node = [&] { return static_cast<NodeId>(rng.uniform(kRegistered)); };
    auto grid_time = [&] { return kStep * static_cast<TimeUs>(rng.uniform(kGrid)); };

    // Just before, at and just after every instant an entry can activate.
    std::set<TimeUs> check_times;
    for (int g = 0; g < kGrid; ++g) {
      for (const TimeUs dt : {TimeUs{-1}, TimeUs{0}, TimeUs{1}}) {
        if (kStep * g + dt >= 0) check_times.insert(kStep * g + dt);
      }
    }
    std::uint64_t last_version = model.version();
    auto check = [&] {
      SCOPED_TRACE(sim.now());
      int mismatches = 0;
      for (NodeId tx = 0; tx < kQueried; ++tx) {
        for (NodeId rx = 0; rx < kQueried; ++rx) {
          const Position& a = pos[tx];
          const Position& b = pos[rx];
          if (model.prr(tx, a, rx, b) != oracle.prr(tx, a, rx, b) ||
              model.interferes(tx, a, rx, b) != oracle.interferes(tx, a, rx, b)) {
            ++mismatches;
          }
        }
      }
      EXPECT_EQ(mismatches, 0);
      const std::set<NodeId> expected_changed = oracle.newly_active();
      const std::uint64_t version = model.version();
      EXPECT_EQ(version, oracle.seen_count());
      EXPECT_GE(version, last_version);
      std::vector<NodeId> changed;
      EXPECT_TRUE(model.changed_nodes_since(last_version, changed));
      EXPECT_EQ(std::set<NodeId>(changed.begin(), changed.end()), expected_changed);
      last_version = version;
    };

    for (int batch = 0; batch < kBatches; ++batch) {
      // Fixed cases at one random instant: kill and revive of a node at
      // the same time (both orders), a clear after an override, and a
      // symmetric pause against an asymmetric prr on the reverse link.
      const TimeUs t = grid_time();
      reg.kill_node(t, 1);
      reg.revive_node(t, 1);
      reg.revive_node(t, 2);
      reg.kill_node(t, 2);
      reg.override_prr(t, 3, 4, 0.4, /*symmetric=*/true);
      reg.clear_override(t, 3, 4);
      reg.override_prr(t, 5, 6, 0.0, /*symmetric=*/true);
      reg.override_prr(t, 6, 5, 0.7, /*symmetric=*/false);
      // Random entries anywhere on the grid, so later batches register
      // many whose activation time has already passed.
      for (int i = 0; i < kPerBatch; ++i) {
        const TimeUs at = grid_time();
        const NodeId a = node();
        const NodeId b = node();
        switch (rng.uniform(6)) {
          case 0:
            reg.kill_node(at, a);
            break;
          case 1:
            reg.revive_node(at, a);
            break;
          case 2:
            reg.override_prr(at, a, b, rng.uniform_double(), /*symmetric=*/true);
            break;
          case 3:
            reg.override_prr(at, a, b, rng.bernoulli(0.5) ? 0.0 : 0.6,
                             /*symmetric=*/false);
            break;
          case 4:
            reg.override_prr(at, a, b, 0.0, /*symmetric=*/true);  // a pause
            break;
          default:
            reg.clear_override(at, a, b);
            break;
        }
      }
      check();  // entries registered at or before now apply immediately
      const TimeUs horizon = kStep * kGrid * (batch + 1) / kBatches;
      for (auto it = check_times.upper_bound(sim.now());
           it != check_times.end() && *it <= horizon; ++it) {
        sim.run_until(*it);
        check();
      }
    }
  }
}

TEST(Failure, EtxReactsToLinkDegradation) {
  // Line root(1) - 2 - 3; the 2-3 link degrades mid-run. Node 3's ETX to
  // its parent must rise, raising its rank (MRHOF).
  const auto topo = build_line(1, {0, 0}, 2, 30.0);
  DynamicLinkModel* dyn = nullptr;
  Network net(77, dynamic_disk(&dyn), topo, gt_config(60.0), nullptr);
  ASSERT_NE(dyn, nullptr);

  dyn->override_prr(240_s, 2, 3, 0.45);
  net.start();
  net.sim().run_until(230_s);
  ASSERT_TRUE(net.fully_formed());
  const double etx_before = net.node(3).etx().etx(2);
  net.sim().run_until(500_s);
  const double etx_after = net.node(3).etx().etx(2);
  EXPECT_LT(etx_before, 1.4);
  EXPECT_GT(etx_after, etx_before + 0.4);  // ~1/0.45 ≈ 2.2 at steady state
  EXPECT_GT(net.node(3).rpl().rank(), 512 + 256);
}

TEST(Failure, GameShrinksHeadroomOnBadLink) {
  // Same degradation; the Eq 15 request with higher ETX must not exceed
  // the healthy-link one (comparative statics, on the live stack).
  const auto topo = build_line(1, {0, 0}, 2, 30.0);
  DynamicLinkModel* dyn = nullptr;
  Network net(85, dynamic_disk(&dyn), topo, gt_config(60.0), nullptr);
  dyn->override_prr(240_s, 2, 3, 0.5);
  net.start();
  net.sim().run_until(230_s);
  ASSERT_TRUE(net.fully_formed());
  net.sim().run_until(500_s);
  // The node still holds enough cells to carry its traffic...
  ASSERT_NE(gt_sf(net.node(3)), nullptr);
  EXPECT_GE(gt_sf(net.node(3))->allocated_tx_cells(), 1);
  // ...but its ETX-driven link cost is visibly above 1.
  EXPECT_GT(net.node(3).etx().etx(2), 1.5);
}

TEST(Failure, LeafReparentsWhenRouterDies) {
  // Diamond: root 1; routers 2 and 3 both reachable from leaf 4.
  TopologySpec topo;
  topo.nodes.push_back(NodeSpec{1, {0, 0}, true});
  topo.nodes.push_back(NodeSpec{2, {30, 12}, false});
  topo.nodes.push_back(NodeSpec{3, {30, -12}, false});
  topo.nodes.push_back(NodeSpec{4, {55, 0}, false});  // reaches 2 and 3 only

  DynamicLinkModel* dyn = nullptr;
  Network net(79, dynamic_disk(&dyn), topo, gt_config(60.0), nullptr);
  net.start();
  net.sim().run_until(200_s);
  ASSERT_TRUE(net.fully_formed());
  const NodeId first_parent = net.node(4).rpl().parent();
  ASSERT_TRUE(first_parent == 2 || first_parent == 3);
  const NodeId other = first_parent == 2 ? 3 : 2;

  dyn->kill_node(210_s, first_parent);
  net.sim().at(210_s, [&] { net.node(first_parent).fail(); });
  net.sim().run_until(600_s);

  EXPECT_TRUE(net.node(first_parent).failed());
  EXPECT_EQ(net.node(4).rpl().parent(), other);
  // The leaf is operational again under the new parent.
  ASSERT_NE(gt_sf(net.node(4)), nullptr);
  EXPECT_EQ(gt_sf(net.node(4))->stage(), GtTschSf::Stage::kOperational);
  EXPECT_EQ(gt_sf(net.node(4))->channel_to_parent(),
            gt_sf(net.node(other))->family_channel());
}

TEST(Failure, ParentReclaimsCellsOfDeadChild) {
  // Line: root 1 - relay 2 - leaf 3. Kill the leaf; after child_timeout
  // the relay must reclaim its Rx cells and erase the child.
  const auto topo = build_line(1, {0, 0}, 2, 30.0);
  auto nc = gt_config(60.0);
  nc.sf.gt.child_timeout = 60_s;
  DynamicLinkModel* dyn = nullptr;
  Network net(81, dynamic_disk(&dyn), topo, nc, nullptr);

  net.start();
  net.sim().run_until(240_s);
  ASSERT_TRUE(net.fully_formed());
  ASSERT_EQ(gt_sf(net.node(2))->child_count(), 1u);
  ASSERT_GT(gt_sf(net.node(2))->allocated_rx_cells(), 0);

  dyn->kill_node(250_s, 3);
  net.sim().at(250_s, [&] { net.node(3).fail(); });
  net.sim().run_until(600_s);

  EXPECT_EQ(gt_sf(net.node(2))->child_count(), 0u);
  EXPECT_EQ(gt_sf(net.node(2))->allocated_rx_cells(), 0);
}

TEST(Failure, DeliveryRecoversAfterRouterFailure) {
  TopologySpec topo;
  topo.nodes.push_back(NodeSpec{1, {0, 0}, true});
  topo.nodes.push_back(NodeSpec{2, {30, 12}, false});
  topo.nodes.push_back(NodeSpec{3, {30, -12}, false});
  topo.nodes.push_back(NodeSpec{4, {55, 0}, false});

  // Measure only the post-failure window.
  RunStats stats(330_s, 630_s);
  DynamicLinkModel* dyn = nullptr;
  Network net(83, dynamic_disk(&dyn), topo, gt_config(60.0), &stats);

  net.start();
  net.sim().run_until(200_s);
  ASSERT_TRUE(net.fully_formed());
  const NodeId victim = net.node(4).rpl().parent();
  dyn->kill_node(210_s, victim);
  net.sim().at(210_s, [&] { net.node(victim).fail(); });
  net.sim().at(330_s, [&] { stats.begin_measurement(); });
  net.sim().at(630_s, [&] { stats.end_measurement(); });
  net.sim().run_until(640_s);

  // The leaf's packets flow again via the surviving router.
  const auto& leaf = stats.per_node().at(4);
  EXPECT_GT(leaf.generated, 200u);
  EXPECT_GT(static_cast<double>(leaf.delivered_origin),
            0.9 * static_cast<double>(leaf.generated));
}

TEST(Failure, OrchestraAlsoRecovers) {
  // Baseline sanity: Orchestra's autonomous cells follow the new parent.
  TopologySpec topo;
  topo.nodes.push_back(NodeSpec{1, {0, 0}, true});
  topo.nodes.push_back(NodeSpec{2, {30, 12}, false});
  topo.nodes.push_back(NodeSpec{3, {30, -12}, false});
  topo.nodes.push_back(NodeSpec{4, {55, 0}, false});

  ScenarioConfig sc;
  sc.scheduler = "orchestra";
  sc.traffic_ppm = 30.0;
  auto nc = sc.make_node_config();
  nc.app_start = 60_s;
  nc.app_end = 0;

  DynamicLinkModel* dyn = nullptr;
  Network net(87, dynamic_disk(&dyn), topo, nc, nullptr);
  net.start();
  net.sim().run_until(200_s);
  ASSERT_TRUE(net.fully_formed());
  const NodeId victim = net.node(4).rpl().parent();
  const NodeId other = victim == 2 ? 3 : 2;
  dyn->kill_node(210_s, victim);
  net.sim().at(210_s, [&] { net.node(victim).fail(); });
  net.sim().run_until(600_s);
  EXPECT_EQ(net.node(4).rpl().parent(), other);
}

}  // namespace
}  // namespace gttsch
