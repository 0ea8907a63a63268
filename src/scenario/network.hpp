// Network: a simulator, a shared medium and a set of Nodes built from a
// TopologySpec — the unit a scenario runs.
#pragma once

#include <map>
#include <memory>

#include "phy/medium.hpp"
#include "scenario/node.hpp"
#include "scenario/topology.hpp"
#include "sim/simulator.hpp"
#include "stats/run_stats.hpp"

namespace gttsch {

class Network {
 public:
  /// Factory for link models that need the network's simulator (e.g.
  /// DynamicLinkModel reading the clock for failure injection).
  using LinkModelFactory = std::function<std::unique_ptr<LinkModel>(Simulator&)>;

  /// `link_model` ownership moves in; `stats` may be null (tests).
  Network(std::uint64_t seed, std::unique_ptr<LinkModel> link_model,
          const TopologySpec& topology, const NodeStackConfig& node_config,
          RunStats* stats);

  /// Same, but the model is built against this network's simulator.
  Network(std::uint64_t seed, const LinkModelFactory& factory,
          const TopologySpec& topology, const NodeStackConfig& node_config,
          RunStats* stats);

  /// Detaches any telemetry recorder while the simulator is still alive:
  /// the recorder usually outlives the network (its records are written
  /// after the run), and its sampling timer must not outlive the sim.
  ~Network();

  /// Boots every node (roots first) — call once, then run the simulator.
  void start();

  Simulator& sim() { return sim_; }
  Medium& medium() { return medium_; }
  Node& node(NodeId id);
  const std::map<NodeId, std::unique_ptr<Node>>& nodes() const { return nodes_; }
  std::size_t size() const { return nodes_.size(); }

  /// Number of non-root nodes currently joined to a DODAG.
  std::size_t joined_count() const;

  /// True when every non-root node has an RPL parent and an associated MAC.
  bool fully_formed() const;

  /// Attach a telemetry recorder to every node (null detaches). Called by
  /// Telemetry::attach; TracePlayer reads it back for move/fail events.
  void set_telemetry(Telemetry* telemetry);
  Telemetry* telemetry() const { return telemetry_; }

 private:
  Simulator sim_;
  Medium medium_;
  std::map<NodeId, std::unique_ptr<Node>> nodes_;
  RunStats* stats_;
  Telemetry* telemetry_ = nullptr;
};

}  // namespace gttsch
