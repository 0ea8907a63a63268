#include "scenario/network.hpp"

#include "stats/telemetry.hpp"
#include "util/check.hpp"

namespace gttsch {

Network::Network(std::uint64_t seed, std::unique_ptr<LinkModel> link_model,
                 const TopologySpec& topology, const NodeStackConfig& node_config,
                 RunStats* stats)
    : Network(
          seed,
          [shared = std::make_shared<std::unique_ptr<LinkModel>>(std::move(link_model))](
              Simulator&) { return std::move(*shared); },
          topology, node_config, stats) {}

Network::Network(std::uint64_t seed, const LinkModelFactory& factory,
                 const TopologySpec& topology, const NodeStackConfig& node_config,
                 RunStats* stats)
    : sim_(seed),
      medium_(sim_, factory(sim_), Rng(seed).fork(0x3ED1)),
      stats_(stats) {
  Rng root_rng(seed);
  for (const NodeSpec& spec : topology.nodes) {
    auto node = std::make_unique<Node>(sim_, medium_, spec, node_config, stats,
                                       root_rng.fork(spec.id));
    if (stats_ != nullptr) stats_->register_node(spec.id, spec.is_root, &node->radio());
    nodes_.emplace(spec.id, std::move(node));
  }
}

Network::~Network() {
  if (telemetry_ != nullptr) telemetry_->detach();
}

void Network::start() {
  for (auto& [id, node] : nodes_)
    if (node->is_root()) node->start();
  for (auto& [id, node] : nodes_)
    if (!node->is_root()) node->start();
}

void Network::set_telemetry(Telemetry* telemetry) {
  telemetry_ = telemetry;
  for (auto& [id, node] : nodes_) node->set_telemetry(telemetry);
}

Node& Network::node(NodeId id) {
  const auto it = nodes_.find(id);
  GTTSCH_CHECK(it != nodes_.end());
  return *it->second;
}

std::size_t Network::joined_count() const {
  std::size_t n = 0;
  for (const auto& [id, node] : nodes_)
    if (!node->is_root() && node->rpl().joined()) ++n;
  return n;
}

bool Network::fully_formed() const {
  for (const auto& [id, node] : nodes_) {
    if (node->is_root()) continue;
    if (!node->rpl().joined() || !node->mac().associated()) return false;
  }
  return true;
}

}  // namespace gttsch
