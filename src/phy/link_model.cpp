#include "phy/link_model.hpp"

#include <algorithm>
#include <limits>

namespace gttsch {

double LinkModel::max_interaction_range() const {
  return std::numeric_limits<double>::infinity();
}

bool LinkModel::changed_nodes_since(std::uint64_t, std::vector<NodeId>&) const {
  return false;
}

UnitDiskModel::UnitDiskModel(double range, double prr_in_range, double interference_factor)
    : range_(range),
      prr_in_range_(std::clamp(prr_in_range, 0.0, 1.0)),
      interference_range_(range * interference_factor) {}

double UnitDiskModel::prr(NodeId, const Position& a, NodeId, const Position& b) const {
  return distance(a, b) <= range_ ? prr_in_range_ : 0.0;
}

bool UnitDiskModel::interferes(NodeId, const Position& a, NodeId, const Position& b) const {
  return distance(a, b) <= interference_range_;
}

double UnitDiskModel::max_interaction_range() const {
  return std::max(range_, interference_range_);
}

void MatrixLinkModel::set(NodeId tx, NodeId rx, double prr, bool symmetric) {
  prr_[{tx, rx}] = std::clamp(prr, 0.0, 1.0);
  if (symmetric) prr_[{rx, tx}] = std::clamp(prr, 0.0, 1.0);
  change_log_.emplace_back(tx, rx);
  ++version_;
}

bool MatrixLinkModel::changed_nodes_since(std::uint64_t since,
                                          std::vector<NodeId>& out) const {
  if (since > change_log_.size()) return false;  // foreign version value
  for (std::size_t i = static_cast<std::size_t>(since); i < change_log_.size(); ++i) {
    out.push_back(change_log_[i].first);
    out.push_back(change_log_[i].second);
  }
  return true;
}

double MatrixLinkModel::prr(NodeId tx, const Position&, NodeId rx, const Position&) const {
  const auto it = prr_.find({tx, rx});
  return it == prr_.end() ? 0.0 : it->second;
}

bool MatrixLinkModel::interferes(NodeId tx, const Position&, NodeId rx, const Position&) const {
  return prr(tx, {}, rx, {}) > 0.0;
}

}  // namespace gttsch
