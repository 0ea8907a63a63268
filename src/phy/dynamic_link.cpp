#include "phy/dynamic_link.hpp"

#include <algorithm>
#include <iterator>
#include <limits>

#include "util/check.hpp"

namespace gttsch {

namespace {

std::uint32_t pair_key(NodeId tx, NodeId rx) {
  return (static_cast<std::uint32_t>(tx) << 16) | rx;
}

/// First entry activating strictly after `t`.
template <typename Entry>
typename std::vector<Entry>::const_iterator first_after(const std::vector<Entry>& entries,
                                                        TimeUs t) {
  return std::upper_bound(entries.begin(), entries.end(), t,
                          [](TimeUs time, const Entry& e) { return time < e.at; });
}

/// Inserts after every entry with at <= entry.at: the list stays sorted by
/// time and equal times keep registration order.
template <typename Entry>
void insert_by_time(std::vector<Entry>& entries, const Entry& entry) {
  entries.insert(first_after(entries, entry.at), entry);
}

/// The entry in force at `now`: the last one with at <= now, if any.
template <typename Entry>
const Entry* latest_at_or_before(const std::vector<Entry>& entries, TimeUs now) {
  const auto it = first_after(entries, now);
  return it == entries.begin() ? nullptr : &*std::prev(it);
}

}  // namespace

DynamicLinkModel::DynamicLinkModel(const Simulator& sim, std::unique_ptr<LinkModel> base)
    : sim_(sim), base_(std::move(base)) {
  GTTSCH_CHECK(base_ != nullptr);
}

void DynamicLinkModel::override_prr(TimeUs at, NodeId tx, NodeId rx, double prr,
                                    bool symmetric) {
  GTTSCH_CHECK(prr >= 0.0 && prr <= 1.0);
  add_override(at, tx, rx, prr);
  if (symmetric) add_override(at, rx, tx, prr);
  if (prr > 0.0) has_positive_override_ = true;
}

void DynamicLinkModel::clear_override(TimeUs at, NodeId tx, NodeId rx) {
  // prr < 0 is the "defer to base" sentinel; it supersedes earlier
  // overrides for the pair just like any later override would.
  add_override(at, tx, rx, -1.0);
  add_override(at, rx, tx, -1.0);
}

void DynamicLinkModel::kill_node(TimeUs at, NodeId id) {
  add_life_event(at, id, /*dead=*/true);
}

void DynamicLinkModel::revive_node(TimeUs at, NodeId id) {
  add_life_event(at, id, /*dead=*/false);
}

void DynamicLinkModel::add_override(TimeUs at, NodeId tx, NodeId rx, double prr) {
  insert_by_time(overrides_[pair_key(tx, rx)], OverrideEntry{at, prr});
  pending_.push(Activation{at, tx, rx});
}

void DynamicLinkModel::add_life_event(TimeUs at, NodeId id, bool dead) {
  if (id >= life_.size()) life_.resize(static_cast<std::size_t>(id) + 1);
  insert_by_time(life_[id], LifeEntry{at, dead});
  pending_.push(Activation{at, id, id});
}

const DynamicLinkModel::OverrideEntry* DynamicLinkModel::current_override(
    NodeId tx, NodeId rx) const {
  if (overrides_.empty()) return nullptr;
  const auto it = overrides_.find(pair_key(tx, rx));
  return it == overrides_.end() ? nullptr : latest_at_or_before(it->second, sim_.now());
}

bool DynamicLinkModel::node_dead(NodeId id) const {
  if (id >= life_.size()) return false;
  const LifeEntry* latest = latest_at_or_before(life_[id], sim_.now());
  return latest != nullptr && latest->dead;
}

std::uint64_t DynamicLinkModel::version() const {
  // Each activation moves from the heap to the log exactly once, keeping
  // activation_log_.size() == the number of entries with at <= now.
  const TimeUs now = sim_.now();
  while (!pending_.empty() && pending_.top().at <= now) {
    activation_log_.emplace_back(pending_.top().a, pending_.top().b);
    pending_.pop();
  }
  return base_->version() + activation_log_.size();
}

double DynamicLinkModel::max_interaction_range() const {
  if (has_positive_override_) return std::numeric_limits<double>::infinity();
  return base_->max_interaction_range();
}

bool DynamicLinkModel::changed_nodes_since(std::uint64_t since,
                                           std::vector<NodeId>& out) const {
  if (base_->version() != 0) return false;  // cannot attribute base changes
  (void)version();                          // bring the activation log up to date
  if (since > activation_log_.size()) return false;  // foreign version value
  for (std::size_t i = static_cast<std::size_t>(since); i < activation_log_.size(); ++i) {
    out.push_back(activation_log_[i].first);
    out.push_back(activation_log_[i].second);
  }
  return true;
}

double DynamicLinkModel::prr(NodeId tx, const Position& tx_pos, NodeId rx,
                             const Position& rx_pos) const {
  if (node_dead(tx) || node_dead(rx)) return 0.0;
  if (const OverrideEntry* o = current_override(tx, rx)) {
    if (o->prr >= 0.0) return o->prr;  // cleared entries defer to base
  }
  return base_->prr(tx, tx_pos, rx, rx_pos);
}

bool DynamicLinkModel::interferes(NodeId tx, const Position& tx_pos, NodeId rx,
                                  const Position& rx_pos) const {
  if (node_dead(tx)) return false;  // a dead radio emits nothing
  // PRR overrides model fading on the communication link; interference
  // reach follows the base geometry unless the link is fully dead.
  if (const OverrideEntry* o = current_override(tx, rx)) {
    if (o->prr == 0.0) return false;
  }
  return base_->interferes(tx, tx_pos, rx, rx_pos);
}

}  // namespace gttsch
