// Time-varying link quality: wraps a base model with scheduled per-link
// PRR overrides and node liveness events. Used for the paper's core
// motivation — "changes of the wireless link quality" — in tests,
// examples, and fault-injection scenarios (an override of 0 at time T
// models a link dying; kill/revive model a node crash-rebooting).
#pragma once

#include <cstdint>
#include <memory>
#include <queue>
#include <unordered_map>
#include <utility>
#include <vector>

#include "phy/link_model.hpp"
#include "sim/simulator.hpp"

namespace gttsch {

/// Every entry is indexed when it is registered: kills and revivals per
/// node id, overrides and clears per directed (tx, rx) pair, each list
/// sorted by activation time. What holds for a node or pair at time T is
/// its latest entry with at <= T; among entries with equal `at` the later
/// registration wins (trace order). An entry registered after its
/// activation time counts from then on. prr()/interferes() therefore cost
/// O(1) for a node or pair without entries and O(log k) for one with k
/// entries, whatever the total number registered.
class DynamicLinkModel final : public LinkModel {
 public:
  DynamicLinkModel(const Simulator& sim, std::unique_ptr<LinkModel> base);

  /// From `at` onward, the (tx -> rx) link has the given PRR (and, if
  /// symmetric, the reverse one too). Later overrides supersede earlier
  /// ones; links without overrides follow the base model.
  void override_prr(TimeUs at, NodeId tx, NodeId rx, double prr, bool symmetric = true);

  /// From `at` onward, the (tx <-> rx) pair reverts to the base model in
  /// both directions, superseding any earlier override (the end of a
  /// scripted link episode).
  void clear_override(TimeUs at, NodeId tx, NodeId rx);

  /// From `at` onward, node `id` is silent in both directions (radio dead
  /// at the medium level): PRR 0 and no interference from it.
  void kill_node(TimeUs at, NodeId id);

  /// From `at` onward, node `id` participates again (undoes the latest
  /// kill).
  void revive_node(TimeUs at, NodeId id);

  double prr(NodeId tx, const Position& tx_pos, NodeId rx,
             const Position& rx_pos) const override;
  bool interferes(NodeId tx, const Position& tx_pos, NodeId rx,
                  const Position& rx_pos) const override;

  /// Base version + the number of overrides/clears/kills/revivals whose
  /// activation time has passed: activations never revert and inserting
  /// an already-active entry raises the count too, so this is monotone
  /// and changes exactly when the effective link table can change.
  /// O(1) while no activation is due and O(log n) per activation: pending
  /// activations wait in a min-heap on their time — version() sits on the
  /// medium's per-frame cache-validity check.
  std::uint64_t version() const override;

  /// Base bound while every registered override only removes links
  /// (prr 0 — kills, link-downs) or restores base behavior (clears,
  /// revivals); infinity once a positive override is registered, since it
  /// may connect a pair beyond the base geometry. Pre-activation the base
  /// bound still holds for current answers, and the activation bumps
  /// version() — satisfying the LinkModel contract.
  double max_interaction_range() const override;

  /// Exhaustive when the base model is static (version 0): the activation
  /// log maps every version step to the pair of nodes it touched (kills
  /// and revivals log as (id, id)). A mutable base cannot be attributed
  /// -> full-rebuild answer (false).
  bool changed_nodes_since(std::uint64_t since, std::vector<NodeId>& out) const override;

  const LinkModel& base() const { return *base_; }

 private:
  /// One override of a directed pair; prr < 0 = cleared: defer to the base.
  struct OverrideEntry {
    TimeUs at;
    double prr;
  };
  /// One kill (dead) or revival (!dead) of a node.
  struct LifeEntry {
    TimeUs at;
    bool dead;
  };
  /// A registered entry not yet seen active by version(), and the node
  /// pair it touches (kills and revivals touch (id, id)).
  struct Activation {
    TimeUs at;
    NodeId a;
    NodeId b;
  };
  struct LaterActivation {
    bool operator()(const Activation& x, const Activation& y) const {
      return x.at > y.at;
    }
  };

  void add_override(TimeUs at, NodeId tx, NodeId rx, double prr);
  void add_life_event(TimeUs at, NodeId id, bool dead);
  /// Latest override or clear of (tx, rx) active now, if any.
  const OverrideEntry* current_override(NodeId tx, NodeId rx) const;
  bool node_dead(NodeId id) const;

  const Simulator& sim_;
  std::unique_ptr<LinkModel> base_;
  /// Keyed by (tx << 16) | rx; each list sorted as the class comment says.
  std::unordered_map<std::uint32_t, std::vector<OverrideEntry>> overrides_;
  /// Indexed by node id; each list sorted as the class comment says.
  std::vector<std::vector<LifeEntry>> life_;
  bool has_positive_override_ = false;  ///< any registered prr > 0 override
  mutable std::priority_queue<Activation, std::vector<Activation>, LaterActivation>
      pending_;
  /// Append-only: the node pair behind each activation, in the order
  /// version() observed them (activation_log_.size() == active count).
  /// With a static base this makes version v <-> log prefix of length v.
  mutable std::vector<std::pair<NodeId, NodeId>> activation_log_;
};

}  // namespace gttsch
