// Link-quality models: map a (sender, receiver) pair to a packet reception
// ratio, and decide whether a sender's signal can interfere at a receiver.
#pragma once

#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "phy/geometry.hpp"
#include "util/types.hpp"

namespace gttsch {

/// Abstract link model. PRR is per-frame reception probability on a clean
/// channel; interference reach is typically >= communication reach.
class LinkModel {
 public:
  virtual ~LinkModel() = default;

  /// Probability that a frame from `tx` at `tx_pos` is decodable by `rx` at
  /// `rx_pos` absent interference, in [0,1].
  virtual double prr(NodeId tx, const Position& tx_pos, NodeId rx,
                     const Position& rx_pos) const = 0;

  /// True if energy from `tx` is strong enough at `rx` to corrupt a
  /// concurrent reception (even if not decodable).
  virtual bool interferes(NodeId tx, const Position& tx_pos, NodeId rx,
                          const Position& rx_pos) const = 0;

  /// Monotone change counter: must return a new (larger) value whenever
  /// prr()/interferes() may answer differently than before for identical
  /// positions. Purely geometric models are constant (0); mutable or
  /// time-varying models bump it so the Medium's pairwise link cache can
  /// invalidate itself.
  virtual std::uint64_t version() const { return 0; }

  /// Spatial locality bound: two nodes farther apart than this can neither
  /// communicate (prr() == 0) nor interfere (interferes() == false),
  /// whatever their ids. The Medium sizes its uniform-grid spatial index
  /// from it, so per-node cache refreshes touch only the grid
  /// neighborhood. Models without a geometric bound return infinity (the
  /// grid then degenerates to all-pairs per refreshed node — still never
  /// O(n^2) per move). The bound must hold for the model's *current*
  /// answers at all times; a model whose bound grows must bump version()
  /// no later than the first answer exceeding the old bound (the Medium
  /// re-reads the bound whenever version() moves).
  virtual double max_interaction_range() const;

  /// Appends the ids of every node whose links may answer differently now
  /// than they did at version `since` (a value previously returned by
  /// version()). Returns true when the list is exhaustive — the caller may
  /// then refresh only those rows/columns of a link cache; false when the
  /// model cannot attribute the change (full rebuild required). The
  /// default attributes nothing.
  virtual bool changed_nodes_since(std::uint64_t since, std::vector<NodeId>& out) const;
};

/// Cooja-UDGM-style disk: PRR = `prr_in_range` within `range`, zero outside;
/// interference extends to `range * interference_factor`.
class UnitDiskModel final : public LinkModel {
 public:
  UnitDiskModel(double range, double prr_in_range = 1.0, double interference_factor = 1.5);

  double prr(NodeId, const Position& a, NodeId, const Position& b) const override;
  bool interferes(NodeId, const Position& a, NodeId, const Position& b) const override;
  double max_interaction_range() const override;

  double range() const { return range_; }

 private:
  double range_;
  double prr_in_range_;
  double interference_range_;
};

/// Explicit per-link PRR table; anything not listed has PRR 0. Interference
/// follows connectivity (links with PRR > 0 interfere). Unit tests and
/// environment_monitoring build their links from it.
class MatrixLinkModel final : public LinkModel {
 public:
  void set(NodeId tx, NodeId rx, double prr, bool symmetric = true);

  double prr(NodeId tx, const Position&, NodeId rx, const Position&) const override;
  bool interferes(NodeId tx, const Position&, NodeId rx, const Position&) const override;
  std::uint64_t version() const override { return version_; }
  bool changed_nodes_since(std::uint64_t since, std::vector<NodeId>& out) const override;

 private:
  std::map<std::pair<NodeId, NodeId>, double> prr_;
  std::uint64_t version_ = 0;  ///< bumped on every set()
  /// One entry per version bump: the pair that mutation touched
  /// (change_log_[v] caused version v -> v+1), behind changed_nodes_since.
  std::vector<std::pair<NodeId, NodeId>> change_log_;
};

}  // namespace gttsch
