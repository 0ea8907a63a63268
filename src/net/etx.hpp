// Expected Transmission Count estimation (Eq 4 of the paper: ETX = 1/PRR),
// maintained per neighbor as an EWMA over observed transmission outcomes.
#pragma once

#include <map>

#include "util/types.hpp"

namespace gttsch {

class EtxEstimator {
 public:
  /// `alpha` is the EWMA memory (Contiki-NG uses 0.9); a failed delivery
  /// (retry budget exhausted) contributes `fail_penalty` attempts.
  explicit EtxEstimator(double alpha = 0.9, double fail_penalty = 8.0);

  /// Record the outcome of one unicast MAC transaction toward `nbr`:
  /// `attempts` transmissions, ultimately acked or not.
  void record(NodeId nbr, bool acked, int attempts);

  /// Current ETX estimate; optimistic 1.0 for unknown neighbors.
  double etx(NodeId nbr) const;

  /// Implied packet reception ratio (PRR = 1/ETX).
  double prr(NodeId nbr) const { return 1.0 / etx(nbr); }

  bool has_estimate(NodeId nbr) const { return values_.count(nbr) > 0; }
  void forget(NodeId nbr) { values_.erase(nbr); }

 private:
  double alpha_;
  double fail_penalty_;
  std::map<NodeId, double> values_;
};

}  // namespace gttsch
