// Numerical Nash-equilibrium analysis (Section VII.E, Theorems 1-2).
//
// The paper proves existence via Debreu (compact convex strategy sets,
// concave continuous payoffs) and uniqueness via Rosen (diagonal strict
// concavity). This module makes those properties *checkable*: it hosts an
// N-player instance, runs best-response dynamics, and evaluates the
// concavity conditions numerically, including the Rosen condition
// x^T (J + J^T) x < 0 on the pseudo-gradient Jacobian.
//
// Beyond the paper's decoupled formulation we also support a capacity-
// coupled variant where siblings share the parent's finite Rx budget —
// the situation the deployed protocol actually faces — and show best-
// response dynamics still converge to a unique fixed point.
#pragma once

#include <vector>

#include "core/game/solver.hpp"
#include "util/rng.hpp"

namespace gttsch::game {

struct BestResponseResult {
  std::vector<double> strategies;
  int iterations = 0;
  bool converged = false;
};

class TxAllocationGame {
 public:
  TxAllocationGame(Weights weights, std::vector<PlayerState> players);

  const Weights& weights() const { return weights_; }
  const std::vector<PlayerState>& players() const { return players_; }

  /// Best response of player i given the others' strategies. In the
  /// uncoupled paper formulation this ignores `others_total`; with
  /// `shared_capacity` >= 0 the upper bound shrinks to the unclaimed
  /// share of the parent's Rx budget.
  double best_response(std::size_t i, double others_total, double shared_capacity) const;

  /// Iterate simultaneous best responses from `initial` until the largest
  /// per-player change falls below `tol`. shared_capacity < 0 disables the
  /// coupling (the paper's formulation: strategy sets are independent).
  BestResponseResult best_response_dynamics(std::vector<double> initial,
                                            double shared_capacity = -1.0,
                                            int max_iterations = 1000,
                                            double tol = 1e-9) const;

  /// The closed-form equilibrium (every player at its Eq 15 optimum).
  std::vector<double> closed_form_equilibrium() const;

  /// Nash check: no player can improve by a unilateral deviation (sampled
  /// over `samples` points of its strategy interval).
  bool is_nash(const std::vector<double>& s, int samples = 64, double tol = 1e-7) const;

  /// Theorem 1 conditions, numerically: strategy sets non-degenerate and
  /// payoffs concave in own strategy across the strategy box.
  bool existence_conditions_hold() const;

  /// Rosen's diagonal strict concavity at point `s`: with the pseudo-
  /// gradient g(s) = [dv_i/ds_i], checks x^T (J + J^T) x < 0 for a set of
  /// random directions x (J is diagonal here, so this is exact up to the
  /// diagonal sign check, but we keep the general quadratic-form test).
  bool diagonally_strictly_concave(const std::vector<double>& s, Rng& rng,
                                   int directions = 32) const;

  /// Uniqueness probe: run best-response dynamics from `starts` random
  /// initial profiles and verify all converge to the same point.
  bool unique_equilibrium(Rng& rng, int starts = 16, double shared_capacity = -1.0,
                          double tol = 1e-6) const;

 private:
  Weights weights_;
  std::vector<PlayerState> players_;
};

}  // namespace gttsch::game
