// Presolve: cheap model reductions applied before the simplex / B&B.
//
// Implemented reductions (iterated to a fixpoint):
//   * integer bound rounding (lb = ceil(lb), ub = floor(ub)),
//   * infeasibility detection from crossed bounds or row activity ranges,
//   * redundant-row elimination (activity range inside the row bounds),
//   * singleton rows folded into variable bounds,
//   * forcing rows (the minimum activity reaches the upper bound, or the
//     maximum the lower one): each variable is fixed at the bound that
//     gives that activity and the row is dropped,
//   * fixed variables substituted into row bounds and the objective.
//
// The reduced model keeps the surviving variables in original order;
// postsolve() re-inflates a reduced solution to the original index space.
#pragma once

#include <vector>

#include "lp/model.hpp"
#include "lp/types.hpp"

namespace gmm::lp {

struct PresolveResult {
  bool infeasible = false;
  Model reduced;
  /// Original variable -> reduced index, or kInvalidIndex when eliminated.
  std::vector<Index> var_map;
  /// Value of each eliminated (fixed) variable.
  std::vector<double> fixed_value;
  /// Original row -> reduced row, or kInvalidIndex when removed.
  std::vector<Index> row_map;
  /// Objective contribution of the eliminated variables.
  double objective_offset = 0.0;
  /// Reduction counters for logging / the solver-ablation bench.
  int rows_removed = 0;
  int vars_fixed = 0;
};

PresolveResult presolve(const Model& model);

/// Expand a solution of `result.reduced` to the original variable space.
std::vector<double> postsolve(const PresolveResult& result,
                              const std::vector<double>& reduced_x);

}  // namespace gmm::lp
