// One-call LP solving facade over presolve + standard form + dual simplex.
//
// For mixed-integer models use gmm::ilp::solve_mip, which drives the same
// engine through branch & bound.  solve_lp() relaxes integrality.
#pragma once

#include <vector>

#include "lp/model.hpp"
#include "lp/simplex.hpp"
#include "lp/types.hpp"

namespace gmm::lp {

struct LpOptions {
  SimplexOptions simplex;
  bool use_presolve = true;
};

struct LpResult {
  SolveStatus status = SolveStatus::kNumericalFailure;
  double objective = 0.0;
  std::vector<double> x;  // original variable space
  SimplexStats stats;
};

/// Solve the LP relaxation of `model` (integrality ignored).
LpResult solve_lp(const Model& model, const LpOptions& options = {});

}  // namespace gmm::lp
