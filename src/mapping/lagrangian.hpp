// Lagrangian knapsack bound for the global formulation, installed by
// map_global as the MIP solver's relaxation (ilp::MipOptions::
// relaxation_bound).
//
// The global model is a generalized assignment problem.  Dualizing the
// uniqueness rows sum_t Z_dt = 1 with multipliers lambda_d leaves
//
//   L(lambda) = sum_d lambda_d
//             + sum_t min { sum_d (c_dt - lambda_d) Z_dt : ports of t }
//
// which splits into one 0-1 knapsack per bank type (and disjoint conflict
// group) over integer port counts, solved exactly by dynamic programming.
// L(lambda) is a lower bound for every lambda.  Subgradient steps raise
// it, starting from the root LP's uniqueness-row duals, so it starts at
// about the LP bound; each knapsack solution is handed to the greedy
// budget repair, and the repaired assignments are offered as incumbents.
// At the best multipliers, prefix/suffix DP tables give every pair's
// knapsack value with Z_dt forced in or forced out in O(ports) each; a
// pair whose forced value reaches the solver's prune threshold is fixed
// the other way.  When every type of some structure is fixed out, no
// solution beats the incumbent by more than the gap: the bound is +inf.
//
// Validity contract: the relaxation only drops rows, never tightens one.
// It drops the capacity (bit) rows, the no-good retry cuts and the root
// cut loop's cuts.  With several conflict cliques each structure keeps
// the port row of the first clique containing it only (with nonnegative
// weights a sub-sum of a <= row is implied by the row), and a port budget
// above kMaxKnapsackCapacity is scaled down with weights and budget
// rounded down, which again only relaxes.  Bounds are honored exactly:
// pairs fixed at 0 leave their knapsack, pairs fixed at 1 (pins) are
// forced in and the structure's other pairs out.  Costs are the model's
// objective coefficients, so migration penalties are included.
//
// The object is immutable after construction and every call keeps its
// state on the stack, so concurrent solves never share anything.
#pragma once

#include <cstdint>
#include <vector>

#include "arch/board.hpp"
#include "design/design.hpp"
#include "ilp/mip_solver.hpp"
#include "lp/model.hpp"
#include "mapping/cost_model.hpp"

namespace gmm::mapping {

/// Port budgets above this are scaled down before the DP (see above).
inline constexpr std::int64_t kMaxKnapsackCapacity = 256;

class LagrangianBound {
 public:
  /// `z[d][t]` is the variable of pair (d, t) (kInvalidIndex when the pair
  /// is infeasible), `uniqueness_rows[d]` the row sum_t Z_dt = 1 and
  /// `cliques` the conflict cliques whose port rows the model carries.
  /// Every reference must outlive the object.
  LagrangianBound(const design::Design& design, const arch::Board& board,
                  const CostTable& table, const lp::Model& model,
                  const std::vector<std::vector<lp::Index>>& z,
                  const std::vector<std::vector<std::size_t>>& cliques,
                  std::vector<lp::Index> uniqueness_rows);

  [[nodiscard]] ilp::RelaxationResult operator()(
      const ilp::RelaxationQuery& query) const;

 private:
  friend class LagrangianCall;  // one call's state (lagrangian.cpp)

  /// One (d, t) pair of a knapsack.
  struct Item {
    std::size_t d = 0;
    lp::Index var = lp::kInvalidIndex;
    double cost = 0.0;        // model objective coefficient of Z_dt
    std::int64_t weight = 0;  // ports, scaled with the knapsack
  };
  /// The pairs of one bank type within one conflict group.
  struct Knapsack {
    std::int64_t capacity = 0;
    std::vector<Item> items;
  };

  const design::Design& design_;
  const arch::Board& board_;
  const CostTable& table_;
  const std::vector<std::vector<lp::Index>>& z_;
  std::vector<lp::Index> uniqueness_rows_;
  lp::Index num_vars_ = 0;
  std::vector<Knapsack> knapsacks_;
};

}  // namespace gmm::mapping
