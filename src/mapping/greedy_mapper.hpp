// Greedy baseline mapper (not from the paper; quality yardstick).
//
// Structures sorted by decreasing storage footprint are assigned, one at
// a time, to the cheapest bank type whose remaining aggregate port and
// capacity budgets still admit them.  Orders of magnitude faster than any
// ILP, but blind to global trade-offs: the sim-quality and quality-parity
// benches quantify how much objective the ILP approaches buy over it.
#pragma once

#include "arch/board.hpp"
#include "design/design.hpp"
#include "mapping/cost_model.hpp"
#include "mapping/types.hpp"

namespace gmm::mapping {

struct GreedyResult {
  bool success = false;
  std::string failure;
  bool used_fallback = false;  // headroom fallback rescued a stuck run
  GlobalAssignment assignment;
  double seconds = 0.0;
};

GreedyResult map_greedy(const design::Design& design,
                        const arch::Board& board, const CostTable& table);

/// Feasibility-first construction: assign structures largest-first to the
/// feasible type with the most remaining port headroom, ignoring cost.
/// Used as map_greedy's fallback and as the ILP mappers' last-resort
/// incumbent source.  Returns an empty vector when even this fails.
std::vector<int> headroom_assignment(const design::Design& design,
                                     const arch::Board& board,
                                     const CostTable& table);

/// Budget repair of a type-per-structure assignment that may overrun the
/// all-conflicting port or bit budget of some type: repeatedly move the
/// structure whose migration off the first over-budget type costs least
/// (CostTable cost delta) to a type with room left, at most
/// 4 * design.size() moves.  Moves target only feasible pairs that
/// `allowed` (d * num_types + t, null = every feasible pair) admits.  When
/// no move is left the construction falls back to headroom_assignment,
/// which ignores `allowed`.  False when that fails too; otherwise the
/// result may still overrun a budget if the move limit ran out (callers
/// validate it).  The global mapper's primal heuristic and its Lagrangian
/// bound both repair through this.
bool repair_assignment(const design::Design& design, const arch::Board& board,
                       const CostTable& table, std::vector<int>& assign,
                       const std::vector<char>* allowed = nullptr);

}  // namespace gmm::mapping
