// Global memory mapping (paper Section 4.1): the ILP over Z_dt only.
//
// Constraints:
//   * uniqueness:  sum_t Z_dt = 1 for every structure d (only feasible
//     (d, t) pairs get variables; a structure with no feasible type makes
//     the model infeasible up front);
//   * ports:       sum_d CP_dt * Z_dt <= P_t * I_t per type;
//   * capacity:    sum_{d in Q} CW_dt * CD_dt * Z_dt <= I_t * bits_t per
//     type and per maximal conflict clique Q — lifetime-disjoint
//     structures may overlap in storage, which the clique family encodes
//     exactly (one all-structures clique when everything conflicts).
//
// Objective: the CostTable's weighted latency + pin-delay + pin-I/O.
//
// Near misses (remap.hpp): a structure pinned onto its prior type gets
// that type's column alone, so its uniqueness row is the singleton
// Z_dt* = 1 and presolve fixes it before the search starts.
//
// Solving: the branch and bound separates lifted covers of the port and
// capacity knapsacks at the root, runs a greedy budget repair as primal
// heuristic at every node, and calls a Lagrangian knapsack bound
// (lagrangian.hpp) once it is still open after a few dozen nodes: the
// bound closes the search, fixes (structure, type) pairs and seeds
// incumbents.
#pragma once

#include <optional>

#include "arch/board.hpp"
#include "design/design.hpp"
#include "ilp/mip_solver.hpp"
#include "mapping/cost_model.hpp"
#include "mapping/types.hpp"

namespace gmm::mapping {

struct GlobalOptions {
  CostWeights weights;
  /// Search options; map_global installs its own primal_heuristic and
  /// relaxation_bound over whatever these hold.
  ilp::MipOptions mip;
  /// Use conflict-clique capacity constraints (overlap-aware).  When
  /// false, one conservative all-structures capacity row per type.
  bool overlap_aware_capacity = true;
  /// No-good cuts from failed detailed-mapping attempts (the pipeline's
  /// retry loop): for each entry S, add sum_{(d,t) in S} Z_dt <= |S| - 1,
  /// forbidding that exact co-assignment from recurring.
  std::vector<std::vector<std::pair<std::size_t, std::size_t>>> no_good_cuts;
  /// Prior assignment (type index per structure, -1 = unknown), such as
  /// the cached mapping of a near miss.  It only says which type a pin or
  /// the migration penalty refers to, and is ignored unless it has one
  /// entry per structure.
  std::vector<int> prior_type_of;
  /// Structures pinned to their prior type (index into the design).  A
  /// pinned structure whose prior type is in range and feasible keeps
  /// that type's column only, so the ILP proves the optimum over the
  /// unpinned delta, which is the incremental-re-solve contract; other
  /// entries are ignored.  Requires prior_type_of.
  std::vector<std::size_t> pinned_structures;
  /// Per-structure cost added to every Z_dt with t != prior_type_of[d]
  /// (0 = off).  Steers the delta re-solve toward minimal-disturbance
  /// remaps; the reported assignment objective is still the PURE mapping
  /// cost (recomputed from the cost table), so objectives stay comparable
  /// with cold solves.
  double migration_penalty = 0.0;
};

struct GlobalResult {
  lp::SolveStatus status = lp::SolveStatus::kInfeasible;
  GlobalAssignment assignment;  // valid when status is optimal/feasible
  ModelSize model_size;
  SolveEffort effort;
  ilp::MipResult mip;
};

/// The global ILP of one design on one board, as map_global solves it.
struct GlobalModel {
  lp::Model model;
  /// Z_dt per (structure, type); kInvalidIndex for infeasible pairs and
  /// for a pinned structure's other types.
  std::vector<std::vector<lp::Index>> z;
  /// The row sum_t Z_dt = 1 of each structure.
  std::vector<lp::Index> uniqueness_rows;
  /// Conflict cliques carrying one port and one capacity row per type.
  std::vector<std::vector<std::size_t>> cliques;
};

/// Build the model: variables, rows, pins, migration penalties and
/// no-good cuts from `options`.  nullopt when some structure fits no bank
/// type.
std::optional<GlobalModel> formulate_global(const design::Design& design,
                                            const arch::Board& board,
                                            const CostTable& table,
                                            const GlobalOptions& options);

/// Run global mapping.  `table` must be built from the same design/board.
GlobalResult map_global(const design::Design& design,
                        const arch::Board& board, const CostTable& table,
                        const GlobalOptions& options = {});

}  // namespace gmm::mapping
