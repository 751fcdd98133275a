// Legality checking and certification of a detailed mapping.
//
// validate_mapping is used by tests (the global->detailed
// success-guarantee property) and by certify_mapping, the check every
// answer passes before it is served: mapping::solve runs it on each fresh
// outcome and the solution cache on each replay.  Checks, per violation
// string returned:
//   * every structure's fragments exactly cover depth x width data bits,
//   * fragments sit on existing instances of the assigned type,
//   * per instance: port demand within P_t, port ranges disjoint,
//   * blocks are power-of-two sized, aligned, inside the capacity,
//   * two blocks on an instance either coincide exactly (a shared block
//     between non-conflicting structures) or do not overlap at all,
//   * a port range carries exactly one configuration.
#pragma once

#include <string>
#include <vector>

#include "arch/board.hpp"
#include "design/design.hpp"
#include "mapping/cost_model.hpp"
#include "mapping/types.hpp"

namespace gmm::mapping {

/// Empty result means the mapping is legal.
std::vector<std::string> validate_mapping(const design::Design& design,
                                          const arch::Board& board,
                                          const GlobalAssignment& assignment,
                                          const DetailedMapping& mapping);

struct Certificate {
  std::vector<std::string> problems;  // violations or objective mismatch
  double objective = 0.0;  // the recompute, when the mapping is legal

  [[nodiscard]] bool ok() const { return problems.empty(); }
};

/// Certify an answer: the mapping is legal (validate_mapping) and
/// `assignment.objective` equals CostTable::assignment_objective plus
/// `stitch_cost` (a sharded mapping's inter-device transfer term) within
/// 1e-6 relative.  The recompute prices only the n assigned (d, type_of[d])
/// plans, and `objective` is bit-identical to the table's value.
[[nodiscard]] Certificate certify_mapping(const design::Design& design,
                                          const arch::Board& board,
                                          const GlobalAssignment& assignment,
                                          const DetailedMapping& mapping,
                                          double stitch_cost = 0.0,
                                          const CostWeights& weights = {});

}  // namespace gmm::mapping
