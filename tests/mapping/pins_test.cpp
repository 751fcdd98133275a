// Pin and migration-penalty wall over the paper's Table-3 workloads.
//
// A near miss (remap.hpp) freezes structures onto their prior type and
// charges a penalty for moving the rest.  Both must leave the optimum
// alone when the prior IS the optimum, asserted with EXACT equality
// (EXPECT_EQ on doubles) under the same sub-integer-gap options as
// mip_determinism_test, on every tractable Table-3 point:
//
//   * pinning every other structure at its optimal type keeps the cold
//     optimum, and every pinned structure stays where it was pinned;
//   * a migration penalty around the optimal prior keeps the optimal
//     assignment, and the reported objective is the pure mapping cost.
#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "mapping/cost_model.hpp"
#include "mapping/global_mapper.hpp"
#include "workload/table3_suite.hpp"

namespace gmm::mapping {
namespace {

using lp::SolveStatus;

GlobalOptions exact_options(int threads) {
  GlobalOptions options;
  options.mip.num_threads = threads;
  options.mip.rel_gap = 0.0;
  // Exact for the integer-valued mapping objectives (see
  // mip_determinism_test): nothing optimal is ever pruned, without
  // enumerating the whole co-optimal plateau.
  options.mip.abs_gap = 0.5;
  return options;
}

class Table3Pins : public ::testing::TestWithParam<int> {};

TEST_P(Table3Pins, PinningAtTheOptimumPreservesItExactly) {
  const workload::Table3Point& point =
      workload::table3_points()[static_cast<std::size_t>(GetParam())];
  const workload::Table3Instance instance = workload::build_instance(point);
  const CostTable table(instance.design, instance.board);

  const GlobalResult cold = map_global(
      instance.design, instance.board, table, exact_options(1));
  ASSERT_EQ(cold.status, SolveStatus::kOptimal) << "point " << point.index;

  // Pin every other structure onto its optimal type: the remaining free
  // delta must still find the global optimum (it contains it).
  GlobalOptions options = exact_options(1);
  options.prior_type_of = cold.assignment.type_of;
  for (std::size_t d = 0; d < instance.design.size(); d += 2) {
    options.pinned_structures.push_back(d);
  }
  const GlobalResult pinned = map_global(
      instance.design, instance.board, table, options);
  ASSERT_EQ(pinned.status, SolveStatus::kOptimal) << "point " << point.index;
  EXPECT_EQ(pinned.assignment.objective, cold.assignment.objective)
      << "point " << point.index;
  for (const std::size_t d : options.pinned_structures) {
    EXPECT_EQ(pinned.assignment.type_of[d], cold.assignment.type_of[d])
        << "point " << point.index << ", structure " << d;
  }
}

TEST_P(Table3Pins, MigrationPenaltyReportsThePureObjective) {
  const workload::Table3Point& point =
      workload::table3_points()[static_cast<std::size_t>(GetParam())];
  const workload::Table3Instance instance = workload::build_instance(point);
  const CostTable table(instance.design, instance.board);

  const GlobalResult cold = map_global(
      instance.design, instance.board, table, exact_options(1));
  ASSERT_EQ(cold.status, SolveStatus::kOptimal) << "point " << point.index;

  // Prior at the optimum with a migration term: staying put costs
  // nothing, so the penalized solve keeps the optimal assignment and the
  // REPORTED objective (recomputed pure) equals the cold optimum.
  GlobalOptions options = exact_options(1);
  options.prior_type_of = cold.assignment.type_of;
  options.migration_penalty = 0.25;
  const GlobalResult penalized = map_global(
      instance.design, instance.board, table, options);
  ASSERT_EQ(penalized.status, SolveStatus::kOptimal)
      << "point " << point.index;
  EXPECT_EQ(penalized.assignment.objective, cold.assignment.objective)
      << "point " << point.index;
  ASSERT_TRUE(penalized.assignment.complete());
  EXPECT_EQ(table.assignment_objective(penalized.assignment.type_of),
            penalized.assignment.objective)
      << "point " << point.index;
}

// The same tractable Table-3 points as mip_determinism_test (index 5 —
// the paper's deeply symmetric point 6 — takes tens of seconds to prove
// exactly and is covered by the benches instead).
INSTANTIATE_TEST_SUITE_P(TractablePoints, Table3Pins,
                         ::testing::Values(0, 1, 2, 3, 4, 6, 7, 8));

}  // namespace
}  // namespace gmm::mapping
