// MIP-start exactness wall over the paper's Table-3 workloads.
//
// A warm incumbent handed to the branch & bound (GlobalOptions'
// warm_assignment -> MipOptions' mip_start) may only ever change how FAST
// the search proves its optimum, never WHICH optimum it proves: the
// search prunes exclusively on proven bounds, so a feasible start — even
// a poor one — tightens pruning without excluding any optimal solution.
// This is asserted with EXACT equality (EXPECT_EQ on doubles) under the
// same sub-integer-gap options as mip_determinism_test, crossed over
// threads {1, 4} and every tractable Table-3 point, for three start
// qualities:
//
//   * the OPTIMAL assignment itself (a replayed cache entry),
//   * a SUBOPTIMAL feasible assignment (the headroom construction —
//     what a stale cache entry amounts to),
//   * a GARBAGE start (rejected by incumbent validation; solve must
//     behave exactly like a cold run).
//
// Pinning (pinned_structures) by contrast DOES constrain the model; the
// last tests assert pins are honored and that pinning structures AT
// their optimal assignment preserves the optimum exactly.
#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "ilp/mip_solver.hpp"
#include "mapping/cost_model.hpp"
#include "mapping/global_mapper.hpp"
#include "mapping/greedy_mapper.hpp"
#include "workload/table3_suite.hpp"

namespace gmm::ilp {
namespace {

using lp::SolveStatus;

mapping::GlobalOptions exact_options(int threads) {
  mapping::GlobalOptions options;
  options.mip.num_threads = threads;
  options.mip.rel_gap = 0.0;
  // Exact for the integer-valued mapping objectives (see
  // mip_determinism_test): nothing optimal is ever pruned, without
  // enumerating the whole co-optimal plateau.
  options.mip.abs_gap = 0.5;
  return options;
}

class Table3MipStart : public ::testing::TestWithParam<int> {};

TEST_P(Table3MipStart, FeasibleStartNeverChangesTheProvedOptimum) {
  const workload::Table3Point& point =
      workload::table3_points()[static_cast<std::size_t>(GetParam())];
  const workload::Table3Instance instance = workload::build_instance(point);
  const mapping::CostTable table(instance.design, instance.board);

  const mapping::GlobalResult cold = mapping::map_global(
      instance.design, instance.board, table, exact_options(1));
  ASSERT_EQ(cold.status, SolveStatus::kOptimal) << "point " << point.index;
  ASSERT_TRUE(cold.assignment.complete());

  // A suboptimal-but-feasible start from the greedy baseline — what a
  // stale cache entry amounts to.  Greedy construction can legitimately
  // fail where the ILP succeeds (it is blind to global trade-offs); the
  // suboptimal-start case is skipped on those points.
  const mapping::GreedyResult greedy =
      mapping::map_greedy(instance.design, instance.board, table);

  for (const int threads : {1, 4}) {
    // Optimal start — the exact-hit replay scenario.
    {
      mapping::GlobalOptions options = exact_options(threads);
      options.warm_assignment = cold.assignment.type_of;
      const mapping::GlobalResult warm = mapping::map_global(
          instance.design, instance.board, table, options);
      ASSERT_EQ(warm.status, SolveStatus::kOptimal)
          << "point " << point.index << ", " << threads << " threads";
      EXPECT_TRUE(warm.mip.mip_start_used)
          << "point " << point.index << ", " << threads << " threads";
      EXPECT_EQ(warm.assignment.objective, cold.assignment.objective)
          << "point " << point.index << ", " << threads << " threads";
    }
    // Suboptimal feasible start — a stale prior must not cap quality.
    if (greedy.success) {
      mapping::GlobalOptions options = exact_options(threads);
      options.warm_assignment = greedy.assignment.type_of;
      const mapping::GlobalResult warm = mapping::map_global(
          instance.design, instance.board, table, options);
      ASSERT_EQ(warm.status, SolveStatus::kOptimal)
          << "point " << point.index << ", " << threads << " threads";
      EXPECT_TRUE(warm.mip.mip_start_used)
          << "point " << point.index << ", " << threads << " threads";
      EXPECT_EQ(warm.assignment.objective, cold.assignment.objective)
          << "point " << point.index << ", " << threads << " threads";
      ASSERT_TRUE(warm.assignment.complete());
      EXPECT_EQ(table.assignment_objective(warm.assignment.type_of),
                cold.assignment.objective)
          << "point " << point.index << ", " << threads << " threads";
    }
    // Garbage start (every entry -1): voided before the solve, which
    // must then behave exactly like a cold run.
    {
      mapping::GlobalOptions options = exact_options(threads);
      options.warm_assignment.assign(instance.design.size(), -1);
      const mapping::GlobalResult warm = mapping::map_global(
          instance.design, instance.board, table, options);
      ASSERT_EQ(warm.status, SolveStatus::kOptimal)
          << "point " << point.index << ", " << threads << " threads";
      EXPECT_FALSE(warm.mip.mip_start_used)
          << "point " << point.index << ", " << threads << " threads";
      EXPECT_EQ(warm.assignment.objective, cold.assignment.objective)
          << "point " << point.index << ", " << threads << " threads";
    }
  }
}

TEST_P(Table3MipStart, PinningAtTheOptimumPreservesItExactly) {
  const workload::Table3Point& point =
      workload::table3_points()[static_cast<std::size_t>(GetParam())];
  const workload::Table3Instance instance = workload::build_instance(point);
  const mapping::CostTable table(instance.design, instance.board);

  const mapping::GlobalResult cold = mapping::map_global(
      instance.design, instance.board, table, exact_options(1));
  ASSERT_EQ(cold.status, SolveStatus::kOptimal) << "point " << point.index;

  // Pin every other structure onto its optimal type: the remaining free
  // delta must still find the global optimum (it contains it).
  mapping::GlobalOptions options = exact_options(1);
  options.warm_assignment = cold.assignment.type_of;
  for (std::size_t d = 0; d < instance.design.size(); d += 2) {
    options.pinned_structures.push_back(d);
  }
  const mapping::GlobalResult pinned = mapping::map_global(
      instance.design, instance.board, table, options);
  ASSERT_EQ(pinned.status, SolveStatus::kOptimal) << "point " << point.index;
  EXPECT_EQ(pinned.assignment.objective, cold.assignment.objective)
      << "point " << point.index;
  for (const std::size_t d : options.pinned_structures) {
    EXPECT_EQ(pinned.assignment.type_of[d], cold.assignment.type_of[d])
        << "point " << point.index << ", structure " << d;
  }
}

TEST_P(Table3MipStart, MigrationPenaltyReportsThePureObjective) {
  const workload::Table3Point& point =
      workload::table3_points()[static_cast<std::size_t>(GetParam())];
  const workload::Table3Instance instance = workload::build_instance(point);
  const mapping::CostTable table(instance.design, instance.board);

  const mapping::GlobalResult cold = mapping::map_global(
      instance.design, instance.board, table, exact_options(1));
  ASSERT_EQ(cold.status, SolveStatus::kOptimal) << "point " << point.index;

  // Warm at the optimum with a migration term: staying put costs
  // nothing, so the penalized solve keeps the optimal assignment and the
  // REPORTED objective (recomputed pure) equals the cold optimum.
  mapping::GlobalOptions options = exact_options(1);
  options.warm_assignment = cold.assignment.type_of;
  options.migration_penalty = 0.25;
  const mapping::GlobalResult warm = mapping::map_global(
      instance.design, instance.board, table, options);
  ASSERT_EQ(warm.status, SolveStatus::kOptimal) << "point " << point.index;
  EXPECT_EQ(warm.assignment.objective, cold.assignment.objective)
      << "point " << point.index;
  ASSERT_TRUE(warm.assignment.complete());
  EXPECT_EQ(table.assignment_objective(warm.assignment.type_of),
            warm.assignment.objective)
      << "point " << point.index;
}

// The same tractable Table-3 points as mip_determinism_test (index 5 —
// the paper's deeply symmetric point 6 — takes tens of seconds to prove
// exactly and is covered by the benches instead).
INSTANTIATE_TEST_SUITE_P(TractablePoints, Table3MipStart,
                         ::testing::Values(0, 1, 2, 3, 4, 6, 7, 8));

// A model that presolve decides outright (here one forcing row fixes every
// variable) never reaches the search, but its start is still offered and
// reported: a near miss whose pins leave nothing to choose must say that
// its prior assignment was used.
TEST(MipStartPresolved, StartIsReportedWhenPresolveDecidesTheModel) {
  lp::Model model;
  const lp::Index x = model.add_binary(1.0);
  const lp::Index y = model.add_binary(2.0);
  lp::LinExpr both;
  both.add(x, 1.0);
  both.add(y, 1.0);
  model.add_constraint(both, lp::Sense::kGreaterEqual, 2.0);

  MipOptions options;
  options.mip_start = {1.0, 1.0};
  const MipResult used = solve_mip(model, options);
  EXPECT_EQ(used.status, SolveStatus::kOptimal);
  EXPECT_TRUE(used.mip_start_used);
  EXPECT_EQ(used.nodes, 0);
  EXPECT_DOUBLE_EQ(used.objective, 3.0);

  options.mip_start = {0.0, 1.0};  // violates the row: rejected
  const MipResult rejected = solve_mip(model, options);
  EXPECT_EQ(rejected.status, SolveStatus::kOptimal);
  EXPECT_FALSE(rejected.mip_start_used);
  EXPECT_DOUBLE_EQ(rejected.objective, 3.0);
}

}  // namespace
}  // namespace gmm::ilp
