// Search-count wall: at 1 thread with default options, each Table-3
// paper instance's solve keeps its objective, its branch-and-bound node
// count and its dual simplex pivot count exactly.
//
// The values were recorded from the commit before the engine's row-wise
// pricing, which changed how a pivot row is computed but not a single
// pivot.  An engine or search change that means to leave every pivot as
// it is must pass this wall unchanged.  A change that alters the search
// on purpose (a new cut, a different branching rule, another ratio test)
// updates the values here and says so, with the traced perfbench counts
// of both commits next to them.
#include <gtest/gtest.h>

#include <cstdint>

#include "mapping/complete_mapper.hpp"
#include "mapping/cost_model.hpp"
#include "mapping/global_mapper.hpp"
#include "workload/table3_suite.hpp"

namespace gmm::mapping {
namespace {

struct Counts {
  int point;
  double objective;
  std::int64_t nodes;
  std::int64_t pivots;
};

workload::Table3Instance paper_instance(int point) {
  return workload::build_instance(
      workload::table3_points()[static_cast<std::size_t>(point - 1)], 2001);
}

TEST(Table3SearchCounts, GlobalPaperInstancesKeepTheirCounts) {
  constexpr Counts kRecorded[] = {
      {1, 148260, 1, 40},   {2, 358933, 175, 460}, {3, 432491, 1, 61},
      {4, 415198, 3, 90},   {5, 389128, 1, 80},    {6, 470167, 75, 324},
      {7, 464466, 1, 62},   {8, 1118952, 3, 135},  {9, 1535541, 70, 336},
  };
  for (const Counts& want : kRecorded) {
    const workload::Table3Instance inst = paper_instance(want.point);
    const CostTable table(inst.design, inst.board);
    GlobalOptions options;
    options.mip.num_threads = 1;
    const GlobalResult r = map_global(inst.design, inst.board, table, options);
    ASSERT_EQ(r.status, lp::SolveStatus::kOptimal) << "point " << want.point;
    EXPECT_EQ(r.mip.objective, want.objective) << "point " << want.point;
    EXPECT_EQ(r.mip.nodes, want.nodes) << "point " << want.point;
    EXPECT_EQ(r.mip.lp_iterations, want.pivots) << "point " << want.point;
  }
}

// The complete formulation's models have 158-432 rows on these points
// (before presolve), so its pivots exercise the engine at larger shapes
// than the global model's; points 1, 3, 4 and 5 each prove in under
// 0.05 s in a Release build.
TEST(Table3SearchCounts, CompleteSmallPointsKeepTheirCounts) {
  constexpr Counts kRecorded[] = {
      {1, 148260, 1, 299},
      {3, 432491, 3, 761},
      {4, 415198, 4, 1151},
      {5, 389128, 12, 1231},
  };
  for (const Counts& want : kRecorded) {
    const workload::Table3Instance inst = paper_instance(want.point);
    const CostTable table(inst.design, inst.board);
    CompleteOptions options;
    options.mip.num_threads = 1;
    const CompleteResult r =
        map_complete(inst.design, inst.board, table, options);
    ASSERT_EQ(r.status, lp::SolveStatus::kOptimal) << "point " << want.point;
    EXPECT_EQ(r.mip.objective, want.objective) << "point " << want.point;
    EXPECT_EQ(r.mip.nodes, want.nodes) << "point " << want.point;
    EXPECT_EQ(r.mip.lp_iterations, want.pivots) << "point " << want.point;
  }
}

}  // namespace
}  // namespace gmm::mapping
