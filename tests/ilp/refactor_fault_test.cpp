// Table-3 solves with lu.refactor:singular armed on every refactorization
// must still prove the objectives they prove unarmed.
//
// The fault makes the engine's refactorization evict its first structural
// basic column for a logical, so every branch-and-bound snapshot load that
// refactorizes and every cadence refactorization inside a node LP solve
// goes through the singular-basis repair.  A repair that left a basis dual
// infeasible would let a node LP stop "optimal" above its true optimum,
// and a bound that is too high can prune the subtree holding the optimum.
// Exact options (gap 0, abs_gap 0.5 on the integer-valued objectives) make
// "same objective" an equality.
#include <gtest/gtest.h>

#include <string>

#include "mapping/complete_mapper.hpp"
#include "mapping/cost_model.hpp"
#include "mapping/global_mapper.hpp"
#include "support/fault.hpp"
#include "workload/table3_suite.hpp"

namespace gmm::mapping {
namespace {

using lp::SolveStatus;

ilp::MipOptions exact_mip() {
  ilp::MipOptions mip;
  mip.rel_gap = 0.0;
  mip.abs_gap = 0.5;
  return mip;
}

/// Arms the process-global fault registry; disarms on scope exit.
struct ArmedFaults {
  explicit ArmedFaults(const std::string& spec) {
    std::string error;
    armed = support::global_faults().arm(spec, error);
  }
  ~ArmedFaults() { support::global_faults().disarm(); }
  bool armed = false;
};

constexpr const char* kEveryRefactorization = "lu.refactor:singular@always";

TEST(RefactorFault, GlobalPoints2And9ProveUnarmedObjectives) {
  for (const std::size_t index : {std::size_t{1}, std::size_t{8}}) {
    const workload::Table3Point& point = workload::table3_points()[index];
    const workload::Table3Instance instance = workload::build_instance(point);
    const CostTable table(instance.design, instance.board);
    GlobalOptions options;
    options.mip = exact_mip();

    const GlobalResult unarmed =
        map_global(instance.design, instance.board, table, options);
    ASSERT_EQ(unarmed.status, SolveStatus::kOptimal) << "point " << point.index;

    const ArmedFaults faults(kEveryRefactorization);
    ASSERT_TRUE(faults.armed);
    const GlobalResult armed =
        map_global(instance.design, instance.board, table, options);
    EXPECT_GT(support::global_faults().total_fires(), 0)
        << "point " << point.index;
    ASSERT_EQ(armed.status, SolveStatus::kOptimal) << "point " << point.index;
    EXPECT_EQ(armed.assignment.objective, unarmed.assignment.objective)
        << "point " << point.index;
    EXPECT_EQ(table.assignment_objective(armed.assignment.type_of),
              unarmed.assignment.objective)
        << "point " << point.index;
  }
}

TEST(RefactorFault, CompletePoint2ProvesUnarmedObjective) {
  const workload::Table3Instance instance =
      workload::build_instance(workload::table3_points()[1]);
  const CostTable table(instance.design, instance.board);
  CompleteOptions options;
  options.mip = exact_mip();

  const CompleteResult unarmed =
      map_complete(instance.design, instance.board, table, options);
  ASSERT_EQ(unarmed.status, SolveStatus::kOptimal);

  const ArmedFaults faults(kEveryRefactorization);
  ASSERT_TRUE(faults.armed);
  const CompleteResult armed =
      map_complete(instance.design, instance.board, table, options);
  EXPECT_GT(support::global_faults().total_fires(), 0);
  ASSERT_EQ(armed.status, SolveStatus::kOptimal);
  EXPECT_EQ(armed.assignment.objective, unarmed.assignment.objective);
  EXPECT_EQ(table.assignment_objective(armed.assignment.type_of),
            unarmed.assignment.objective);
}

}  // namespace
}  // namespace gmm::mapping
