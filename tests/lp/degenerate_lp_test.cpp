// Anti-cycling regression on known-degenerate instances.
//
// The covering LP below (min sum x, every pair {i, i+1} must sum to at
// least 1, all data 0/1) has massively tied ratio tests and degenerate
// vertices — the classic food for simplex cycling.  With
// SimplexOptions::stall_threshold = 0 the engine enters Bland's
// smallest-index mode on the FIRST zero-dual-step pivot and stays there
// until a real step, so the solve must still terminate at the optimum;
// with the default threshold the same optimum must be reached.  The
// point of forcing threshold 0 is that the Bland path itself — not just
// the Harris path — is exercised end to end on a degenerate instance.
#include <gtest/gtest.h>

#include "lp/model.hpp"
#include "lp/simplex.hpp"
#include "lp/standard_form.hpp"

namespace gmm::lp {
namespace {

/// Degenerate covering LP: min sum x_j, x_j in [0,1],
/// x_i + x_{i+1} >= 1 for a ring of n variables.  For even n the
/// optimum is n/2 with many alternative optimal bases (every other
/// vertex at 1), and every ratio test is an exact tie.
Model degenerate_ring_cover(int n) {
  Model model;
  for (int j = 0; j < n; ++j) model.add_variable(0, 1, 1.0);
  for (int i = 0; i < n; ++i) {
    LinExpr expr;
    expr.add(i, 1.0);
    expr.add((i + 1) % n, 1.0);
    model.add_constraint(expr, Sense::kGreaterEqual, 1.0);
  }
  return model;
}

TEST(DegenerateLpTest, BlandModeFromFirstStallStillSolvesRingCover) {
  const Model model = degenerate_ring_cover(24);
  const StandardForm sf = StandardForm::build(model);

  SimplexOptions bland_now;
  bland_now.stall_threshold = 0;
  SimplexEngine eager(sf);
  ASSERT_EQ(eager.solve(bland_now), SolveStatus::kOptimal);

  SimplexEngine relaxed(sf);
  ASSERT_EQ(relaxed.solve({}), SolveStatus::kOptimal);

  EXPECT_NEAR(eager.objective_value(), 12.0, 1e-7);
  EXPECT_NEAR(relaxed.objective_value(), 12.0, 1e-7);
}

TEST(DegenerateLpTest, TightIterationBudgetIsEnoughUnderBland) {
  // A cycling engine would burn the whole iteration budget; Bland's rule
  // bounds the pivot count by the number of bases actually visited.
  const Model model = degenerate_ring_cover(40);
  const StandardForm sf = StandardForm::build(model);
  SimplexOptions options;
  options.stall_threshold = 0;
  options.iteration_limit = 2'000;  // generous for n=40, fatal for a cycle
  SimplexEngine engine(sf);
  ASSERT_EQ(engine.solve(options), SolveStatus::kOptimal);
  EXPECT_NEAR(engine.objective_value(), 20.0, 1e-7);
}

}  // namespace
}  // namespace gmm::lp
