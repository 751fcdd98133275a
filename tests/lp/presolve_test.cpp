#include "lp/presolve.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "ilp/mip_solver.hpp"

namespace gmm::lp {
namespace {

TEST(Presolve, DetectsCrossedVariableBounds) {
  Model m;
  m.add_variable(0, 1, 0, VarType::kInteger);
  m.set_var_bounds(0, 0.4, 0.6);  // no integer inside
  const PresolveResult r = presolve(m);
  EXPECT_TRUE(r.infeasible);
}

TEST(Presolve, RoundsIntegerBounds) {
  Model m;
  m.add_variable(0.3, 2.7, 1.0, VarType::kInteger);
  const PresolveResult r = presolve(m);
  ASSERT_FALSE(r.infeasible);
  ASSERT_EQ(r.reduced.num_vars(), 1);
  EXPECT_DOUBLE_EQ(r.reduced.var_lb(0), 1.0);
  EXPECT_DOUBLE_EQ(r.reduced.var_ub(0), 2.0);
}

TEST(Presolve, FixedVariableSubstitution) {
  Model m;
  const Index x = m.add_variable(3, 3, 2.0);  // fixed at 3
  const Index y = m.add_variable(0, 10, 1.0);
  LinExpr e;
  e.add(x, 1.0);
  e.add(y, 1.0);
  m.add_constraint(e, Sense::kLessEqual, 8);  // becomes y <= 5
  const PresolveResult r = presolve(m);
  ASSERT_FALSE(r.infeasible);
  EXPECT_EQ(r.vars_fixed, 1);
  EXPECT_DOUBLE_EQ(r.objective_offset, 6.0);
  // Row becomes a singleton on y, which folds into y's bounds.
  EXPECT_EQ(r.reduced.num_rows(), 0);
  ASSERT_EQ(r.reduced.num_vars(), 1);
  EXPECT_DOUBLE_EQ(r.reduced.var_ub(0), 5.0);
  // Postsolve restores the fixed variable.
  const std::vector<double> x_full = postsolve(r, {4.0});
  ASSERT_EQ(x_full.size(), 2u);
  EXPECT_DOUBLE_EQ(x_full[0], 3.0);
  EXPECT_DOUBLE_EQ(x_full[1], 4.0);
}

TEST(Presolve, RemovesRedundantRow) {
  Model m;
  const Index x = m.add_variable(0, 1, 0);
  m.add_constraint(LinExpr(x, 1.0), Sense::kLessEqual, 5);  // always true
  const PresolveResult r = presolve(m);
  ASSERT_FALSE(r.infeasible);
  EXPECT_EQ(r.reduced.num_rows(), 0);
  EXPECT_EQ(r.rows_removed, 1);
}

TEST(Presolve, DetectsInfeasibleRow) {
  Model m;
  const Index x = m.add_variable(0, 1, 0);
  const Index y = m.add_variable(0, 1, 0);
  LinExpr e;
  e.add(x, 1.0);
  e.add(y, 1.0);
  m.add_constraint(e, Sense::kGreaterEqual, 3);  // max activity is 2
  const PresolveResult r = presolve(m);
  EXPECT_TRUE(r.infeasible);
}

TEST(Presolve, SingletonRowTightensAndCascades) {
  Model m;
  const Index x = m.add_variable(0, 10, 1.0);
  const Index y = m.add_variable(0, 10, 1.0);
  m.add_constraint(LinExpr(x, 2.0), Sense::kEqual, 6);  // x = 3
  LinExpr e;
  e.add(x, 1.0);
  e.add(y, 1.0);
  m.add_constraint(e, Sense::kLessEqual, 4);  // then y <= 1
  const PresolveResult r = presolve(m);
  ASSERT_FALSE(r.infeasible);
  EXPECT_EQ(r.vars_fixed, 1);             // x
  EXPECT_EQ(r.reduced.num_rows(), 0);     // both rows folded away
  ASSERT_EQ(r.reduced.num_vars(), 1);     // y remains
  EXPECT_DOUBLE_EQ(r.reduced.var_ub(0), 1.0);
  EXPECT_DOUBLE_EQ(r.objective_offset, 3.0);
}

TEST(Presolve, NegativeCoefficientSingleton) {
  Model m;
  m.add_variable(-10, 10, 1.0);
  m.add_constraint(LinExpr(0, -2.0), Sense::kLessEqual, 4);  // x >= -2
  const PresolveResult r = presolve(m);
  ASSERT_FALSE(r.infeasible);
  ASSERT_EQ(r.reduced.num_vars(), 1);
  EXPECT_DOUBLE_EQ(r.reduced.var_lb(0), -2.0);
  EXPECT_DOUBLE_EQ(r.reduced.var_ub(0), 10.0);
}

TEST(Presolve, EverythingFixed) {
  Model m;
  m.add_variable(2, 2, 5.0);
  m.add_variable(1, 1, -1.0);
  const PresolveResult r = presolve(m);
  ASSERT_FALSE(r.infeasible);
  EXPECT_EQ(r.reduced.num_vars(), 0);
  EXPECT_DOUBLE_EQ(r.objective_offset, 9.0);
  const std::vector<double> x = postsolve(r, {});
  EXPECT_DOUBLE_EQ(x[0], 2.0);
  EXPECT_DOUBLE_EQ(x[1], 1.0);
}

TEST(Presolve, ForcingRowAtItsMinimumFixesEveryVariableAtZero) {
  // A pinned structure's leftover uniqueness row: sum z = 0 over binaries.
  Model m;
  LinExpr e;
  for (int k = 0; k < 3; ++k) e.add(m.add_binary(1.0 + k), 1.0);
  m.add_constraint(e, Sense::kEqual, 0.0);
  const PresolveResult r = presolve(m);
  ASSERT_FALSE(r.infeasible);
  EXPECT_EQ(r.reduced.num_vars(), 0);
  EXPECT_EQ(r.reduced.num_rows(), 0);
  EXPECT_EQ(r.vars_fixed, 3);
  EXPECT_DOUBLE_EQ(r.objective_offset, 0.0);
  EXPECT_EQ(postsolve(r, {}), (std::vector<double>{0, 0, 0}));
}

TEST(Presolve, ForcingRowAtItsMaximumFixesEveryVariableAtOne) {
  Model m;
  const Index x = m.add_variable(0, 1, 2.0);
  const Index y = m.add_variable(0, 1, 3.0);
  LinExpr e;
  e.add(x, 1.0);
  e.add(y, 1.0);
  m.add_constraint(e, Sense::kGreaterEqual, 2);  // only x = y = 1
  const PresolveResult r = presolve(m);
  ASSERT_FALSE(r.infeasible);
  EXPECT_EQ(r.reduced.num_vars(), 0);
  EXPECT_EQ(r.rows_removed, 1);
  EXPECT_DOUBLE_EQ(r.objective_offset, 5.0);
  const std::vector<double> full = postsolve(r, {});
  EXPECT_DOUBLE_EQ(full[x], 1.0);
  EXPECT_DOUBLE_EQ(full[y], 1.0);
}

TEST(Presolve, ForcingRowWithANegativeCoefficient) {
  // x - y >= 1 over [0, 1]: the maximum activity 1 needs x = 1, y = 0.
  Model m;
  const Index x = m.add_variable(0, 1, 1.0);
  const Index y = m.add_variable(0, 1, 1.0);
  const Index z = m.add_variable(0, 4, 1.0);  // in another row only
  LinExpr e;
  e.add(x, 1.0);
  e.add(y, -1.0);
  m.add_constraint(e, Sense::kGreaterEqual, 1);
  LinExpr f;
  f.add(y, 1.0);
  f.add(z, 1.0);
  m.add_constraint(f, Sense::kLessEqual, 3);  // then z <= 3
  const PresolveResult r = presolve(m);
  ASSERT_FALSE(r.infeasible);
  EXPECT_EQ(r.vars_fixed, 2);
  ASSERT_EQ(r.reduced.num_vars(), 1);
  EXPECT_EQ(r.reduced.num_rows(), 0);
  EXPECT_DOUBLE_EQ(r.reduced.var_ub(0), 3.0);
  const std::vector<double> full = postsolve(r, {2.0});
  EXPECT_DOUBLE_EQ(full[x], 1.0);
  EXPECT_DOUBLE_EQ(full[y], 0.0);
  EXPECT_DOUBLE_EQ(full[z], 2.0);
}

TEST(Presolve, ForcingFixingsCascadeIntoALaterPass) {
  // Rows listed so each forcing row shows up only after the previous
  // one's fixings are substituted: a + b >= 2 fixes a = b = 1 in the
  // first pass; then c + d - a >= 1 reads c + d >= 2 and fixes c = d = 1;
  // then c + e + g <= 1 reads e + g <= 0 and fixes e = g = 0.  `free`
  // is in no row and stays.
  Model m;
  const Index a = m.add_binary(1.0);
  const Index b = m.add_binary(1.0);
  const Index c = m.add_binary(1.0);
  const Index d = m.add_binary(1.0);
  const Index e = m.add_binary(1.0);
  const Index g = m.add_binary(1.0);
  const Index free = m.add_binary(1.0);
  LinExpr third;
  third.add(c, 1.0);
  third.add(e, 1.0);
  third.add(g, 1.0);
  m.add_constraint(third, Sense::kLessEqual, 1);
  LinExpr second;
  second.add(c, 1.0);
  second.add(d, 1.0);
  second.add(a, -1.0);
  m.add_constraint(second, Sense::kGreaterEqual, 1);
  LinExpr first;
  first.add(a, 1.0);
  first.add(b, 1.0);
  m.add_constraint(first, Sense::kGreaterEqual, 2);
  const PresolveResult r = presolve(m);
  ASSERT_FALSE(r.infeasible);
  EXPECT_EQ(r.vars_fixed, 6);
  EXPECT_EQ(r.rows_removed, 3);
  ASSERT_EQ(r.reduced.num_vars(), 1);
  EXPECT_EQ(r.var_map[free], 0);
  EXPECT_DOUBLE_EQ(r.objective_offset, 4.0);
  EXPECT_EQ(postsolve(r, {1.0}), (std::vector<double>{1, 1, 1, 1, 0, 0, 1}));
}

TEST(Presolve, KeepsARowWithAnUnboundedVariable) {
  // minimize x s.t. x + y >= 3, x in [0, inf), y in [0, 1]: the optimum
  // is x = 2.  An infinite activity bound must not make the row look
  // redundant (or forcing).
  Model m;
  const Index x = m.add_variable(0, kInf, 1.0);
  const Index y = m.add_variable(0, 1, 0.0);
  LinExpr e;
  e.add(x, 1.0);
  e.add(y, 1.0);
  m.add_constraint(e, Sense::kGreaterEqual, 3);
  const PresolveResult r = presolve(m);
  ASSERT_FALSE(r.infeasible);
  EXPECT_EQ(r.rows_removed, 0);
  EXPECT_EQ(r.reduced.num_rows(), 1);
  EXPECT_EQ(r.reduced.num_vars(), 2);

  const ilp::MipResult solved = ilp::solve_mip(m, {});
  ASSERT_EQ(solved.status, SolveStatus::kOptimal);
  EXPECT_NEAR(solved.objective, 2.0, 1e-9);
}

}  // namespace
}  // namespace gmm::lp
