#include "lp/model.hpp"

#include <gtest/gtest.h>

namespace gmm::lp {
namespace {

TEST(Model, AddVariableAndQuery) {
  Model m;
  const Index x = m.add_variable(0.0, 10.0, 2.5, VarType::kContinuous);
  const Index y = m.add_binary(-1.0);
  EXPECT_EQ(m.num_vars(), 2);
  EXPECT_DOUBLE_EQ(m.var_lb(x), 0.0);
  EXPECT_DOUBLE_EQ(m.var_ub(x), 10.0);
  EXPECT_DOUBLE_EQ(m.obj(x), 2.5);
  EXPECT_EQ(m.var_type(y), VarType::kBinary);
  EXPECT_DOUBLE_EQ(m.var_lb(y), 0.0);
  EXPECT_DOUBLE_EQ(m.var_ub(y), 1.0);
}

TEST(Model, RowCanonicalizationMergesDuplicates) {
  Model m;
  const Index x = m.add_variable(0, 1, 0);
  const Index y = m.add_variable(0, 1, 0);
  LinExpr e;
  e.add(y, 1.0);
  e.add(x, 2.0);
  e.add(y, 3.0);   // duplicate of y
  e.add(x, -2.0);  // cancels x entirely
  const Index r = m.add_row(e, 0.0, 8.0);
  const Model::RowView view = m.row(r);
  ASSERT_EQ(view.size, 1u);
  EXPECT_EQ(view.vars[0], y);
  EXPECT_DOUBLE_EQ(view.coefs[0], 4.0);
}

TEST(Model, SenseMapping) {
  Model m;
  const Index x = m.add_variable(0, 10, 1);
  const Index le = m.add_constraint(LinExpr(x, 1.0), Sense::kLessEqual, 5);
  const Index ge = m.add_constraint(LinExpr(x, 1.0), Sense::kGreaterEqual, 2);
  const Index eq = m.add_constraint(LinExpr(x, 1.0), Sense::kEqual, 3);
  EXPECT_EQ(m.row_lb(le), -kInf);
  EXPECT_DOUBLE_EQ(m.row_ub(le), 5.0);
  EXPECT_DOUBLE_EQ(m.row_lb(ge), 2.0);
  EXPECT_EQ(m.row_ub(ge), kInf);
  EXPECT_DOUBLE_EQ(m.row_lb(eq), 3.0);
  EXPECT_DOUBLE_EQ(m.row_ub(eq), 3.0);
}

TEST(Model, ActivityAndObjective) {
  Model m;
  const Index x = m.add_variable(0, 10, 3);
  const Index y = m.add_variable(0, 10, -1);
  LinExpr e;
  e.add(x, 2.0);
  e.add(y, 1.0);
  const Index r = m.add_row(e, -kInf, 100);
  const std::vector<double> sol{4.0, 6.0};
  EXPECT_DOUBLE_EQ(m.row_activity(r, sol), 14.0);
  EXPECT_DOUBLE_EQ(m.objective_value(sol), 6.0);
}

TEST(Model, FeasibilityCheck) {
  Model m;
  const Index x = m.add_variable(0, 1, 0, VarType::kBinary);
  const Index y = m.add_variable(0, 1, 0, VarType::kBinary);
  LinExpr e;
  e.add(x, 1.0);
  e.add(y, 1.0);
  m.add_constraint(e, Sense::kLessEqual, 1);
  EXPECT_TRUE(m.is_feasible({1.0, 0.0}));
  EXPECT_TRUE(m.is_feasible({0.0, 0.0}));
  EXPECT_FALSE(m.is_feasible({1.0, 1.0}));   // row violated
  EXPECT_FALSE(m.is_feasible({0.5, 0.0}));   // fractional binary
  EXPECT_FALSE(m.is_feasible({2.0, 0.0}));   // out of bounds
  EXPECT_FALSE(m.is_feasible({1.0}));        // wrong dimension
}

TEST(Model, HasIntegers) {
  Model m;
  m.add_variable(0, 1, 0);
  EXPECT_FALSE(m.has_integers());
  m.add_binary(0);
  EXPECT_TRUE(m.has_integers());
}

}  // namespace
}  // namespace gmm::lp
