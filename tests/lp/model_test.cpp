#include "lp/model.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "support/rng.hpp"

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

// add_row stores the same canonical row whatever order the terms come in:
// rows built in variable order (some with duplicates, so they take the
// sorted path, some strictly increasing, so they do not) against the same
// terms shuffled.  Integer coefficients keep every merged sum exact, so
// the two rows must match to the bit.  A strictly increasing row stores
// exactly its nonzero terms, coefficients untouched.
TEST(Model, InOrderAndShuffledRowsStoreTheSameTerms) {
  support::Rng rng(2501);
  Model m;
  constexpr Index kVars = 12;
  for (Index j = 0; j < kVars; ++j) m.add_variable(0, 1, 0);
  const auto same_row = [&m](Index a, Index b) {
    const Model::RowView ra = m.row(a);
    const Model::RowView rb = m.row(b);
    if (ra.size != rb.size) return false;
    for (std::size_t k = 0; k < ra.size; ++k) {
      if (ra.vars[k] != rb.vars[k] || ra.coefs[k] != rb.coefs[k]) {
        return false;
      }
    }
    return true;
  };
  int with_duplicates = 0;
  for (int draw = 0; draw < 300; ++draw) {
    std::vector<Term> terms;
    const std::int64_t max_repeat = draw % 2 == 0 ? 1 : 3;
    for (Index j = 0; j < kVars; ++j) {
      const std::int64_t repeat = rng.uniform_int(0, max_repeat);
      for (std::int64_t r = 0; r < repeat; ++r) {
        terms.push_back({j, static_cast<double>(rng.uniform_int(-3, 3))});
      }
    }
    const bool duplicated =
        std::adjacent_find(terms.begin(), terms.end(),
                           [](const Term& a, const Term& b) {
                             return a.var == b.var;
                           }) != terms.end();
    with_duplicates += duplicated ? 1 : 0;
    LinExpr given;
    for (const Term& t : terms) given += t;
    std::vector<Term> shuffled = terms;
    rng.shuffle(shuffled);
    LinExpr reordered;
    for (const Term& t : shuffled) reordered += t;
    const Index a = m.add_row(given, -kInf, 1.0);
    const Index b = m.add_row(reordered, -kInf, 1.0);
    EXPECT_TRUE(same_row(a, b)) << "draw " << draw;

    if (duplicated) continue;
    const Model::RowView stored = m.row(a);
    std::size_t k = 0;
    for (const Term& t : terms) {
      if (t.coef == 0.0) continue;
      ASSERT_LT(k, stored.size) << "draw " << draw;
      EXPECT_EQ(stored.vars[k], t.var) << "draw " << draw;
      EXPECT_EQ(stored.coefs[k], t.coef) << "draw " << draw;
      ++k;
    }
    EXPECT_EQ(k, stored.size) << "draw " << draw;
  }
  EXPECT_GT(with_duplicates, 50);
  EXPECT_LT(with_duplicates, 250);

  // Non-integer coefficients in strictly increasing order, stored as given.
  LinExpr increasing;
  increasing.add(1, 0.1);
  increasing.add(4, 0.0);
  increasing.add(5, -1e-300);
  increasing.add(9, 2.0 / 3.0);
  const Model::RowView r = m.row(m.add_row(increasing, 0.0, 1.0));
  ASSERT_EQ(r.size, 3u);
  EXPECT_EQ(r.vars[0], 1);
  EXPECT_EQ(r.coefs[0], 0.1);
  EXPECT_EQ(r.vars[1], 5);
  EXPECT_EQ(r.coefs[1], -1e-300);
  EXPECT_EQ(r.vars[2], 9);
  EXPECT_EQ(r.coefs[2], 2.0 / 3.0);
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
