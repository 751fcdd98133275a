#include "lp/standard_form.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "lp/solver.hpp"
#include "support/rng.hpp"

namespace gmm::lp {
namespace {

TEST(StandardForm, BuildsCscAndLogicalBounds) {
  Model m;
  const Index x = m.add_variable(0, 5, 1.0);
  const Index y = m.add_variable(-1, 1, -2.0);
  LinExpr e;
  e.add(x, 2.0);
  e.add(y, -3.0);
  m.add_row(e, -4.0, 8.0);
  const StandardForm sf = StandardForm::build(m);
  EXPECT_EQ(sf.num_rows, 1);
  EXPECT_EQ(sf.num_structural, 2);
  EXPECT_EQ(sf.num_cols(), 3);
  EXPECT_TRUE(sf.is_logical(2));
  EXPECT_EQ(sf.logical_row(2), 0);
  // Structural bounds/costs pass through unscaled.
  EXPECT_DOUBLE_EQ(sf.lb[x], 0.0);
  EXPECT_DOUBLE_EQ(sf.ub[x], 5.0);
  EXPECT_DOUBLE_EQ(sf.cost[y], -2.0);
}

TEST(StandardForm, RowEquilibrationIsPow2AndBoundsConsistent) {
  // Row with max |coef| = 1e6 -> scale is a power of two near 1e-6, and
  // the logical bounds are the negated row bounds times the same scale.
  Model m;
  const Index x = m.add_variable(0, 1, 0.0);
  m.add_row(LinExpr(x, 1048576.0), 0.0, 2097152.0);
  const StandardForm sf = StandardForm::build(m);
  const double scaled = sf.value[0];
  EXPECT_NEAR(std::abs(scaled), 1.0, 0.5);  // equilibrated near unit
  const double scale = scaled / 1048576.0;
  int exponent = 0;
  const double mantissa = std::frexp(scale, &exponent);
  EXPECT_TRUE(mantissa == 0.5 || mantissa == -0.5);  // exact power of two
  EXPECT_DOUBLE_EQ(sf.lb[sf.num_structural], -2097152.0 * scale);
  EXPECT_DOUBLE_EQ(sf.ub[sf.num_structural], -0.0 * scale);
}

TEST(StandardForm, InfiniteRowBoundsSurviveScaling) {
  Model m;
  const Index x = m.add_variable(0, 1, 0.0);
  m.add_constraint(LinExpr(x, 1e6), Sense::kLessEqual, 5e5);
  const StandardForm sf = StandardForm::build(m);
  EXPECT_EQ(sf.ub[sf.num_structural], kInf);   // row lb was -inf
  EXPECT_LT(sf.lb[sf.num_structural], 0.0);    // scaled -5e5
  EXPECT_TRUE(std::isfinite(sf.lb[sf.num_structural]));
}

TEST(StandardForm, BadlyScaledLpSolvesCorrectly) {
  // Mixed 1e-3 .. 1e6 coefficients; the optimum is analytic.
  // min -x - y  s.t. 1e6 x + 1e6 y <= 1.5e6, 0.001 x <= 0.001,
  // x,y in [0,1]: optimum x=0.5? no: x<=1 from row2, x+y <= 1.5
  // -> x=1, y=0.5, objective -1.5.
  Model m;
  const Index x = m.add_variable(0, 1, -1.0);
  const Index y = m.add_variable(0, 1, -1.0);
  LinExpr big;
  big.add(x, 1e6);
  big.add(y, 1e6);
  m.add_constraint(big, Sense::kLessEqual, 1.5e6);
  m.add_constraint(LinExpr(x, 1e-3), Sense::kLessEqual, 1e-3);
  const LpResult r = solve_lp(m, {.simplex = {}, .use_presolve = false});
  ASSERT_EQ(r.status, SolveStatus::kOptimal);
  EXPECT_NEAR(r.objective, -1.5, 1e-7);
}

TEST(StandardForm, RandomScaledLpsMatchUnscaledEquivalents) {
  // Scaling rows of a model by arbitrary positive factors must not change
  // the optimum (the solver's internal equilibration handles either).
  support::Rng rng(321);
  for (int trial = 0; trial < 10; ++trial) {
    const int n = static_cast<int>(rng.uniform_int(2, 10));
    Model plain, scaled;
    for (int j = 0; j < n; ++j) {
      const double lb = 0, ub = rng.uniform_int(1, 5);
      const double c = static_cast<double>(rng.uniform_int(-5, 5));
      plain.add_variable(lb, ub, c);
      scaled.add_variable(lb, ub, c);
    }
    for (int i = 0; i < 6; ++i) {
      LinExpr e_plain, e_scaled;
      double mid = 0;
      const double factor = std::pow(10.0, rng.uniform_int(-3, 6));
      for (int j = 0; j < n; ++j) {
        if (!rng.bernoulli(0.5)) continue;
        const double a = static_cast<double>(rng.uniform_int(1, 9));
        e_plain.add(j, a);
        e_scaled.add(j, a * factor);
        mid += a * 2.5;
      }
      if (e_plain.empty()) continue;
      plain.add_constraint(e_plain, Sense::kLessEqual, mid);
      scaled.add_constraint(e_scaled, Sense::kLessEqual, mid * factor);
    }
    const LpResult a = solve_lp(plain);
    const LpResult b = solve_lp(scaled);
    ASSERT_EQ(a.status, SolveStatus::kOptimal);
    ASSERT_EQ(b.status, SolveStatus::kOptimal);
    EXPECT_NEAR(a.objective, b.objective,
                1e-6 * std::max(1.0, std::abs(a.objective)))
        << "trial " << trial;
  }
}

/// A row over a random subset of the model's variables (at least one)
/// with coefficients across six orders of magnitude, some negative.
LinExpr random_row(support::Rng& rng, Index n) {
  LinExpr e;
  for (Index j = 0; j < n; ++j) {
    if (rng.bernoulli(0.5)) {
      const double magnitude = std::exp2(rng.uniform_int(-3, 18)) *
                               (1.0 + 0.001 * rng.uniform_int(0, 999));
      e.add(j, rng.bernoulli(0.2) ? -magnitude : magnitude);
    }
  }
  if (e.empty()) e.add(static_cast<Index>(rng.index(n)), 1.0);
  return e;
}

void expect_same_form(const StandardForm& got, const StandardForm& want) {
  EXPECT_EQ(got.num_rows, want.num_rows);
  EXPECT_EQ(got.num_structural, want.num_structural);
  EXPECT_EQ(got.col_start, want.col_start);
  EXPECT_EQ(got.row_index, want.row_index);
  EXPECT_EQ(got.value, want.value);
  EXPECT_EQ(got.row_start, want.row_start);
  EXPECT_EQ(got.col_index, want.col_index);
  EXPECT_EQ(got.row_value, want.row_value);
  EXPECT_EQ(got.lb, want.lb);
  EXPECT_EQ(got.ub, want.ub);
  EXPECT_EQ(got.cost, want.cost);
  EXPECT_EQ(got.row_scale, want.row_scale);
}

/// The row copy holds exactly the column storage's entries: walking the
/// columns in order and dealing each entry to its row gives every row in
/// increasing column order, which must be the CSR arrays bit for bit.
void expect_row_copy_is_transpose(const StandardForm& sf) {
  std::vector<std::vector<std::pair<Index, double>>> rows(
      static_cast<std::size_t>(sf.num_rows));
  for (Index j = 0; j < sf.num_structural; ++j) {
    for (std::size_t k = sf.col_start[j]; k < sf.col_start[j + 1]; ++k) {
      rows[static_cast<std::size_t>(sf.row_index[k])].push_back(
          {j, sf.value[k]});
    }
  }
  ASSERT_EQ(sf.row_start.size(), static_cast<std::size_t>(sf.num_rows) + 1);
  EXPECT_EQ(sf.row_start.front(), 0u);
  EXPECT_EQ(sf.row_start.back(), sf.value.size());
  ASSERT_EQ(sf.col_index.size(), sf.value.size());
  ASSERT_EQ(sf.row_value.size(), sf.value.size());
  for (Index i = 0; i < sf.num_rows; ++i) {
    const auto& want = rows[static_cast<std::size_t>(i)];
    ASSERT_EQ(sf.row_start[i + 1] - sf.row_start[i], want.size())
        << "row " << i;
    for (std::size_t t = 0; t < want.size(); ++t) {
      const std::size_t k = sf.row_start[i] + t;
      EXPECT_EQ(sf.col_index[k], want[t].first) << "row " << i;
      EXPECT_EQ(sf.row_value[k], want[t].second) << "row " << i;
      if (t > 0) {
        EXPECT_LT(sf.col_index[k - 1], sf.col_index[k]) << "row " << i;
      }
    }
  }
}

/// A random model over 1-12 variables (binaries and general bounds, some
/// unbounded above) with 0-10 rows.
Model random_model(support::Rng& rng) {
  Model m;
  const auto n = static_cast<Index>(rng.uniform_int(1, 12));
  for (Index j = 0; j < n; ++j) {
    if (rng.bernoulli(0.5)) {
      m.add_binary(static_cast<double>(rng.uniform_int(-5, 5)));
    } else {
      m.add_variable(static_cast<double>(rng.uniform_int(-3, 0)),
                     rng.bernoulli(0.2) ? kInf : rng.uniform_int(1, 9),
                     static_cast<double>(rng.uniform_int(-5, 5)));
    }
  }
  const std::int64_t rows = rng.uniform_int(0, 10);
  for (std::int64_t i = 0; i < rows; ++i) {
    const double ub = static_cast<double>(rng.uniform_int(1, 1000));
    m.add_row(random_row(rng, n), rng.bernoulli(0.3) ? -ub : -kInf, ub);
  }
  return m;
}

/// One cut round: 0-5 cut-like rows appended to `m`.
void add_random_cuts(support::Rng& rng, Model& m) {
  const std::int64_t cuts = rng.uniform_int(0, 5);
  for (std::int64_t k = 0; k < cuts; ++k) {
    m.add_row(random_row(rng, m.num_vars()), -kInf,
              static_cast<double>(rng.uniform_int(0, 6)));
  }
}

// The root cut loop grows its form in place instead of rebuilding it: over
// random models and random sequences of appended (cut-like) rows, the
// grown form, its row copy included, must equal a fresh build of the
// grown model, bit for bit.
TEST(StandardFormAppendRowsProperty, GrownFormEqualsAFreshBuild) {
  for (int seed = 0; seed < 300; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    support::Rng rng(static_cast<std::uint64_t>(seed) * 104729 + 3);
    Model m = random_model(rng);
    StandardForm sf = StandardForm::build(m);
    const std::int64_t rounds = rng.uniform_int(1, 4);
    for (std::int64_t r = 0; r < rounds; ++r) {
      add_random_cuts(rng, m);
      sf.append_rows(m);
      expect_same_form(sf, StandardForm::build(m));
    }
  }
}

// The engine prices pivot rows from the row copy and relies on it summing
// each column's terms in the column storage's order: the copy must be the
// exact transpose of the columns, for a fresh build and after every cut
// round grown in place.
TEST(StandardFormAppendRowsProperty, RowCopyIsTheExactTransposeOfTheColumns) {
  for (int seed = 0; seed < 300; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    support::Rng rng(static_cast<std::uint64_t>(seed) * 7919 + 11);
    Model m = random_model(rng);
    StandardForm sf = StandardForm::build(m);
    expect_row_copy_is_transpose(sf);
    const std::int64_t rounds = rng.uniform_int(1, 4);
    for (std::int64_t r = 0; r < rounds; ++r) {
      add_random_cuts(rng, m);
      sf.append_rows(m);
      expect_row_copy_is_transpose(sf);
    }
  }
}

TEST(Simplex, IterationLimitReported) {
  support::Rng rng(99);
  Model m;
  const int n = 40;
  for (int j = 0; j < n; ++j) {
    m.add_variable(0, 10, static_cast<double>(rng.uniform_int(-9, 9)));
  }
  for (int i = 0; i < 30; ++i) {
    LinExpr e;
    double mid = 0;
    for (int j = 0; j < n; ++j) {
      if (rng.bernoulli(0.4)) {
        const double a = static_cast<double>(rng.uniform_int(-4, 4));
        e.add(j, a);
        mid += 5 * a;
      }
    }
    if (!e.empty()) m.add_constraint(e, Sense::kGreaterEqual, mid - 10);
  }
  LpOptions options;
  options.simplex.iteration_limit = 1;  // absurdly small
  options.use_presolve = false;
  const LpResult r = solve_lp(m, options);
  EXPECT_TRUE(r.status == SolveStatus::kIterationLimit ||
              r.status == SolveStatus::kOptimal);  // trivially optimal ok
}

TEST(Simplex, FixedVariablesRespected) {
  Model m;
  const Index x = m.add_variable(3, 3, -10.0);  // fixed, attractive cost
  const Index y = m.add_variable(0, 10, 1.0);
  LinExpr e;
  e.add(x, 1.0);
  e.add(y, 1.0);
  m.add_constraint(e, Sense::kGreaterEqual, 5.0);
  const LpResult r = solve_lp(m, {.simplex = {}, .use_presolve = false});
  ASSERT_EQ(r.status, SolveStatus::kOptimal);
  EXPECT_DOUBLE_EQ(r.x[x], 3.0);
  EXPECT_NEAR(r.x[y], 2.0, 1e-8);
}

}  // namespace
}  // namespace gmm::lp
