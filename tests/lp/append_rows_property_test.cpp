// Property wall for SimplexEngine::append_rows, the root cut loop's entry
// path (300 seeds per property).  An engine at the optimum of an LP takes
// the same LP with random rows appended that the optimum violates:
//
//   1. Right after the append, B B^{-1} = I for the extended basis, every
//      old column keeps its status and reduced cost, each new row's
//      logical is basic in that row at the row's activity (so the engine's
//      values satisfy every row of the grown form A x = 0), and at least
//      one new logical is out of bounds.
//   2. Resuming the dual simplex from there (up to three rounds of
//      appends, the refactorization cadence at 2 on every other seed)
//      reaches the optimum of a fresh engine solved cold on the grown
//      form: same objective, same solution, same row duals and reduced
//      costs, and a feasible point of the grown model.  The LPs are
//      packing rows with generic real data, so every optimum and its duals
//      are unique and the certificates compare entry by entry.
//   3. Degenerate data (integer coefficients, cut rows through the box
//      midpoint's activity, duplicated cut rows) resumes to the cold
//      engine's status and objective at a feasible point.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "lp/model.hpp"
#include "lp/simplex.hpp"
#include "lp/standard_form.hpp"
#include "support/rng.hpp"

namespace gmm::lp {
namespace {

constexpr int kSeeds = 300;
constexpr double kTol = 1e-7;

/// Random packing LP: x in [0, 10]^n, rows a.x <= b with a >= 1 and
/// b >= 10, costs mostly negative so the optimum pushes into the rows.
/// All data is generic real, so no vertex is degenerate and the optimum
/// and its duals are unique.  x = 0 stays feasible under any packing row
/// appended later.
Model random_packing_lp(support::Rng& rng) {
  const int vars = static_cast<int>(rng.uniform_int(4, 20));
  const int rows = static_cast<int>(rng.uniform_int(1, std::min(10, vars)));
  Model model;
  for (int j = 0; j < vars; ++j) {
    model.add_variable(0, 10, rng.uniform_real() * 20.0 - 14.0);
  }
  for (int i = 0; i < rows; ++i) {
    LinExpr expr;
    for (int j = 0; j < vars; ++j) {
      if (rng.bernoulli(0.5)) {
        expr.add(j, 1.0 + 8.0 * rng.uniform_real());
      }
    }
    if (expr.empty()) {
      expr.add(static_cast<Index>(rng.uniform_int(0, vars - 1)), 1.0);
    }
    model.add_constraint(expr, Sense::kLessEqual,
                         10.0 + 70.0 * rng.uniform_real());
  }
  return model;
}

/// Append 1-4 packing rows that `x` violates: nonnegative coefficients on
/// a random support, right-hand side a random fraction of the activity at
/// `x`.  Rows whose activity at `x` is 0 cannot be violated and are
/// skipped.  Returns the number of rows added.
int append_violated_packing_rows(Model& model, const std::vector<double>& x,
                                 support::Rng& rng) {
  const int want = static_cast<int>(rng.uniform_int(1, 4));
  int added = 0;
  for (int attempt = 0; attempt < 4 * want && added < want; ++attempt) {
    LinExpr expr;
    double activity = 0.0;
    for (Index j = 0; j < model.num_vars(); ++j) {
      if (x[j] > kTol && rng.bernoulli(0.6)) {
        const double a = 0.5 + rng.uniform_real() * 4.0;
        expr.add(j, a);
        activity += a * x[j];
      }
    }
    if (activity <= 1e-3) continue;
    model.add_constraint(expr, Sense::kLessEqual,
                         activity * (0.2 + 0.75 * rng.uniform_real()));
    ++added;
  }
  return added;
}

/// B B^{-1} = I, where column c of B is the grown form's column basic in
/// row c and row i of B^{-1} belongs to the column basic in row i.
void expect_inverse_of_basis(const StandardForm& sf,
                             const SimplexEngine& engine,
                             const std::string& where) {
  const Index m = sf.num_rows;
  const std::vector<Index> basic = engine.snapshot_basis().basic_in_row;
  const std::vector<double>& binv = engine.basis_inverse();
  ASSERT_EQ(binv.size(), static_cast<std::size_t>(m) * m) << where;
  for (Index i = 0; i < m; ++i) {
    const double* row = binv.data() + static_cast<std::size_t>(i) * m;
    for (Index c = 0; c < m; ++c) {
      const Index j = basic[c];
      double dot = 0.0;
      if (sf.is_logical(j)) {
        dot = row[sf.logical_row(j)];
      } else {
        for (std::size_t k = sf.col_start[j]; k < sf.col_start[j + 1]; ++k) {
          dot += row[sf.row_index[k]] * sf.value[k];
        }
      }
      EXPECT_NEAR(dot, i == c ? 1.0 : 0.0, 1e-9)
          << where << ", entry (" << i << ", " << c << ")";
    }
  }
}

/// The engine's point satisfies the grown form's rows as equalities,
/// a.x + s = 0 on the scaled rows (x_B consistent with the basis).
void expect_rows_balance(const StandardForm& sf, const SimplexEngine& engine,
                         const std::string& where) {
  std::vector<double> residual(sf.num_rows, 0.0);
  std::vector<double> magnitude(sf.num_rows, 1.0);
  for (Index j = 0; j < sf.num_structural; ++j) {
    const double v = engine.column_value(j);
    for (std::size_t k = sf.col_start[j]; k < sf.col_start[j + 1]; ++k) {
      residual[sf.row_index[k]] += sf.value[k] * v;
      magnitude[sf.row_index[k]] += std::abs(sf.value[k] * v);
    }
  }
  for (Index i = 0; i < sf.num_rows; ++i) {
    residual[i] += engine.column_value(sf.num_structural + i);
    EXPECT_NEAR(residual[i], 0.0, 1e-9 * magnitude[i])
        << where << ", row " << i;
  }
}

void expect_feasible(const Model& model, const std::vector<double>& x,
                     const std::string& where) {
  for (Index j = 0; j < model.num_vars(); ++j) {
    EXPECT_GE(x[j], model.var_lb(j) - kTol) << where << ", column " << j;
    EXPECT_LE(x[j], model.var_ub(j) + kTol) << where << ", column " << j;
  }
  for (Index i = 0; i < model.num_rows(); ++i) {
    const double activity = model.row_activity(i, x);
    const double scale = 1.0 + std::abs(activity);
    EXPECT_GE(activity, model.row_lb(i) - kTol * scale)
        << where << ", row " << i;
    EXPECT_LE(activity, model.row_ub(i) + kTol * scale)
        << where << ", row " << i;
  }
}

TEST(AppendRowsProperty, ExtendedInverseAndActivitiesAreExact) {
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    support::Rng rng(seed * 2654435761ull);
    Model model = random_packing_lp(rng);
    const StandardForm sf = StandardForm::build(model);
    SimplexEngine engine(sf);
    ASSERT_EQ(engine.solve({}), SolveStatus::kOptimal) << "seed " << seed;

    const std::vector<double> x = engine.structural_solution();
    if (append_violated_packing_rows(model, x, rng) == 0) continue;
    const StandardForm grown = StandardForm::build(model);
    const Index n_old = sf.num_cols();
    std::vector<VStat> status(n_old);
    std::vector<double> reduced(n_old);
    for (Index j = 0; j < n_old; ++j) {
      status[j] = engine.column_status(j);
      reduced[j] = engine.reduced_cost(j);
    }

    engine.append_rows(grown);
    const std::string where = "seed " + std::to_string(seed);
    expect_inverse_of_basis(grown, engine, where);
    expect_rows_balance(grown, engine, where);
    for (Index j = 0; j < n_old; ++j) {
      EXPECT_EQ(engine.column_status(j), status[j])
          << where << ", column " << j;
      EXPECT_EQ(engine.reduced_cost(j), reduced[j])
          << where << ", column " << j;
    }
    const std::vector<Index> basic = engine.snapshot_basis().basic_in_row;
    bool violated = false;
    for (Index i = sf.num_rows; i < grown.num_rows; ++i) {
      const Index logical = grown.num_structural + i;
      EXPECT_EQ(basic[i], logical) << where << ", row " << i;
      EXPECT_EQ(engine.column_status(logical), VStat::kBasic) << where;
      EXPECT_EQ(engine.reduced_cost(logical), 0.0) << where;
      violated = violated ||
                 engine.column_value(logical) < grown.lb[logical] - kTol;
    }
    EXPECT_TRUE(violated) << where;
  }
}

TEST(AppendRowsProperty, ResumeMatchesColdSolveOfGrownForm) {
  int rounds_checked = 0;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    support::Rng rng(seed * 40503ull + 17);
    Model model = random_packing_lp(rng);
    // One standard form per round, oldest first: the engine only ever
    // references the newest.
    std::vector<std::unique_ptr<StandardForm>> forms;
    forms.push_back(
        std::make_unique<StandardForm>(StandardForm::build(model)));
    SimplexEngine engine(*forms.back());
    ASSERT_EQ(engine.solve({}), SolveStatus::kOptimal) << "seed " << seed;

    SimplexOptions options;
    if (seed % 2 == 0) options.refactor_interval = 2;
    const int rounds = static_cast<int>(rng.uniform_int(1, 3));
    for (int round = 0; round < rounds; ++round) {
      if (append_violated_packing_rows(model, engine.structural_solution(),
                                       rng) == 0) {
        break;
      }
      forms.push_back(
          std::make_unique<StandardForm>(StandardForm::build(model)));
      const StandardForm& grown = *forms.back();
      engine.append_rows(grown);
      const std::string where =
          "seed " + std::to_string(seed) + ", round " + std::to_string(round);
      ASSERT_EQ(engine.solve(options), SolveStatus::kOptimal) << where;

      SimplexEngine cold(grown);
      ASSERT_EQ(cold.solve({}), SolveStatus::kOptimal) << where;
      ++rounds_checked;
      const double objective = cold.objective_value();
      EXPECT_NEAR(engine.objective_value(), objective,
                  1e-7 * (1.0 + std::abs(objective)))
          << where;
      const std::vector<double> x = engine.structural_solution();
      const std::vector<double> x_cold = cold.structural_solution();
      expect_feasible(model, x, where);
      for (Index j = 0; j < grown.num_cols(); ++j) {
        if (j < grown.num_structural) {
          EXPECT_NEAR(x[j], x_cold[j], 1e-6) << where << ", column " << j;
        }
        // Structural reduced costs, and for logicals the row duals.
        EXPECT_NEAR(engine.reduced_cost(j), cold.reduced_cost(j), 1e-6)
            << where << ", column " << j;
      }
    }
  }
  // Most seeds reach at least one appended round.
  EXPECT_GT(rounds_checked, kSeeds);
}

TEST(AppendRowsProperty, DegenerateRowsResumeToTheColdObjective) {
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    support::Rng rng(seed * 7919ull + 3);
    const int vars = static_cast<int>(rng.uniform_int(2, 14));
    Model model;
    for (int j = 0; j < vars; ++j) {
      model.add_variable(0, 10, static_cast<double>(rng.uniform_int(-10, 10)));
    }
    // Rows tight at the box midpoint x = 5 half the time, so the
    // midpoint stays feasible and vertices tie.
    const int rows = static_cast<int>(rng.uniform_int(1, 8));
    for (int i = 0; i < rows; ++i) {
      LinExpr expr;
      double mid = 0.0;
      for (int j = 0; j < vars; ++j) {
        const double a = static_cast<double>(rng.uniform_int(-5, 5));
        if (a != 0.0 && rng.bernoulli(0.5)) {
          expr.add(j, a);
          mid += 5.0 * a;
        }
      }
      if (expr.empty()) continue;
      model.add_constraint(expr, Sense::kLessEqual,
                           mid + (rng.bernoulli(0.5) ? 0.0 : 7.0));
    }
    const StandardForm sf = StandardForm::build(model);
    SimplexEngine engine(sf);
    ASSERT_EQ(engine.solve({}), SolveStatus::kOptimal) << "seed " << seed;
    const std::vector<double> x = engine.structural_solution();

    // Cut rows between the midpoint's activity and the optimum's, with
    // integer coefficients; each is duplicated with probability 1/3.
    int added = 0;
    for (int k = 0; k < 3; ++k) {
      LinExpr expr;
      double at_x = 0.0, at_mid = 0.0;
      for (int j = 0; j < vars; ++j) {
        const double a = static_cast<double>(rng.uniform_int(-4, 4));
        if (a == 0.0) continue;
        expr.add(j, a);
        at_x += a * x[j];
        at_mid += 5.0 * a;
      }
      if (std::abs(at_x - at_mid) < 1e-3) continue;
      const double sign = at_x > at_mid ? 1.0 : -1.0;
      LinExpr cut;
      for (const Term& t : expr.terms()) cut.add(t.var, sign * t.coef);
      const double rhs = sign * at_mid +
                         0.25 * static_cast<double>(rng.uniform_int(0, 3)) *
                             (sign * at_x - sign * at_mid);
      model.add_constraint(cut, Sense::kLessEqual, rhs);
      if (rng.bernoulli(1.0 / 3.0)) {
        model.add_constraint(cut, Sense::kLessEqual, rhs);
      }
      ++added;
    }
    if (added == 0) continue;
    const StandardForm grown = StandardForm::build(model);
    engine.append_rows(grown);
    const std::string where = "seed " + std::to_string(seed);
    expect_inverse_of_basis(grown, engine, where);
    ASSERT_EQ(engine.solve({}), SolveStatus::kOptimal) << where;

    SimplexEngine cold(grown);
    ASSERT_EQ(cold.solve({}), SolveStatus::kOptimal) << where;
    EXPECT_NEAR(engine.objective_value(), cold.objective_value(),
                1e-7 * (1.0 + std::abs(cold.objective_value())))
        << where;
    expect_feasible(model, engine.structural_solution(), where);
  }
}

}  // namespace
}  // namespace gmm::lp
