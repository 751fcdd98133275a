// Certificate wall for the LP engine (300 seeds per property).  Every
// answer is checked against facts this test computes from the Model and
// its StandardForm, never against another solver:
//
//   * primal: x satisfies the Model's rows and bounds within 1e-7, and
//     the reported objective equals c.x;
//   * dual: the row duals y_i = -d(logical i), read from the logical
//     columns' reduced costs, reproduce every structural reduced cost
//     d_j = c_j - y.A_j, each column's reduced cost has the sign its
//     status requires (0 when basic or free, >= 0 at a lower bound,
//     <= 0 at an upper one), and the dual bound those reduced costs
//     imply equals the objective — together a proof of optimality;
//   * infeasibility: an instance is infeasible exactly when it was built
//     with a contradictory equality pair.
//
// The generators produce DEGENERATE instances (rows tight at the box
// midpoint, integer data with exact ties) and REDUNDANT rows (duplicated
// constraints, which make basis matrices rank-deficient).  The
// properties:
//
//   1. Random LPs solve to a certified optimum.
//   2. Possibly-infeasible instances are infeasible exactly when built so,
//      and certified otherwise.
//   3. The branch-and-bound path (solve, tighten one bound, refresh,
//      re-solve warm) matches a cold solve of the tightened model.
//   4. With lu.refactor:singular@once armed and a refactorization every
//      two pivots, a basis repair inside solve() still ends at a
//      certified optimum.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "lp/model.hpp"
#include "lp/simplex.hpp"
#include "lp/standard_form.hpp"
#include "support/fault.hpp"
#include "support/rng.hpp"

namespace gmm::lp {
namespace {

constexpr int kSeeds = 300;
constexpr double kTol = 1e-7;

/// Random bounded LP with adversarial structure: integer data (exact
/// ties), rows tight at the box midpoint with probability 1/3 (primal
/// degeneracy), and each row duplicated with probability 1/5 (redundant
/// rows -> dependent basis columns).  Always bounded, and feasible at the
/// midpoint x = 5.
Model random_lp(int vars, int rows, std::uint64_t seed) {
  support::Rng rng(seed);
  Model model;
  for (int j = 0; j < vars; ++j) {
    model.add_variable(0, 10, static_cast<double>(rng.uniform_int(-10, 10)));
  }
  for (int i = 0; i < rows; ++i) {
    LinExpr expr;
    double mid = 0;
    for (int j = 0; j < vars; ++j) {
      if (rng.bernoulli(0.4)) {
        const double a = static_cast<double>(rng.uniform_int(-5, 5));
        if (a != 0) {
          expr.add(j, a);
          mid += 5 * a;
        }
      }
    }
    if (expr.empty()) {
      expr.add(static_cast<Index>(rng.uniform_int(0, vars - 1)), 1.0);
      mid = 5.0;
    }
    const double slack =
        rng.bernoulli(1.0 / 3.0)
            ? 0.0  // tight at the midpoint: degenerate vertex candidates
            : static_cast<double>(rng.uniform_int(1, 30));
    model.add_constraint(expr, Sense::kLessEqual, mid + slack);
    if (rng.bernoulli(0.2)) {
      model.add_constraint(expr, Sense::kLessEqual, mid + slack);  // redundant
    }
  }
  return model;
}

/// random_lp plus a pair of equality rows over one expression.  The first
/// holds at the midpoint x = 5; with probability 1/2 the second names a
/// different right-hand side, an exactly contradictory system.  Otherwise
/// the midpoint satisfies every row, so the instance is feasible.
struct MaybeInfeasible {
  Model model;
  bool infeasible = false;
};

MaybeInfeasible random_maybe_infeasible_lp(int vars, std::uint64_t seed) {
  support::Rng rng(seed);
  MaybeInfeasible out;
  out.model = random_lp(vars, static_cast<int>(rng.uniform_int(1, 6)),
                        seed ^ 0x9e3779b97f4a7c15ull);
  LinExpr expr;
  double rhs = 0.0;
  for (int j = 0; j < vars; ++j) {
    const double a = static_cast<double>(rng.uniform_int(1, 3));
    expr.add(j, a);
    rhs += 5 * a;
  }
  out.model.add_constraint(expr, Sense::kEqual, rhs);
  out.infeasible = rng.bernoulli(0.5);
  const double rhs2 =
      out.infeasible ? rhs + static_cast<double>(rng.uniform_int(1, 5)) : rhs;
  out.model.add_constraint(expr, Sense::kEqual, rhs2);
  return out;
}

struct Dims {
  int vars = 0;
  int rows = 0;
};

Dims random_dims(support::Rng& rng) {
  return {static_cast<int>(rng.uniform_int(2, 14)),
          static_cast<int>(rng.uniform_int(1, 10))};
}

/// Check that `engine`, just returned kOptimal on the LP `model` (whose
/// standard form is `sf`), holds a primal- and dual-feasible basis whose
/// objective equals the dual bound.  Any violation fails the test with
/// `where` in the message.
void expect_certified_optimum(const Model& model, const StandardForm& sf,
                              const SimplexEngine& engine,
                              const std::string& where) {
  const Index n = sf.num_structural;
  const Index m = sf.num_rows;

  // Primal: bounds, rows, objective = c.x.
  const std::vector<double> x = engine.structural_solution();
  ASSERT_EQ(x.size(), static_cast<std::size_t>(n)) << where;
  for (Index j = 0; j < n; ++j) {
    EXPECT_GE(x[j], model.var_lb(j) - kTol) << where << ", column " << j;
    EXPECT_LE(x[j], model.var_ub(j) + kTol) << where << ", column " << j;
  }
  for (Index i = 0; i < m; ++i) {
    const double activity = model.row_activity(i, x);
    const double scale = 1.0 + std::abs(activity);
    EXPECT_GE(activity, model.row_lb(i) - kTol * scale)
        << where << ", row " << i;
    EXPECT_LE(activity, model.row_ub(i) + kTol * scale)
        << where << ", row " << i;
  }
  const double objective = engine.objective_value();
  EXPECT_NEAR(objective, model.objective_value(x),
              kTol * (1.0 + std::abs(objective)))
      << where;

  // Dual: y from the logicals (cost 0, column e_i, so d = -y_i); every
  // reduced cost recomputed as c_j - y.A_j on the scaled rows.
  std::vector<double> y(m);
  for (Index i = 0; i < m; ++i) y[i] = -engine.reduced_cost(n + i);
  std::vector<double> d(sf.num_cols());
  for (Index j = 0; j < n; ++j) {
    double dot = 0.0;
    double magnitude = std::abs(sf.cost[j]);
    for (std::size_t k = sf.col_start[j]; k < sf.col_start[j + 1]; ++k) {
      dot += y[sf.row_index[k]] * sf.value[k];
      magnitude += std::abs(y[sf.row_index[k]] * sf.value[k]);
    }
    d[j] = sf.cost[j] - dot;
    EXPECT_NEAR(engine.reduced_cost(j), d[j], kTol * (1.0 + magnitude))
        << where << ", column " << j;
  }
  for (Index i = 0; i < m; ++i) d[n + i] = -y[i];

  // Sign per status, and the dual bound sum_j d_j * (the bound column j
  // sits on): a lower bound on c.x' for every feasible x' when the signs
  // hold, so meeting the objective proves optimality.
  double dual_bound = 0.0;
  for (Index j = 0; j < sf.num_cols(); ++j) {
    switch (engine.column_status(j)) {
      case VStat::kBasic:
      case VStat::kFree:
        EXPECT_NEAR(d[j], 0.0, kTol) << where << ", column " << j;
        break;
      case VStat::kAtLower:
        EXPECT_GE(d[j], -kTol) << where << ", column " << j;
        dual_bound += d[j] * sf.lb[j];
        break;
      case VStat::kAtUpper:
        EXPECT_LE(d[j], kTol) << where << ", column " << j;
        dual_bound += d[j] * sf.ub[j];
        break;
      case VStat::kFixed:
        dual_bound += d[j] * sf.lb[j];
        break;
    }
  }
  EXPECT_NEAR(dual_bound, objective, 1e-6 * (1.0 + std::abs(objective)))
      << where;
}

TEST(LpCertificateProperty, RandomLpsSolveToCertifiedOptima) {
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    support::Rng rng(seed);
    const Dims dims = random_dims(rng);
    const Model model = random_lp(dims.vars, dims.rows, seed * 7919);
    const StandardForm sf = StandardForm::build(model);

    SimplexEngine engine(sf);
    ASSERT_EQ(engine.solve({}), SolveStatus::kOptimal) << "seed " << seed;
    expect_certified_optimum(model, sf, engine,
                             "seed " + std::to_string(seed));
  }
}

TEST(LpCertificateProperty, InfeasibleExactlyWhenBuiltContradictory) {
  int infeasible = 0;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    support::Rng rng(seed + 2'000'000);
    const int vars = static_cast<int>(rng.uniform_int(2, 10));
    const MaybeInfeasible built =
        random_maybe_infeasible_lp(vars, seed * 104729);
    const StandardForm sf = StandardForm::build(built.model);

    SimplexEngine engine(sf);
    const SolveStatus status = engine.solve({});
    if (built.infeasible) {
      ++infeasible;
      EXPECT_EQ(status, SolveStatus::kInfeasible) << "seed " << seed;
    } else {
      ASSERT_EQ(status, SolveStatus::kOptimal) << "seed " << seed;
      expect_certified_optimum(built.model, sf, engine,
                               "seed " + std::to_string(seed));
    }
  }
  // Both sides of the property are exercised.
  EXPECT_GT(infeasible, kSeeds / 4);
  EXPECT_LT(infeasible, 3 * kSeeds / 4);
}

TEST(LpCertificateProperty, WarmRestartAfterBoundChangeMatchesColdSolve) {
  // The branch & bound hot path: solve, tighten one bound, refresh,
  // re-solve warm.  The warm engine must reach the status of a fresh
  // engine on the tightened model, with a certified optimum when one
  // exists.
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    support::Rng rng(seed + 6'000'000);
    const Dims dims = random_dims(rng);
    const Model model = random_lp(dims.vars, dims.rows, seed * 32452843);
    const StandardForm sf = StandardForm::build(model);

    SimplexEngine warm(sf);
    ASSERT_EQ(warm.solve({}), SolveStatus::kOptimal) << "seed " << seed;

    const Index j = static_cast<Index>(rng.uniform_int(0, dims.vars - 1));
    const bool up = rng.bernoulli(0.5);
    const double lb = up ? 6.0 : 0.0;
    const double ub = up ? 10.0 : 4.0;
    warm.set_column_bounds(j, lb, ub);
    warm.refresh_basic_solution();
    const SolveStatus warm_status = warm.solve({});

    Model tightened = model;
    tightened.set_var_bounds(j, lb, ub);
    const StandardForm tightened_sf = StandardForm::build(tightened);
    SimplexEngine cold(tightened_sf);
    const SolveStatus cold_status = cold.solve({});

    ASSERT_EQ(warm_status, cold_status) << "seed " << seed;
    if (cold_status != SolveStatus::kOptimal) continue;
    EXPECT_NEAR(warm.objective_value(), cold.objective_value(),
                1e-6 * (1.0 + std::abs(cold.objective_value())))
        << "seed " << seed;
    // The tightened standard form differs from `sf` only in column j's
    // bounds, which are the warm engine's working bounds.
    expect_certified_optimum(tightened, tightened_sf, warm,
                             "warm, seed " + std::to_string(seed));
    expect_certified_optimum(tightened, tightened_sf, cold,
                             "cold, seed " + std::to_string(seed));
  }
}

/// Disarms the process-global fault registry on scope exit.
struct ArmedFaults {
  explicit ArmedFaults(const std::string& spec) {
    std::string error;
    armed = support::global_faults().arm(spec, error);
  }
  ~ArmedFaults() { support::global_faults().disarm(); }
  bool armed = false;
};

TEST(LpCertificateProperty, SingularRepairInsideSolveEndsCertified) {
  // One injected singular refactorization per seed.  With a
  // refactorization every two pivots it lands inside solve() whenever
  // the solve takes two pivots or more; the repair evicts a basic column
  // to a bound without regard to its reduced cost, which the engine must
  // repair before pivoting on.
  SimplexOptions options;
  options.refactor_interval = 2;
  int fired = 0;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    support::Rng rng(seed);
    const Dims dims = random_dims(rng);
    const Model model = random_lp(dims.vars, dims.rows, seed * 7919);
    const StandardForm sf = StandardForm::build(model);

    SimplexEngine reference(sf);
    ASSERT_EQ(reference.solve({}), SolveStatus::kOptimal) << "seed " << seed;

    const ArmedFaults faults("lu.refactor:singular@once");
    ASSERT_TRUE(faults.armed);
    SimplexEngine engine(sf);
    ASSERT_EQ(engine.solve(options), SolveStatus::kOptimal) << "seed " << seed;
    if (support::global_faults().total_fires() == 0) continue;
    ++fired;
    const std::string where = "armed, seed " + std::to_string(seed);
    expect_certified_optimum(model, sf, engine, where);
    EXPECT_NEAR(engine.objective_value(), reference.objective_value(),
                1e-6 * (1.0 + std::abs(reference.objective_value())))
        << where;
  }
  // Not vacuous: the fault fires inside most seeds' solves.
  EXPECT_GT(fired, kSeeds / 3);
}

}  // namespace
}  // namespace gmm::lp
