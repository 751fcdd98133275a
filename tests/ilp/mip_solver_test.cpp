#include "ilp/mip_solver.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "support/rng.hpp"

namespace gmm::ilp {
namespace {

using lp::Index;
using lp::LinExpr;
using lp::Model;
using lp::Sense;
using lp::SolveStatus;
using lp::VarType;

// ---- exact reference solvers for small instances -----------------------

/// 0/1 knapsack by dynamic programming over integer weights.
std::int64_t knapsack_dp(const std::vector<std::int64_t>& value,
                         const std::vector<std::int64_t>& weight,
                         std::int64_t capacity) {
  std::vector<std::int64_t> best(capacity + 1, 0);
  for (std::size_t i = 0; i < value.size(); ++i) {
    for (std::int64_t w = capacity; w >= weight[i]; --w) {
      best[w] = std::max(best[w], best[w - weight[i]] + value[i]);
    }
  }
  return best[capacity];
}

TEST(MipSolver, TinyKnapsack) {
  // max 10a + 13b + 7c s.t. 3a + 4b + 2c <= 6  => {b, c} with value 20.
  Model m;
  const Index a = m.add_binary(-10);
  const Index b = m.add_binary(-13);
  const Index c = m.add_binary(-7);
  LinExpr w;
  w.add(a, 3);
  w.add(b, 4);
  w.add(c, 2);
  m.add_constraint(w, Sense::kLessEqual, 6);
  const MipResult r = solve_mip(m);
  ASSERT_EQ(r.status, SolveStatus::kOptimal);
  EXPECT_NEAR(r.objective, -20.0, 1e-6);
  EXPECT_NEAR(r.x[a], 0.0, 1e-6);
  EXPECT_NEAR(r.x[b], 1.0, 1e-6);
  EXPECT_NEAR(r.x[c], 1.0, 1e-6);
}

class KnapsackSweep : public ::testing::TestWithParam<int> {};

TEST_P(KnapsackSweep, MatchesDynamicProgramming) {
  support::Rng rng(500 + GetParam());
  const int n = static_cast<int>(rng.uniform_int(4, 18));
  std::vector<std::int64_t> value(n), weight(n);
  std::int64_t total = 0;
  for (int i = 0; i < n; ++i) {
    value[i] = rng.uniform_int(1, 60);
    weight[i] = rng.uniform_int(1, 30);
    total += weight[i];
  }
  const std::int64_t capacity = std::max<std::int64_t>(1, total / 2);

  Model m;
  LinExpr w;
  for (int i = 0; i < n; ++i) {
    const Index xi = m.add_binary(static_cast<double>(-value[i]));
    w.add(xi, static_cast<double>(weight[i]));
  }
  m.add_constraint(w, Sense::kLessEqual, static_cast<double>(capacity));
  const MipResult r = solve_mip(m);
  ASSERT_EQ(r.status, SolveStatus::kOptimal) << "seed " << GetParam();
  EXPECT_NEAR(-r.objective,
              static_cast<double>(knapsack_dp(value, weight, capacity)),
              1e-6);
  // The incumbent must genuinely satisfy the knapsack.
  double used = 0;
  for (int i = 0; i < n; ++i) used += r.x[i] * static_cast<double>(weight[i]);
  EXPECT_LE(used, static_cast<double>(capacity) + 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Sweep, KnapsackSweep, ::testing::Range(0, 30));

/// Brute-force assignment problem (n <= 7) by permutation enumeration.
double assignment_brute_force(const std::vector<std::vector<double>>& cost) {
  const int n = static_cast<int>(cost.size());
  std::vector<int> perm(n);
  for (int i = 0; i < n; ++i) perm[i] = i;
  double best = std::numeric_limits<double>::infinity();
  do {
    double total = 0;
    for (int i = 0; i < n; ++i) total += cost[i][perm[i]];
    best = std::min(best, total);
  } while (std::next_permutation(perm.begin(), perm.end()));
  return best;
}

class AssignmentSweep : public ::testing::TestWithParam<int> {};

TEST_P(AssignmentSweep, MatchesBruteForce) {
  support::Rng rng(900 + GetParam());
  const int n = static_cast<int>(rng.uniform_int(2, 7));
  std::vector<std::vector<double>> cost(n, std::vector<double>(n));
  for (auto& row : cost) {
    for (double& c : row) c = static_cast<double>(rng.uniform_int(0, 50));
  }
  Model m;
  std::vector<std::vector<Index>> x(n, std::vector<Index>(n));
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) x[i][j] = m.add_binary(cost[i][j]);
  }
  for (int i = 0; i < n; ++i) {
    LinExpr row_sum, col_sum;
    for (int j = 0; j < n; ++j) {
      row_sum.add(x[i][j], 1.0);
      col_sum.add(x[j][i], 1.0);
    }
    m.add_constraint(row_sum, Sense::kEqual, 1);
    m.add_constraint(col_sum, Sense::kEqual, 1);
  }
  const MipResult r = solve_mip(m);
  ASSERT_EQ(r.status, SolveStatus::kOptimal) << "seed " << GetParam();
  EXPECT_NEAR(r.objective, assignment_brute_force(cost), 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Sweep, AssignmentSweep, ::testing::Range(0, 20));

/// Brute-force set cover over <= 14 subsets.
double set_cover_brute_force(const std::vector<std::uint32_t>& sets,
                             const std::vector<double>& cost,
                             std::uint32_t universe) {
  const int n = static_cast<int>(sets.size());
  double best = std::numeric_limits<double>::infinity();
  for (std::uint32_t mask = 0; mask < (1u << n); ++mask) {
    std::uint32_t covered = 0;
    double total = 0;
    for (int i = 0; i < n; ++i) {
      if (mask & (1u << i)) {
        covered |= sets[i];
        total += cost[i];
      }
    }
    if ((covered & universe) == universe) best = std::min(best, total);
  }
  return best;
}

class SetCoverSweep : public ::testing::TestWithParam<int> {};

TEST_P(SetCoverSweep, MatchesBruteForce) {
  support::Rng rng(1300 + GetParam());
  const int elements = static_cast<int>(rng.uniform_int(4, 10));
  const int n = static_cast<int>(rng.uniform_int(4, 14));
  const std::uint32_t universe = (1u << elements) - 1;
  std::vector<std::uint32_t> sets(n);
  std::vector<double> cost(n);
  std::uint32_t reachable = 0;
  for (int i = 0; i < n; ++i) {
    for (int e = 0; e < elements; ++e) {
      if (rng.bernoulli(0.35)) sets[i] |= 1u << e;
    }
    cost[i] = static_cast<double>(rng.uniform_int(1, 20));
    reachable |= sets[i];
  }
  if (reachable != universe) {
    sets[0] |= universe & ~reachable;  // force coverability
  }

  Model m;
  for (int i = 0; i < n; ++i) m.add_binary(cost[i]);
  for (int e = 0; e < elements; ++e) {
    LinExpr cover;
    for (int i = 0; i < n; ++i) {
      if (sets[i] & (1u << e)) cover.add(i, 1.0);
    }
    m.add_constraint(cover, Sense::kGreaterEqual, 1);
  }
  const MipResult r = solve_mip(m);
  ASSERT_EQ(r.status, SolveStatus::kOptimal) << "seed " << GetParam();
  EXPECT_NEAR(r.objective, set_cover_brute_force(sets, cost, universe), 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Sweep, SetCoverSweep, ::testing::Range(0, 20));

// ---- structural / edge-case tests ---------------------------------------

TEST(MipSolver, InfeasibleIntegerFeasibleRelaxation) {
  // x + y = 1.5 has LP solutions but no binary ones.
  Model m;
  const Index x = m.add_binary(1);
  const Index y = m.add_binary(1);
  LinExpr e;
  e.add(x, 1.0);
  e.add(y, 1.0);
  m.add_constraint(e, Sense::kEqual, 1.5);
  const MipResult r = solve_mip(m);
  EXPECT_EQ(r.status, SolveStatus::kInfeasible);
}

TEST(MipSolver, PureLpPassThrough) {
  Model m;
  const Index x = m.add_variable(0, 3, -1.0);
  m.add_constraint(LinExpr(x, 2.0), Sense::kLessEqual, 4);
  const MipResult r = solve_mip(m);
  ASSERT_EQ(r.status, SolveStatus::kOptimal);
  EXPECT_NEAR(r.objective, -2.0, 1e-8);
}

TEST(MipSolver, GeneralIntegerVariables) {
  // min -(3x + 2y), 2x + y <= 7, x <= 2y, x,y integer in [0,5].
  Model m;
  const Index x = m.add_variable(0, 5, -3, VarType::kInteger);
  const Index y = m.add_variable(0, 5, -2, VarType::kInteger);
  LinExpr c1;
  c1.add(x, 2.0);
  c1.add(y, 1.0);
  m.add_constraint(c1, Sense::kLessEqual, 7);
  LinExpr c2;
  c2.add(x, 1.0);
  c2.add(y, -2.0);
  m.add_constraint(c2, Sense::kLessEqual, 0);
  const MipResult r = solve_mip(m);
  ASSERT_EQ(r.status, SolveStatus::kOptimal);
  // Enumerate: y=5 allows x=1 (2x+y=7, x<=2y), giving -(3+10) = -13.
  EXPECT_NEAR(r.objective, -13.0, 1e-6);
}

TEST(MipSolver, EqualityPartition) {
  // Pick a subset of {3,5,7,9} summing to exactly 12 at minimum count.
  const std::vector<double> items{3, 5, 7, 9};
  Model m;
  LinExpr sum;
  for (std::size_t i = 0; i < items.size(); ++i) {
    sum.add(m.add_binary(1.0), items[i]);
  }
  m.add_constraint(sum, Sense::kEqual, 12);
  const MipResult r = solve_mip(m);
  ASSERT_EQ(r.status, SolveStatus::kOptimal);
  EXPECT_NEAR(r.objective, 2.0, 1e-6);  // {3,9} or {5,7}
}

TEST(MipSolver, NodeLimitReportsHonestStatus) {
  support::Rng rng(31337);
  // A knapsack big enough that one node cannot close it.
  Model m;
  LinExpr w;
  for (int i = 0; i < 30; ++i) {
    const Index xi = m.add_binary(static_cast<double>(-rng.uniform_int(1, 100)));
    w.add(xi, static_cast<double>(rng.uniform_int(1, 50)));
  }
  m.add_constraint(w, Sense::kLessEqual, 100);
  MipOptions options;
  options.node_limit = 1;
  const MipResult r = solve_mip(m, options);
  EXPECT_TRUE(r.status == SolveStatus::kNodeLimit ||
              r.status == SolveStatus::kFeasible);
  if (r.status == SolveStatus::kFeasible) {
    EXPECT_TRUE(r.has_incumbent());
    EXPECT_GE(r.gap(), 0.0);
  }
}

TEST(MipSolver, PrimalHeuristicAccepted) {
  // Heuristic hands over a feasible (suboptimal) point; the solver must
  // accept it as an incumbent and still prove the true optimum of -20.
  Model m;
  const Index a = m.add_binary(-10);
  const Index b = m.add_binary(-13);
  const Index c = m.add_binary(-7);
  LinExpr w;
  w.add(a, 3);
  w.add(b, 4);
  w.add(c, 2);
  m.add_constraint(w, Sense::kLessEqual, 6);
  MipOptions options;
  options.primal_heuristic =
      [](const std::vector<double>&) -> std::optional<std::vector<double>> {
    return std::vector<double>{1.0, 0.0, 1.0};  // value 17, feasible
  };
  const MipResult r = solve_mip(m, options);
  ASSERT_EQ(r.status, SolveStatus::kOptimal);
  EXPECT_NEAR(r.objective, -20.0, 1e-6);
}

TEST(MipSolver, RejectsInfeasiblePrimalHeuristic) {
  Model m;
  const Index a = m.add_binary(-10);
  const Index b = m.add_binary(-13);
  LinExpr w;
  w.add(a, 3);
  w.add(b, 4);
  m.add_constraint(w, Sense::kLessEqual, 4);
  MipOptions options;
  options.primal_heuristic =
      [](const std::vector<double>&) -> std::optional<std::vector<double>> {
    return std::vector<double>{1.0, 1.0};  // violates the row
  };
  const MipResult r = solve_mip(m, options);
  ASSERT_EQ(r.status, SolveStatus::kOptimal);
  EXPECT_NEAR(r.objective, -13.0, 1e-6);  // heuristic must not corrupt it
}

TEST(MipSolver, DeterministicAcrossRuns) {
  support::Rng rng(2718);
  Model m;
  LinExpr w;
  for (int i = 0; i < 25; ++i) {
    const Index xi = m.add_binary(static_cast<double>(-rng.uniform_int(1, 40)));
    w.add(xi, static_cast<double>(rng.uniform_int(1, 20)));
  }
  m.add_constraint(w, Sense::kLessEqual, 60);
  const MipResult r1 = solve_mip(m);
  const MipResult r2 = solve_mip(m);
  ASSERT_EQ(r1.status, SolveStatus::kOptimal);
  EXPECT_EQ(r1.nodes, r2.nodes);
  EXPECT_DOUBLE_EQ(r1.objective, r2.objective);
  EXPECT_EQ(r1.x, r2.x);
}

TEST(MipSolver, PresolveOnOffAgree) {
  support::Rng rng(424242);
  Model m;
  LinExpr w;
  for (int i = 0; i < 18; ++i) {
    const Index xi = m.add_binary(static_cast<double>(-rng.uniform_int(1, 30)));
    w.add(xi, static_cast<double>(rng.uniform_int(1, 12)));
  }
  m.add_constraint(w, Sense::kLessEqual, 40);
  // Fix a couple of variables so presolve has work to do.
  m.set_var_bounds(0, 1, 1);
  m.set_var_bounds(1, 0, 0);
  MipOptions with, without;
  with.use_presolve = true;
  without.use_presolve = false;
  const MipResult a = solve_mip(m, with);
  const MipResult b = solve_mip(m, without);
  ASSERT_EQ(a.status, SolveStatus::kOptimal);
  ASSERT_EQ(b.status, SolveStatus::kOptimal);
  EXPECT_NEAR(a.objective, b.objective, 1e-6);
}

/// A 6 x 6 assignment problem with generic costs: its LP relaxation is
/// integral, so the search closes at the root node.
Model assignment_model() {
  constexpr int kN = 6;
  support::Rng rng(8675309);
  Model m;
  std::vector<std::vector<Index>> x(kN, std::vector<Index>(kN));
  for (int i = 0; i < kN; ++i) {
    for (int j = 0; j < kN; ++j) {
      x[i][j] = m.add_binary(static_cast<double>(rng.uniform_int(1, 97)));
    }
  }
  for (int i = 0; i < kN; ++i) {
    LinExpr row, col;
    for (int j = 0; j < kN; ++j) {
      row.add(x[i][j], 1.0);
      col.add(x[j][i], 1.0);
    }
    m.add_constraint(row, Sense::kEqual, 1.0);
    m.add_constraint(col, Sense::kEqual, 1.0);
  }
  return m;
}

TEST(MipSolver, RootClosedAtTheCutLoopPaysNoPivotAtTheFirstPop) {
  // The tree's first pop takes over the cut loop's engine, which already
  // sits at the root LP's optimum: the root is solved once, by the loop.
  const MipResult r = solve_mip(assignment_model());
  ASSERT_EQ(r.status, SolveStatus::kOptimal);
  EXPECT_EQ(r.nodes, 1);
  EXPECT_GT(r.lp_iterations, 0);
  EXPECT_EQ(r.basis.cold_pops, 1);
  EXPECT_EQ(r.basis.cold_pop_pivots, 0);
  EXPECT_EQ(r.basis.warm_pop_pivots, 0);
}

TEST(MipSolver, WithoutCutRoundsTheFirstPopSolvesTheRoot) {
  MipOptions options;
  options.max_cut_rounds = 0;
  const MipResult r = solve_mip(assignment_model(), options);
  ASSERT_EQ(r.status, SolveStatus::kOptimal);
  EXPECT_EQ(r.nodes, 1);
  EXPECT_GT(r.basis.cold_pop_pivots, 0);
  EXPECT_EQ(r.basis.cold_pop_pivots, r.lp_iterations);
  EXPECT_DOUBLE_EQ(r.objective, solve_mip(assignment_model()).objective);
}

}  // namespace
}  // namespace gmm::ilp
