// Lagrangian knapsack bound validity wall (see lagrangian.hpp).
//
// Property tests (300 seeds): random global models small enough to
// enumerate (3-9 structures x 3 bank types) with complete or two-clique
// conflict graphs, pins, a migration penalty and a no-good cut.  Against
// the enumerated optimum:
//  * with no incumbent the bound never exceeds the optimum, from the
//    cheapest-pair start and from random multipliers alike;
//  * with the repaired knapsack solutions accepted as incumbents, every
//    feasible solution below the final prune threshold is bounded by the
//    bound and satisfies every fixing, so the fixings never remove every
//    optimal assignment unless the incumbent is already optimal;
//  * map_global at rel_gap 0 returns the optimum.
// Table-3 checks: point 6 proves its optimum at gap 0 on one thread inside
// a 20 000-node budget, and two 1-thread solves of points 2, 6 and 9 repeat
// nodes, pivots, fixings and objective exactly.
#include "mapping/lagrangian.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <optional>
#include <vector>

#include "arch/device_catalog.hpp"
#include "mapping/global_mapper.hpp"
#include "support/rng.hpp"
#include "workload/table3_suite.hpp"

namespace gmm::mapping {
namespace {

constexpr int kSeeds = 300;

struct Instance {
  arch::Board board{"random"};
  design::Design design{"random"};
  GlobalOptions options;
};

/// Small ports budgets so the knapsacks bind; sizes spread so some pairs
/// are infeasible.
Instance random_instance(support::Rng& rng) {
  Instance inst;
  inst.board.add_bank_type(
      arch::on_chip_bank_type(*arch::find_device("XCV50")));
  inst.board.add_bank_type(arch::offchip_sram(rng.uniform_int(1, 3),
                                              std::int64_t{1} << 12, 16));
  inst.board.add_bank_type(arch::offchip_bulk(rng.uniform_int(1, 2),
                                              std::int64_t{1} << 16, 32));
  const auto n = static_cast<std::size_t>(rng.uniform_int(3, 9));
  for (std::size_t d = 0; d < n; ++d) {
    design::DataStructure s;
    s.name = "s" + std::to_string(d);
    s.depth = std::int64_t{1} << rng.uniform_int(6, 12);
    s.width = rng.uniform_int(1, 32);
    s.reads = rng.uniform_int(1, 20000);
    s.writes = rng.uniform_int(1, 20000);
    inst.design.add(s);
  }
  if (rng.bernoulli(0.5)) {
    inst.design.set_all_conflicting();
  } else {
    // Two cliques, no conflict across them.
    const auto split = static_cast<std::size_t>(
        rng.uniform_int(1, static_cast<std::int64_t>(n) - 1));
    for (std::size_t a = 0; a < n; ++a) {
      for (std::size_t b = a + 1; b < n; ++b) {
        if ((a < split) == (b < split)) inst.design.add_conflict(a, b);
      }
    }
  }
  return inst;
}

/// Prior assignment, pins, migration penalty and a no-good cut over
/// feasible pairs; false when some structure fits no type.
bool add_options(support::Rng& rng, const CostTable& table, Instance& inst) {
  const std::size_t n = inst.design.size();
  std::vector<int> prior(n, -1);
  for (std::size_t d = 0; d < n; ++d) {
    std::vector<int> feasible;
    for (std::size_t t = 0; t < table.num_types(); ++t) {
      if (table.feasible(d, t)) feasible.push_back(static_cast<int>(t));
    }
    if (feasible.empty()) return false;
    prior[d] = rng.pick(feasible);
  }
  inst.options.prior_type_of = prior;
  if (rng.bernoulli(0.5)) {
    inst.options.migration_penalty =
        static_cast<double>(rng.uniform_int(1, 5000));
  }
  if (rng.bernoulli(0.4)) inst.options.pinned_structures.push_back(rng.index(n));
  if (rng.bernoulli(0.5)) {
    const std::size_t a = rng.index(n);
    const std::size_t b = (a + 1 + rng.index(n - 1)) % n;
    inst.options.no_good_cuts.push_back(
        {{a, static_cast<std::size_t>(prior[a])},
         {b, static_cast<std::size_t>(prior[b])}});
  }
  return true;
}

struct Solution {
  std::vector<double> x;
  double objective = 0.0;
};

/// Every feasible assignment of the model under the pins' bounds.
std::vector<Solution> enumerate(const GlobalModel& global,
                                const std::vector<double>& lb,
                                const std::vector<double>& ub) {
  std::vector<Solution> out;
  const std::size_t n = global.z.size();
  std::vector<std::size_t> choice(n, 0);
  std::vector<double> x(static_cast<std::size_t>(global.model.num_vars()));
  const auto next_type = [&global](std::size_t d, std::size_t from) {
    while (from < global.z[d].size() &&
           global.z[d][from] == lp::kInvalidIndex) {
      ++from;
    }
    return from;
  };
  for (std::size_t d = 0; d < n; ++d) choice[d] = next_type(d, 0);
  while (true) {
    std::fill(x.begin(), x.end(), 0.0);
    for (std::size_t d = 0; d < n; ++d) x[global.z[d][choice[d]]] = 1.0;
    bool within = true;
    for (std::size_t j = 0; j < x.size(); ++j) {
      within = within && x[j] >= lb[j] && x[j] <= ub[j];
    }
    if (within && global.model.is_feasible(x, 1e-6)) {
      out.push_back({x, global.model.objective_value(x)});
    }
    std::size_t d = 0;
    for (; d < n; ++d) {
      choice[d] = next_type(d, choice[d] + 1);
      if (choice[d] < global.z[d].size()) break;
      choice[d] = next_type(d, 0);
    }
    if (d == n) return out;
  }
}

double tolerance(double value) { return 1e-6 * std::max(1.0, std::abs(value)); }

TEST(LagrangianProperty, BoundAndFixingsHoldAgainstEnumeration) {
  int checked = 0, fixing_runs = 0, closed_runs = 0;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    support::Rng rng(seed);
    Instance inst = random_instance(rng);
    const CostTable table(inst.design, inst.board);
    if (!add_options(rng, table, inst)) continue;
    const std::optional<GlobalModel> global =
        formulate_global(inst.design, inst.board, table, inst.options);
    ASSERT_TRUE(global.has_value()) << "seed " << seed;
    const lp::Model& model = global->model;
    const LagrangianBound lagrangian(inst.design, inst.board, table, model,
                                     global->z, global->cliques,
                                     global->uniqueness_rows);

    ilp::RelaxationQuery query;
    for (lp::Index j = 0; j < model.num_vars(); ++j) {
      query.lb.push_back(model.var_lb(j));
      query.ub.push_back(model.var_ub(j));
    }
    for (const std::size_t d : inst.options.pinned_structures) {
      const lp::Index v =
          global->z[d][static_cast<std::size_t>(inst.options.prior_type_of[d])];
      query.lb[v] = query.ub[v] = 1.0;
    }
    const std::vector<Solution> feasible =
        enumerate(*global, query.lb, query.ub);
    double optimum = lp::kInf;
    for (const Solution& s : feasible) optimum = std::min(optimum, s.objective);

    const double gaps[] = {0.0, 1e-4, 0.05};
    query.rel_gap = gaps[rng.index(3)];
    query.abs_gap = 1e-9;
    if (rng.bernoulli(0.5)) {
      // Arbitrary multipliers: L(lambda) bounds the optimum for all.
      query.row_duals.resize(static_cast<std::size_t>(model.num_rows()));
      for (double& y : query.row_duals) {
        y = static_cast<double>(rng.uniform_int(-20000, 200000));
      }
    }

    // Pure relaxation: no incumbent, every offer refused.
    query.incumbent = lp::kInf;
    query.offer_incumbent = [](const std::vector<double>&) { return lp::kInf; };
    const ilp::RelaxationResult pure = lagrangian(query);
    EXPECT_TRUE(pure.fixings.empty()) << "seed " << seed;
    if (!feasible.empty()) {
      EXPECT_LE(pure.bound, optimum + tolerance(optimum)) << "seed " << seed;
    }

    // Offers accepted after validation, from no incumbent or the worst
    // feasible solution.
    double incumbent = lp::kInf;
    if (!feasible.empty() && rng.bernoulli(0.5)) {
      for (const Solution& s : feasible) {
        incumbent = incumbent < lp::kInf ? std::max(incumbent, s.objective)
                                         : s.objective;
      }
    }
    query.incumbent = incumbent;
    // Validated the way the solver validates any candidate (the repair
    // does not see no-good cuts, so some offers are refused).
    query.offer_incumbent = [&](const std::vector<double>& x) {
      bool within = x.size() == query.lb.size();
      for (std::size_t j = 0; within && j < x.size(); ++j) {
        within = x[j] >= query.lb[j] && x[j] <= query.ub[j];
      }
      if (within && model.is_feasible(x, 1e-6)) {
        incumbent = std::min(incumbent, model.objective_value(x));
      }
      return incumbent;
    };
    const ilp::RelaxationResult relaxed = lagrangian(query);
    const double threshold =
        ilp::prune_threshold(incumbent, query.rel_gap, query.abs_gap);
    bool optimal_survives = false;
    for (const Solution& s : feasible) {
      bool kept = true;
      for (const auto& [v, value] : relaxed.fixings) {
        kept = kept && s.x[v] == value;
      }
      if (s.objective <= optimum + tolerance(optimum)) {
        optimal_survives = optimal_survives || kept;
      }
      if (s.objective >= threshold) continue;
      EXPECT_GE(s.objective, relaxed.bound - tolerance(s.objective))
          << "seed " << seed;
      EXPECT_TRUE(kept) << "seed " << seed
                        << ": a fixing removes an improving solution";
    }
    if (!feasible.empty() && !optimal_survives) {
      // Only allowed when the incumbent is within the gap of the optimum.
      EXPECT_GE(optimum, threshold) << "seed " << seed;
    }
    fixing_runs += relaxed.fixings.empty() ? 0 : 1;
    closed_runs += relaxed.bound >= threshold ? 1 : 0;

    // End to end: the solver with the bound installed proves the optimum.
    GlobalOptions exact = inst.options;
    exact.mip.rel_gap = 0.0;
    exact.mip.num_threads = 1;
    const GlobalResult r = map_global(inst.design, inst.board, table, exact);
    if (feasible.empty()) {
      EXPECT_EQ(r.status, lp::SolveStatus::kInfeasible) << "seed " << seed;
    } else {
      ASSERT_EQ(r.status, lp::SolveStatus::kOptimal) << "seed " << seed;
      EXPECT_NEAR(r.mip.objective, optimum, tolerance(optimum))
          << "seed " << seed;
    }
    ++checked;
  }
  // The wall must actually exercise fixing and closing.
  EXPECT_GE(checked, kSeeds / 2);
  EXPECT_GT(fixing_runs, 0);
  EXPECT_GT(closed_runs, 0);
}

workload::Table3Instance paper_instance(int point) {
  return workload::build_instance(
      workload::table3_points()[static_cast<std::size_t>(point - 1)], 2001);
}

TEST(LagrangianTable3, Point6ProvesAtGapZeroWithinNodeBudget) {
  const workload::Table3Instance inst = paper_instance(6);
  const CostTable table(inst.design, inst.board);
  GlobalOptions options;
  options.mip.rel_gap = 0.0;
  options.mip.num_threads = 1;
  options.mip.node_limit = 20'000;
  const GlobalResult r = map_global(inst.design, inst.board, table, options);
  ASSERT_EQ(r.status, lp::SolveStatus::kOptimal);
  EXPECT_EQ(r.mip.stop_reason, lp::SolveStatus::kOptimal);
  EXPECT_DOUBLE_EQ(r.mip.objective, 470167.0);
  EXPECT_GT(r.mip.rc_fixed, 0);
}

TEST(LagrangianTable3, OneThreadSolvesRepeatExactly) {
  for (const int point : {2, 6, 9}) {
    const workload::Table3Instance inst = paper_instance(point);
    const CostTable table(inst.design, inst.board);
    GlobalOptions options;
    options.mip.num_threads = 1;
    options.mip.node_limit = 5'000;
    const GlobalResult a = map_global(inst.design, inst.board, table, options);
    const GlobalResult b = map_global(inst.design, inst.board, table, options);
    // Past the node count at which the search calls the bound.
    EXPECT_GE(a.mip.nodes, ilp::kRelaxationAfterNodes) << "point " << point;
    EXPECT_EQ(a.mip.nodes, b.mip.nodes) << "point " << point;
    EXPECT_EQ(a.mip.lp_iterations, b.mip.lp_iterations) << "point " << point;
    EXPECT_EQ(a.mip.rc_fixed, b.mip.rc_fixed) << "point " << point;
    EXPECT_EQ(a.mip.objective, b.mip.objective) << "point " << point;
    EXPECT_EQ(a.mip.best_bound, b.mip.best_bound) << "point " << point;
  }
}

}  // namespace
}  // namespace gmm::mapping
