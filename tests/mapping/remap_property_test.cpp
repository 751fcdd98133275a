// Near-miss remap wall: pins are part of the formulation and collapse in
// presolve (see remap.hpp).
//
// Property tests (300 seeds): a small random design (3-10 structures on
// 2-4 bank types, all-conflicting or with lifetime-derived conflicts), a
// cold solve, a traffic-only mutant of 1-2 structures and a random pin set
// among the unchanged ones.  At rel_gap 0:
//  * the remap's model objective equals that of the same pinned model
//    solved with use_presolve = false;
//  * every pinned structure keeps its prior type;
//  * presolving the pinned model leaves no pinned structure's column, and
//    when the pins leave every capacity row room for all free structures
//    at once, exactly the free structures' feasible pairs (a structure
//    with a single feasible pair is decided by its uniqueness row);
//  * the pinned formulation presolves, field by field, to what the
//    unpinned formulation with each pinned column's bounds at [1, 1]
//    presolves to, and remap places every structure as the bound-pinned
//    model's optimum does.
#include "mapping/remap.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "arch/device_catalog.hpp"
#include "ilp/mip_solver.hpp"
#include "lp/presolve.hpp"
#include "mapping/detailed_mapper.hpp"
#include "mapping/global_mapper.hpp"
#include "support/rng.hpp"

namespace gmm::mapping {
namespace {

constexpr int kSeeds = 300;
constexpr double kMigrationPenalty = 1e-3;  // the service's default

struct Case {
  arch::Board board{"random"};
  design::Design cold{"random"};
  design::Design mutant{"random"};
  std::vector<std::size_t> pinned;
};

/// Two to four of the bank-type presets, in a fixed order.
arch::Board random_board(support::Rng& rng) {
  std::vector<arch::BankType> pool = {
      arch::on_chip_bank_type(*arch::find_device("XCV300")),
      arch::offchip_sram(rng.uniform_int(2, 6), std::int64_t{1} << 12, 16),
      arch::offchip_bulk(rng.uniform_int(2, 4), std::int64_t{1} << 16, 32),
      arch::on_chip_bank_type(*arch::find_device("EPF10K70")),
  };
  const auto keep = static_cast<std::size_t>(rng.uniform_int(2, 4));
  while (pool.size() > keep) {
    pool.erase(pool.begin() +
               static_cast<std::ptrdiff_t>(rng.index(pool.size())));
  }
  arch::Board board("random");
  for (arch::BankType& type : pool) board.add_bank_type(std::move(type));
  return board;
}

Case random_case(support::Rng& rng) {
  Case c;
  c.board = random_board(rng);
  const auto n = static_cast<std::size_t>(rng.uniform_int(3, 10));
  const bool lifetimes = rng.bernoulli(0.5);
  for (std::size_t d = 0; d < n; ++d) {
    design::DataStructure s;
    s.name = "s" + std::to_string(d);
    s.depth = rng.uniform_int(32, 2048);
    s.width = rng.uniform_int(1, 16);
    s.reads = rng.uniform_int(1, 20000);
    s.writes = rng.uniform_int(1, 20000);
    if (lifetimes) {
      const std::int64_t start = rng.uniform_int(0, 20);
      s.lifetime = design::Lifetime{start, start + rng.uniform_int(1, 10)};
    }
    c.cold.add(s);
  }
  if (lifetimes) {
    c.cold.derive_conflicts_from_lifetimes();
  } else {
    c.cold.set_all_conflicting();
  }

  // Traffic-only mutant: 1-2 structures change; each unchanged one is
  // pinned with probability 3/4.
  std::vector<std::size_t> changed;
  const auto num_changed = static_cast<std::size_t>(
      rng.uniform_int(1, std::min<std::int64_t>(2, n)));
  while (changed.size() < num_changed) {
    const std::size_t d = rng.index(n);
    if (std::find(changed.begin(), changed.end(), d) == changed.end()) {
      changed.push_back(d);
    }
  }
  for (std::size_t d = 0; d < n; ++d) {
    design::DataStructure s = c.cold.at(d);
    if (std::find(changed.begin(), changed.end(), d) != changed.end()) {
      s.reads = s.reads * rng.uniform_int(2, 5);
      s.writes = s.writes * rng.uniform_int(1, 3) + 1;
    } else if (rng.bernoulli(0.75)) {
      c.pinned.push_back(d);
    }
    c.mutant.add(std::move(s));
  }
  for (const auto& [a, b] : c.cold.conflict_pairs()) {
    c.mutant.add_conflict(a, b);
  }
  return c;
}

PipelineOptions exact_pipeline() {
  PipelineOptions options;
  options.global.mip.rel_gap = 0.0;
  options.global.mip.num_threads = 1;
  return options;
}

RemapOptions remap_options(const Case& c, bool use_presolve) {
  RemapOptions options;
  options.pipeline = exact_pipeline();
  options.pipeline.global.mip.use_presolve = use_presolve;
  options.pinned_structures = c.pinned;
  options.migration_penalty = kMigrationPenalty;
  return options;
}

GlobalOptions near_miss_options(const Case& c, const std::vector<int>& prior) {
  GlobalOptions options;
  options.prior_type_of = prior;
  options.pinned_structures = c.pinned;
  options.migration_penalty = kMigrationPenalty;
  return options;
}

/// Reduced columns of the presolved pinned model, as (structure, type)
/// pairs.  `slack` is set when, after the pins, every capacity row has
/// room for the largest coefficient of every free structure at once.
std::set<std::pair<std::size_t, std::size_t>> presolved_pairs(
    const Case& c, const std::vector<int>& prior, bool& slack,
    bool& infeasible) {
  const CostTable table(c.mutant, c.board);
  const std::optional<GlobalModel> global = formulate_global(
      c.mutant, c.board, table, near_miss_options(c, prior));
  EXPECT_TRUE(global.has_value());
  const lp::Model& pinned = global->model;
  const std::vector<std::vector<lp::Index>>& z = global->z;

  std::vector<bool> is_pinned(c.mutant.size(), false);
  for (const std::size_t d : c.pinned) is_pinned[d] = true;
  std::vector<std::size_t> owner(static_cast<std::size_t>(pinned.num_vars()));
  for (std::size_t d = 0; d < z.size(); ++d) {
    for (const lp::Index j : z[d]) {
      if (j != lp::kInvalidIndex) owner[static_cast<std::size_t>(j)] = d;
    }
  }
  const std::set<lp::Index> uniqueness(global->uniqueness_rows.begin(),
                                       global->uniqueness_rows.end());
  slack = true;
  for (lp::Index i = 0; i < pinned.num_rows(); ++i) {
    if (uniqueness.count(i) != 0) continue;
    const lp::Model::RowView row = pinned.row(i);
    double residual = pinned.row_ub(i);
    std::vector<double> free_max(c.mutant.size(), 0.0);
    for (std::size_t k = 0; k < row.size; ++k) {
      const std::size_t d = owner[static_cast<std::size_t>(row.vars[k])];
      if (is_pinned[d]) {
        residual -= row.coefs[k];  // the pinned type's column, at 1
      } else {
        free_max[d] = std::max(free_max[d], row.coefs[k]);
      }
    }
    double demand = 0.0;
    for (const double w : free_max) demand += w;
    if (demand > residual) slack = false;
  }

  const lp::PresolveResult pre = lp::presolve(pinned);
  infeasible = pre.infeasible;
  std::set<std::pair<std::size_t, std::size_t>> pairs;
  for (std::size_t d = 0; d < z.size(); ++d) {
    for (std::size_t t = 0; t < z[d].size(); ++t) {
      if (z[d][t] != lp::kInvalidIndex &&
          pre.var_map[static_cast<std::size_t>(z[d][t])] != lp::kInvalidIndex) {
        pairs.emplace(d, t);
      }
    }
  }
  return pairs;
}

TEST(RemapProperty, PinsCollapseInPresolveAndKeepTheOptimum) {
  int solved = 0, exact_shape = 0, decided_outright = 0;
  for (int seed = 0; seed < kSeeds; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    support::Rng rng(static_cast<std::uint64_t>(seed) * 7919 + 17);
    const Case c = random_case(rng);
    const PipelineResult cold = map_pipeline(c.cold, c.board, exact_pipeline());
    if (cold.status != lp::SolveStatus::kOptimal) continue;  // no prior
    ++solved;
    const std::vector<int>& prior = cold.assignment.type_of;

    const RemapResult got =
        remap(c.mutant, c.board, prior, remap_options(c, true));
    const RemapResult plain =
        remap(c.mutant, c.board, prior, remap_options(c, false));
    // Feasibility depends on depth x width only, so the prior mapping is
    // feasible for the mutant under its own pins: no cold fallback.
    ASSERT_EQ(got.result.status, lp::SolveStatus::kOptimal);
    ASSERT_EQ(plain.result.status, lp::SolveStatus::kOptimal);
    EXPECT_FALSE(got.fell_back_cold);
    EXPECT_EQ(got.result.retries, plain.result.retries);
    EXPECT_NEAR(got.result.mip.objective, plain.result.mip.objective,
                1e-9 * std::max(1.0, std::abs(plain.result.mip.objective)));
    for (const std::size_t d : c.pinned) {
      EXPECT_EQ(got.result.assignment.type_of[d], prior[d])
          << "structure " << d;
    }
    if (got.result.mip.nodes == 0 && got.result.mip.lp_iterations == 0) {
      ++decided_outright;
    }

    bool slack = false, infeasible = false;
    const std::set<std::pair<std::size_t, std::size_t>> pairs =
        presolved_pairs(c, prior, slack, infeasible);
    ASSERT_FALSE(infeasible);
    const CostTable table(c.mutant, c.board);
    std::set<std::pair<std::size_t, std::size_t>> free_pairs;
    for (std::size_t d = 0; d < c.mutant.size(); ++d) {
      if (std::find(c.pinned.begin(), c.pinned.end(), d) != c.pinned.end()) {
        continue;
      }
      std::vector<std::size_t> feasible;
      for (std::size_t t = 0; t < table.num_types(); ++t) {
        if (table.feasible(d, t)) feasible.push_back(t);
      }
      if (feasible.size() < 2) continue;
      for (const std::size_t t : feasible) free_pairs.emplace(d, t);
    }
    for (const auto& [d, t] : pairs) {
      EXPECT_TRUE(free_pairs.count({d, t}) != 0)
          << "column (" << d << ", " << t << ") survived presolve";
    }
    if (slack) {
      ++exact_shape;
      EXPECT_EQ(pairs, free_pairs);
    }
  }
  // The draws must exercise what they claim to.
  EXPECT_GE(solved, kSeeds * 9 / 10);
  EXPECT_GE(exact_shape, solved / 4);
  EXPECT_GE(decided_outright, 1);
}

/// The bank type each structure takes in `x`, through `z`.
std::vector<int> assignment_of(const std::vector<std::vector<lp::Index>>& z,
                               const std::vector<double>& x) {
  std::vector<int> type_of(z.size(), -1);
  for (std::size_t d = 0; d < z.size(); ++d) {
    for (std::size_t t = 0; t < z[d].size(); ++t) {
      if (z[d][t] != lp::kInvalidIndex &&
          x[static_cast<std::size_t>(z[d][t])] > 0.5) {
        type_of[d] = static_cast<int>(t);
      }
    }
  }
  return type_of;
}

/// map_pipeline's retry loop over the bound-pinned reference: formulate
/// without pins, collapse each pinned column's bounds onto 1, solve, and
/// after a packing failure forbid the failing type's structure set (and
/// halfway through the budget drop overlap awareness).
PipelineResult bound_pinned_pipeline(const Case& c,
                                     const std::vector<int>& prior) {
  const CostTable table(c.mutant, c.board);
  GlobalOptions options = near_miss_options(c, prior);
  options.pinned_structures.clear();
  const int max_retries = PipelineOptions{}.max_retries;
  PipelineResult out;
  for (int attempt = 0; attempt <= max_retries; ++attempt) {
    std::optional<GlobalModel> global =
        formulate_global(c.mutant, c.board, table, options);
    EXPECT_TRUE(global.has_value());
    for (const std::size_t d : c.pinned) {
      const lp::Index j = global->z[d][static_cast<std::size_t>(prior[d])];
      global->model.set_var_bounds(j, 1.0, 1.0);
    }
    out.mip = ilp::solve_mip(global->model, exact_pipeline().global.mip);
    out.status = out.mip.status;
    if (!out.mip.has_incumbent()) return out;
    out.assignment.type_of = assignment_of(global->z, out.mip.x);
    out.detailed = map_detailed(c.mutant, c.board, table, out.assignment);
    if (out.detailed.success) return out;
    out.retries = attempt + 1;
    std::vector<std::pair<std::size_t, std::size_t>> cut;
    const int failing = out.detailed.failed_type;
    for (std::size_t d = 0; d < c.mutant.size(); ++d) {
      if (failing < 0 || out.assignment.type_of[d] == failing) {
        cut.emplace_back(d, out.assignment.type_of[d]);
      }
    }
    options.no_good_cuts.push_back(std::move(cut));
    if (attempt + 1 >= (max_retries + 1) / 2 &&
        options.overlap_aware_capacity) {
      options.overlap_aware_capacity = false;
      options.no_good_cuts.clear();
    }
  }
  return out;
}

void expect_same_model(const lp::Model& a, const lp::Model& b) {
  ASSERT_EQ(a.num_vars(), b.num_vars());
  for (lp::Index j = 0; j < a.num_vars(); ++j) {
    EXPECT_EQ(a.var_lb(j), b.var_lb(j)) << "column " << j;
    EXPECT_EQ(a.var_ub(j), b.var_ub(j)) << "column " << j;
    EXPECT_EQ(a.obj(j), b.obj(j)) << "column " << j;
    EXPECT_EQ(a.var_type(j), b.var_type(j)) << "column " << j;
  }
  ASSERT_EQ(a.num_rows(), b.num_rows());
  for (lp::Index i = 0; i < a.num_rows(); ++i) {
    EXPECT_EQ(a.row_lb(i), b.row_lb(i)) << "row " << i;
    EXPECT_EQ(a.row_ub(i), b.row_ub(i)) << "row " << i;
    const lp::Model::RowView ra = a.row(i);
    const lp::Model::RowView rb = b.row(i);
    ASSERT_EQ(ra.size, rb.size) << "row " << i;
    for (std::size_t k = 0; k < ra.size; ++k) {
      EXPECT_EQ(ra.vars[k], rb.vars[k]) << "row " << i << ", term " << k;
      EXPECT_EQ(ra.coefs[k], rb.coefs[k]) << "row " << i << ", term " << k;
    }
  }
}

// The reference is the unpinned formulation with each pinned column's
// bounds collapsed onto 1: the semantics pins had as solver-side bounds.
TEST(PinFormulationProperty, PresolvesLikeBoundPinsAndRemapsAlike) {
  int compared = 0, pinned_any = 0, retried = 0;
  for (int seed = 0; seed < kSeeds; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    support::Rng rng(static_cast<std::uint64_t>(seed) * 7919 + 17);
    const Case c = random_case(rng);
    const PipelineResult cold = map_pipeline(c.cold, c.board, exact_pipeline());
    if (cold.status != lp::SolveStatus::kOptimal) continue;  // no prior
    ++compared;
    if (!c.pinned.empty()) ++pinned_any;
    const std::vector<int>& prior = cold.assignment.type_of;
    const CostTable table(c.mutant, c.board);

    const GlobalOptions options = near_miss_options(c, prior);
    GlobalOptions unpinned = options;
    unpinned.pinned_structures.clear();
    const std::optional<GlobalModel> pinned =
        formulate_global(c.mutant, c.board, table, options);
    std::optional<GlobalModel> bound =
        formulate_global(c.mutant, c.board, table, unpinned);
    ASSERT_TRUE(pinned.has_value());
    ASSERT_TRUE(bound.has_value());
    for (const std::size_t d : c.pinned) {
      const lp::Index j = bound->z[d][static_cast<std::size_t>(prior[d])];
      bound->model.set_var_bounds(j, 1.0, 1.0);
    }

    const lp::PresolveResult a = lp::presolve(pinned->model);
    const lp::PresolveResult b = lp::presolve(bound->model);
    ASSERT_FALSE(a.infeasible);
    ASSERT_FALSE(b.infeasible);
    // Surviving columns: the same (structure, type) pairs, in order.
    for (std::size_t d = 0; d < c.mutant.size(); ++d) {
      for (std::size_t t = 0; t < table.num_types(); ++t) {
        const lp::Index ja = pinned->z[d][t];
        const lp::Index jb = bound->z[d][t];
        const lp::Index ra =
            ja == lp::kInvalidIndex ? lp::kInvalidIndex
                                    : a.var_map[static_cast<std::size_t>(ja)];
        const lp::Index rb =
            jb == lp::kInvalidIndex ? lp::kInvalidIndex
                                    : b.var_map[static_cast<std::size_t>(jb)];
        EXPECT_EQ(ra, rb) << "pair (" << d << ", " << t << ")";
      }
    }
    expect_same_model(a.reduced, b.reduced);
    EXPECT_EQ(a.objective_offset, b.objective_offset);

    // remap places every structure where the bound-pinned optimum does.
    const RemapResult got =
        remap(c.mutant, c.board, prior, remap_options(c, true));
    const PipelineResult reference = bound_pinned_pipeline(c, prior);
    ASSERT_EQ(got.result.status, lp::SolveStatus::kOptimal);
    ASSERT_EQ(reference.status, lp::SolveStatus::kOptimal);
    EXPECT_EQ(got.result.retries, reference.retries);
    EXPECT_EQ(got.result.assignment.type_of, reference.assignment.type_of);
    const std::vector<PlacedFragment>& x = got.result.detailed.fragments;
    const std::vector<PlacedFragment>& y = reference.detailed.fragments;
    ASSERT_TRUE(got.result.detailed.success);
    ASSERT_TRUE(reference.detailed.success);
    ASSERT_EQ(x.size(), y.size());
    for (std::size_t k = 0; k < x.size(); ++k) {
      EXPECT_EQ(std::tie(x[k].ds, x[k].type, x[k].instance,
                         x[k].config_index, x[k].kind, x[k].ports,
                         x[k].first_port, x[k].offset_bits, x[k].block_bits,
                         x[k].words_covered, x[k].bits_covered),
                std::tie(y[k].ds, y[k].type, y[k].instance,
                         y[k].config_index, y[k].kind, y[k].ports,
                         y[k].first_port, y[k].offset_bits, y[k].block_bits,
                         y[k].words_covered, y[k].bits_covered))
          << "fragment " << k;
    }
    if (reference.retries > 0) ++retried;
  }
  EXPECT_GE(compared, kSeeds * 9 / 10);
  EXPECT_GE(pinned_any, compared / 2);
  EXPECT_GE(retried, 1);
}

}  // namespace
}  // namespace gmm::mapping
