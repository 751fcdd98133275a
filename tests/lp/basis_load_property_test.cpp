// Property tests for the LP engine's snapshot load (300 seeds per
// property).  An engine sitting at the optimum of one bound path loads a
// snapshot taken on another path; it must end on the same basis (row
// order included) as a fresh engine loading the same snapshot under the
// same bounds, and its status, objective and solution after the re-solve
// must match the fresh engine's to 1e-7.
//
//   1. Near snapshots (at most m/2 basic columns differ) are reached by
//      column replacement: the load adds no refactorization.
//   2. Far snapshots (more than m/2 differ) fall back to a refactorization.
//   3. Rank-deficient snapshots (two identical columns both basic) fall
//      back to the refactorization's basis repair.
//   4. Loads with the lp.basis_load:corrupt fault armed still match.
//   5. Replacement swaps count toward the refactor_interval cadence.
//
// Plus unit tests for refresh_basic_solution(): a bound change on a basic
// column leaves x as it is, one on a nonbasic column matches a full
// recompute; and a property on degenerate integer-data LPs: reset_bounds()
// after a solve, with no bound changed, leaves every status and value.
//
// The LPs are packing rows with generic real costs, so every optimum is
// unique and solutions can be compared, not just objectives.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <optional>
#include <set>
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

/// Random packing LP: x in [0, 10]^n, rows a.x <= b with a >= 0 and b >= 10
/// (so x = 0 is feasible and the box keeps it bounded), real costs mostly
/// negative so the optimum pushes into the rows.  With `duplicate`, the
/// last variable repeats the first one's column (with its own cost), which
/// makes any basis holding both singular.
Model random_packing_lp(std::uint64_t seed, bool duplicate = false) {
  support::Rng rng(seed);
  const int vars = static_cast<int>(rng.uniform_int(8, 24));
  const int rows = static_cast<int>(rng.uniform_int(3, std::min(14, vars)));
  Model model;
  for (int j = 0; j < vars; ++j) {
    model.add_variable(0, 10, rng.uniform_real() * 20.0 - 14.0);
  }
  for (int i = 0; i < rows; ++i) {
    LinExpr expr;
    double first = 0.0;
    for (int j = 0; j + (duplicate ? 1 : 0) < vars; ++j) {
      if (rng.bernoulli(0.5)) {
        const double a = static_cast<double>(rng.uniform_int(1, 9));
        expr.add(j, a);
        if (j == 0) first = a;
      }
    }
    if (duplicate && first != 0.0) expr.add(vars - 1, first);
    if (expr.empty()) {
      // Pad with a column other than the twins, so they stay identical.
      expr.add(static_cast<Index>(rng.uniform_int(1, vars - 2)), 1.0);
    }
    model.add_constraint(expr, Sense::kLessEqual,
                         static_cast<double>(rng.uniform_int(10, 80)));
  }
  return model;
}

struct Change {
  Index var;
  double lb, ub;
};

/// Branching-style bound changes: x_j <= k or x_j >= k on random columns.
std::vector<Change> random_path(support::Rng& rng, int vars, int length) {
  std::vector<Change> path;
  for (int c = 0; c < length; ++c) {
    const auto j =
        static_cast<Index>(rng.index(static_cast<std::size_t>(vars)));
    const auto k = static_cast<double>(rng.uniform_int(1, 9));
    path.push_back(rng.bernoulli(0.5) ? Change{j, 0.0, k} : Change{j, k, 10.0});
  }
  return path;
}

void apply_path(SimplexEngine& engine, const std::vector<Change>& path) {
  for (const Change& c : path) engine.set_column_bounds(c.var, c.lb, c.ub);
  engine.refresh_basic_solution();
}

/// Snapshot columns that are not basic in `current`.
int basis_changes(const Basis& current, const Basis& target) {
  const std::set<Index> basic(current.basic_in_row.begin(),
                              current.basic_in_row.end());
  int changes = 0;
  for (const Index j : target.basic_in_row) changes += basic.count(j) == 0;
  return changes;
}

/// Refactorization cadence far beyond these LPs, so only a load's own
/// fallback can refactorize.
SimplexOptions no_cadence() {
  SimplexOptions options;
  options.refactor_interval = 1 << 20;
  return options;
}

void expect_same_outcome(SimplexEngine& used,
                         SimplexEngine& fresh, Index structurals,
                         std::uint64_t seed) {
  const SolveStatus used_status = used.solve(no_cadence());
  const SolveStatus fresh_status = fresh.solve(no_cadence());
  ASSERT_EQ(used_status, fresh_status) << "seed " << seed;
  if (fresh_status != SolveStatus::kOptimal) return;
  const double obj = fresh.objective_value();
  EXPECT_NEAR(used.objective_value(), obj, 1e-7 * (1.0 + std::abs(obj)))
      << "seed " << seed;
  for (Index j = 0; j < structurals; ++j) {
    const double x = fresh.column_value(j);
    EXPECT_NEAR(used.column_value(j), x, 1e-7 * (1.0 + std::abs(x)))
        << "seed " << seed << " column " << j;
  }
}

struct LoadCase {
  int changes = 0;
  std::int64_t refactorizations = 0;  // added by the load itself
};

/// The engine under test solves path `p1`, a donor solves `p2` and is
/// snapshotted (after `edit`, if any), then the engine and a fresh one
/// both load the snapshot under bounds `p3`, re-solve, and must agree.
/// Returns nullopt when a path is infeasible (no optimum to snapshot).
template <typename Edit>
std::optional<LoadCase> run_load_case(const StandardForm& sf,
                                      const std::vector<Change>& p1,
                                      const std::vector<Change>& p2,
                                      const std::vector<Change>& p3,
                                      std::uint64_t seed, Edit edit) {
  SimplexEngine used(sf);
  apply_path(used, p1);
  if (used.solve(no_cadence()) != SolveStatus::kOptimal) return std::nullopt;
  SimplexEngine donor(sf);
  apply_path(donor, p2);
  if (donor.solve(no_cadence()) != SolveStatus::kOptimal) return std::nullopt;
  Basis snapshot = donor.snapshot_basis();
  edit(snapshot);

  used.reset_bounds();
  apply_path(used, p3);
  SimplexEngine fresh(sf);
  apply_path(fresh, p3);

  LoadCase result;
  result.changes = basis_changes(used.snapshot_basis(), snapshot);
  const std::int64_t before = used.stats().refactorizations;
  used.load_basis(snapshot);
  result.refactorizations = used.stats().refactorizations - before;
  fresh.load_basis(snapshot);
  // Both end on the same basis, row order and nonbasic sides included.
  const Basis used_basis = used.snapshot_basis();
  const Basis fresh_basis = fresh.snapshot_basis();
  EXPECT_EQ(used_basis.basic_in_row, fresh_basis.basic_in_row)
      << "seed " << seed;
  EXPECT_TRUE(used_basis.status == fresh_basis.status) << "seed " << seed;
  expect_same_outcome(used, fresh, sf.num_structural, seed);
  return result;
}

const auto kNoEdit = [](Basis&) {};

TEST(BasisLoadProperty, NearSnapshotsLoadWithoutRefactorizing) {
  int near = 0;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    support::Rng rng(seed);
    const Model model = random_packing_lp(seed * 7919);
    const StandardForm sf = StandardForm::build(model);
    const int vars = model.num_vars();
    // Cousin nodes: the donor is one branching change below the engine's
    // path, the loading node one more below the donor.
    const std::vector<Change> p1 =
        random_path(rng, vars, static_cast<int>(rng.uniform_int(0, 2)));
    std::vector<Change> p2 = p1;
    for (const Change& c : random_path(rng, vars, 1)) p2.push_back(c);
    std::vector<Change> p3 = p2;
    for (const Change& c : random_path(rng, vars, 1)) p3.push_back(c);

    const auto load = run_load_case(sf, p1, p2, p3, seed, kNoEdit);
    if (!load) continue;
    if (2 * load->changes <= sf.num_rows) {
      ++near;
      EXPECT_EQ(load->refactorizations, 0)
          << "seed " << seed << ": " << load->changes << " of "
          << sf.num_rows << " columns change";
    } else {
      EXPECT_EQ(load->refactorizations, 1) << "seed " << seed;
    }
  }
  EXPECT_GE(near, kSeeds / 3);
}

TEST(BasisLoadProperty, LoadSwapsCountTowardRefactorCadence) {
  int checked = 0;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    support::Rng rng(seed + 4'000'000);
    const Model model = random_packing_lp(seed * 2750159);
    const StandardForm sf = StandardForm::build(model);
    const int vars = model.num_vars();
    // The engine solves the root LP, the donor a few down-branches of it
    // (x = 0 keeps both feasible).
    std::vector<Change> down;
    for (int c = 0; c < 3; ++c) {
      down.push_back({static_cast<Index>(rng.index(
                          static_cast<std::size_t>(vars))),
                      0.0, static_cast<double>(rng.uniform_int(0, 5))});
    }

    // A probe learns how many pivots the engine's first solve takes.
    SimplexEngine probe(sf);
    ASSERT_EQ(probe.solve(no_cadence()), SolveStatus::kOptimal);
    const Basis own = probe.snapshot_basis();
    SimplexEngine donor(sf);
    apply_path(donor, down);
    ASSERT_EQ(donor.solve(no_cadence()), SolveStatus::kOptimal);
    const Basis other = donor.snapshot_basis();
    const int changes = basis_changes(own, other);
    if (changes == 0 || 2 * changes > sf.num_rows) continue;
    ++checked;

    // Same solve with the cadence set one pivot past the first load: the
    // load to `other` is reached by replacement, and the load back to
    // `own` (as many swaps again) must find the cadence due.
    SimplexEngine engine(sf);
    SimplexOptions options;
    options.refactor_interval =
        static_cast<int>(probe.stats().iterations) + changes + 1;
    ASSERT_EQ(engine.solve(options), SolveStatus::kOptimal) << "seed " << seed;
    const std::int64_t before = engine.stats().refactorizations;
    engine.load_basis(other);
    EXPECT_EQ(engine.stats().refactorizations, before) << "seed " << seed;
    engine.load_basis(own);
    EXPECT_EQ(engine.stats().refactorizations, before + 1)
        << "seed " << seed;
  }
  EXPECT_GE(checked, kSeeds / 3);
}

TEST(BasisLoadProperty, FarSnapshotsFallBackToRefactorization) {
  int far = 0;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    support::Rng rng(seed + 1'000'000);
    const Model model = random_packing_lp(seed * 104729);
    const StandardForm sf = StandardForm::build(model);
    const int vars = model.num_vars();
    // The engine sits at the optimum with every structural pinned at 0,
    // an all-logical basis; the donor's unpinned optimum binds most rows
    // with structurals.
    std::vector<Change> p1;
    for (Index j = 0; j < vars; ++j) p1.push_back({j, 0.0, 0.0});
    const std::vector<Change> p2 = random_path(rng, vars, 1);
    std::vector<Change> p3 = p2;
    for (const Change& c : random_path(rng, vars, 1)) p3.push_back(c);

    const auto load = run_load_case(sf, p1, p2, p3, seed, kNoEdit);
    if (!load) continue;
    if (2 * load->changes > sf.num_rows) {
      ++far;
      EXPECT_EQ(load->refactorizations, 1) << "seed " << seed;
    } else {
      EXPECT_EQ(load->refactorizations, 0) << "seed " << seed;
    }
  }
  EXPECT_GE(far, kSeeds / 4);
}

TEST(BasisLoadProperty, RankDeficientSnapshotsAreRepaired) {
  int repaired = 0;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    support::Rng rng(seed + 2'000'000);
    const Model model = random_packing_lp(seed * 15485863, true);
    const StandardForm sf = StandardForm::build(model);
    const int vars = model.num_vars();
    const Index twin_a = 0;
    const Index twin_b = vars - 1;
    const std::vector<Change> p1 = random_path(rng, vars, 1);
    std::vector<Change> p2 = p1;
    for (const Change& c : random_path(rng, vars, 1)) p2.push_back(c);
    const std::vector<Change> p3 = p2;

    // Make both twins basic: a singular basis no factorization can hold.
    const auto make_singular = [&](Basis& basis) {
      std::vector<Index>& rows = basis.basic_in_row;
      for (const Index twin : {twin_a, twin_b}) {
        if (std::find(rows.begin(), rows.end(), twin) != rows.end()) continue;
        std::size_t r = rng.index(rows.size());
        while (rows[r] == twin_a || rows[r] == twin_b) {
          r = (r + 1) % rows.size();
        }
        basis.status[rows[r]] = VStat::kAtLower;
        rows[r] = twin;
        basis.status[twin] = VStat::kBasic;
      }
    };
    const auto load = run_load_case(sf, p1, p2, p3, seed, make_singular);
    if (!load) continue;
    ++repaired;
    EXPECT_EQ(load->refactorizations, 1) << "seed " << seed;
  }
  EXPECT_GE(repaired, kSeeds / 3);
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

TEST(BasisLoadProperty, CorruptedLoadsStillMatchFreshEngine) {
  const ArmedFaults faults("seed=11,lp.basis_load:corrupt@always");
  ASSERT_TRUE(faults.armed);
  int near = 0;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    support::Rng rng(seed + 3'000'000);
    const Model model = random_packing_lp(seed * 32452843);
    const StandardForm sf = StandardForm::build(model);
    const int vars = model.num_vars();
    const std::vector<Change> p1 = random_path(rng, vars, 1);
    std::vector<Change> p2 = p1;
    for (const Change& c : random_path(rng, vars, 1)) p2.push_back(c);
    std::vector<Change> p3 = p2;
    for (const Change& c : random_path(rng, vars, 1)) p3.push_back(c);

    const auto load = run_load_case(sf, p1, p2, p3, seed, kNoEdit);
    if (!load) continue;
    // Corruption flips nonbasic sides, never the basic set: a near
    // snapshot is still reached without a refactorization.
    if (2 * load->changes <= sf.num_rows) {
      ++near;
      EXPECT_EQ(load->refactorizations, 0) << "seed " << seed;
    }
  }
  EXPECT_GE(near, kSeeds / 3);
  EXPECT_GT(support::global_faults().total_fires(), 0);
}

/// First structural column with the given basic-ness (a basic one must sit
/// strictly inside (1, 9)), or kInvalidIndex.
Index find_column(const SimplexEngine& engine, Index structurals,
                  bool basic) {
  for (Index j = 0; j < structurals; ++j) {
    const bool is_basic = engine.column_status(j) == VStat::kBasic;
    const double x = engine.column_value(j);
    if (is_basic == basic && (!basic || (x > 1.0 && x < 9.0))) return j;
  }
  return kInvalidIndex;
}

/// Column values of an engine that rebuilt x_B from scratch for the same
/// bounds and basis.
std::vector<double> recomputed_values(const StandardForm& sf,
                                      const SimplexEngine& engine) {
  SimplexEngine oracle(sf);
  for (Index j = 0; j < sf.num_cols(); ++j) {
    oracle.set_column_bounds(j, engine.column_lb(j), engine.column_ub(j));
  }
  oracle.load_basis(engine.snapshot_basis());
  std::vector<double> values(static_cast<std::size_t>(sf.num_cols()));
  for (Index j = 0; j < sf.num_cols(); ++j) values[j] = oracle.column_value(j);
  return values;
}

TEST(RefreshBasicSolution, BasicColumnBoundChangeLeavesXUnchanged) {
  int checked = 0;
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    const Model model = random_packing_lp(seed * 49979687);
    const StandardForm sf = StandardForm::build(model);
    SimplexEngine engine(sf);
    ASSERT_EQ(engine.solve({}), SolveStatus::kOptimal) << "seed " << seed;
    const Index j = find_column(engine, sf.num_structural, true);
    if (j == kInvalidIndex) continue;
    ++checked;
    std::vector<double> before(static_cast<std::size_t>(sf.num_cols()));
    for (Index k = 0; k < sf.num_cols(); ++k) {
      before[k] = engine.column_value(k);
    }

    // A branching change that cuts off the basic column's value.
    engine.set_column_bounds(j, 0.0, std::ceil(engine.column_value(j)) - 1);
    engine.refresh_basic_solution();
    for (Index k = 0; k < sf.num_cols(); ++k) {
      EXPECT_EQ(engine.column_value(k), before[k])
          << "seed " << seed << " column " << k;
    }
    const std::vector<double> full = recomputed_values(sf, engine);
    for (Index k = 0; k < sf.num_cols(); ++k) {
      EXPECT_NEAR(engine.column_value(k), full[k],
                  1e-9 * (1 + std::abs(full[k])))
          << "seed " << seed << " column " << k;
    }
  }
  EXPECT_GE(checked, 50);
}

TEST(RefreshBasicSolution, NonbasicBoundChangeMatchesFullRecompute) {
  int moved = 0;
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    const Model model = random_packing_lp(seed * 86028121);
    const StandardForm sf = StandardForm::build(model);
    SimplexEngine engine(sf);
    ASSERT_EQ(engine.solve({}), SolveStatus::kOptimal) << "seed " << seed;
    const Index j = find_column(engine, sf.num_structural, false);
    if (j == kInvalidIndex) continue;

    // Move the bound the nonbasic column sits on: x_j leaves 0 or 10.
    const double before = engine.column_value(j);
    if (before == 0.0) {
      engine.set_column_bounds(j, 5.0, 10.0);
    } else {
      engine.set_column_bounds(j, 0.0, 5.0);
    }
    engine.refresh_basic_solution();
    ASSERT_NE(engine.column_value(j), before) << "seed " << seed;
    ++moved;
    const std::vector<double> full = recomputed_values(sf, engine);
    for (Index k = 0; k < sf.num_cols(); ++k) {
      EXPECT_NEAR(engine.column_value(k), full[k],
                  1e-9 * (1 + std::abs(full[k])))
          << "seed " << seed << " column " << k;
    }
    // And the re-solve from there matches a cold solve of the same bounds.
    SimplexEngine cold(sf);
    cold.set_column_bounds(j, engine.column_lb(j), engine.column_ub(j));
    cold.refresh_basic_solution();
    const SolveStatus status = engine.solve({});
    ASSERT_EQ(status, cold.solve({})) << "seed " << seed;
    if (status == SolveStatus::kOptimal) {
      EXPECT_NEAR(engine.objective_value(), cold.objective_value(),
                  1e-7 * (1 + std::abs(cold.objective_value())))
          << "seed " << seed;
    }
  }
  EXPECT_GE(moved, 50);
}

/// Random packing LP with integer data throughout: x in [0, u] for small
/// integer u, integer costs (mostly negative, some zero) and integer rows.
/// Ties between vertices and zero reduced costs are common, so degenerate
/// pivots leave nonbasic columns at a bound whose reduced cost is zero or
/// of the other sign inside the dual tolerance.
Model random_integer_packing_lp(std::uint64_t seed) {
  support::Rng rng(seed);
  const int vars = static_cast<int>(rng.uniform_int(6, 20));
  const int rows = static_cast<int>(rng.uniform_int(3, std::min(12, vars)));
  Model model;
  for (int j = 0; j < vars; ++j) {
    model.add_variable(0, static_cast<double>(rng.uniform_int(1, 3)),
                       static_cast<double>(rng.uniform_int(-6, 1)));
  }
  for (int i = 0; i < rows; ++i) {
    LinExpr expr;
    for (int j = 0; j < vars; ++j) {
      if (rng.bernoulli(0.5)) {
        expr.add(j, static_cast<double>(rng.uniform_int(1, 4)));
      }
    }
    if (expr.empty()) expr.add(static_cast<Index>(rng.index(vars)), 1.0);
    model.add_constraint(expr, Sense::kLessEqual,
                         static_cast<double>(rng.uniform_int(2, 12)));
  }
  return model;
}

// Branch and bound calls reset_bounds() at every pop before it applies the
// node's own bound path.  With no bound changed it must change nothing: a
// column whose reduced cost sits at zero (or inside the dual tolerance on
// the other side) keeps the bound it is at, and x_B is not made stale.
TEST(ResetBoundsProperty, UnchangedBoundsKeepEveryStatusAndValue) {
  int on_the_other_side = 0;  // LPs where re-deriving a side would flip
  for (int seed = 0; seed < kSeeds; ++seed) {
    const Model model =
        random_integer_packing_lp(static_cast<std::uint64_t>(seed) * 7727 + 5);
    const StandardForm sf = StandardForm::build(model);
    SimplexEngine engine(sf);
    ASSERT_EQ(engine.solve({}), SolveStatus::kOptimal) << "seed " << seed;
    std::vector<VStat> status(static_cast<std::size_t>(sf.num_cols()));
    std::vector<double> value(static_cast<std::size_t>(sf.num_cols()));
    bool flippable = false;
    for (Index j = 0; j < sf.num_cols(); ++j) {
      status[j] = engine.column_status(j);
      value[j] = engine.column_value(j);
      const double d = engine.reduced_cost(j);
      flippable |= (status[j] == VStat::kAtUpper && d >= 0.0) ||
                   (status[j] == VStat::kAtLower && d < 0.0);
    }
    on_the_other_side += flippable ? 1 : 0;
    engine.reset_bounds();
    engine.refresh_basic_solution();
    for (Index j = 0; j < sf.num_cols(); ++j) {
      EXPECT_EQ(engine.column_status(j), status[j])
          << "seed " << seed << " column " << j;
      EXPECT_EQ(engine.column_value(j), value[j])
          << "seed " << seed << " column " << j;
    }
  }
  // The wall must see the degenerate case it guards.
  EXPECT_GT(on_the_other_side, 0);
}

}  // namespace
}  // namespace gmm::lp
