// The tree search's relaxation hook (MipOptions::relaxation_bound) and
// its prune threshold.
//
// The models are parity-hard on purpose: minimize sum x subject to
// sum 2 x >= 2k + 1 keeps every node's LP bound at k + 1/2, so branch and
// bound enumerates hundreds of nodes to prove the optimum k + 1, and
// sum 2 x == 2k + 1 is infeasible without any LP ever saying so, so the
// search never holds an incumbent.  Checked here:
//  * prune_threshold is +inf, not NaN, without an incumbent;
//  * the hook runs once, between dives, after kRelaxationAfterNodes nodes
//    and only while open nodes remain, with the root LP's row duals in
//    the model's units;
//  * a bound at the threshold closes the search, and +inf proves
//    infeasibility when no incumbent exists;
//  * fixings reach every node popped afterwards and count in rc_fixed;
//  * candidates offered by the hook become incumbents after validation.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <vector>

#include "ilp/mip_solver.hpp"

namespace gmm::ilp {
namespace {

using lp::Index;
using lp::kInf;
using lp::LinExpr;
using lp::Model;
using lp::Sense;
using lp::SolveStatus;

constexpr int kVars = 12;
constexpr int kHalf = 5;  // sum 2x >= 11: optimum 6

Model parity_model(Sense sense) {
  Model m;
  LinExpr row;
  for (int j = 0; j < kVars; ++j) row.add(m.add_binary(1.0), 2.0);
  m.add_constraint(row, sense, 2.0 * kHalf + 1.0);
  return m;
}

MipOptions exact_options() {
  MipOptions options;
  options.rel_gap = 0.0;
  options.num_threads = 1;
  options.node_limit = 100'000;
  return options;
}

TEST(PruneThreshold, InfiniteWithoutAnIncumbent) {
  const double t = prune_threshold(kInf, 1e-4, 1e-9);
  EXPECT_FALSE(std::isnan(t));
  EXPECT_EQ(t, kInf);
  // A gate written either way round behaves: nothing finite reaches it.
  EXPECT_TRUE(1e300 < t);
  EXPECT_FALSE(1e300 >= t);
}

TEST(PruneThreshold, SubtractsTheLargerGap) {
  EXPECT_DOUBLE_EQ(prune_threshold(100.0, 0.01, 1e-9), 99.0);
  EXPECT_DOUBLE_EQ(prune_threshold(100.0, 0.0, 0.5), 99.5);
  EXPECT_DOUBLE_EQ(prune_threshold(-100.0, 0.01, 0.0), -101.0);
}

TEST(MipRelaxation, NotCalledWhenTheSearchEndsEarly) {
  // An integral root: the search never branches.
  Model m;
  LinExpr row;
  for (int j = 0; j < 4; ++j) row.add(m.add_binary(1.0 + j), 1.0);
  m.add_constraint(row, Sense::kGreaterEqual, 2.0);
  MipOptions options = exact_options();
  int calls = 0;
  options.relaxation_bound = [&calls](const RelaxationQuery&) {
    ++calls;
    return RelaxationResult{};
  };
  const MipResult r = solve_mip(m, options);
  ASSERT_EQ(r.status, SolveStatus::kOptimal);
  EXPECT_NEAR(r.objective, 3.0, 1e-9);
  EXPECT_EQ(calls, 0);
}

TEST(MipRelaxation, BoundAtTheThresholdClosesTheSearch) {
  const Model m = parity_model(Sense::kGreaterEqual);
  const MipResult plain = solve_mip(m, exact_options());
  ASSERT_EQ(plain.status, SolveStatus::kOptimal);
  EXPECT_NEAR(plain.objective, kHalf + 1.0, 1e-9);
  ASSERT_GT(plain.nodes, 4 * kRelaxationAfterNodes);  // the model is hard

  MipOptions options = exact_options();
  int calls = 0;
  std::int64_t nodes_at_call = 0;
  options.progress = std::make_shared<std::atomic<std::int64_t>>(0);
  options.relaxation_bound = [&](const RelaxationQuery& q) {
    ++calls;
    nodes_at_call = options.progress->load();
    EXPECT_EQ(q.lb.size(), static_cast<std::size_t>(kVars));
    EXPECT_EQ(q.ub.size(), static_cast<std::size_t>(kVars));
    // The cover row's dual in the model's units: each x costs 1 and uses
    // 2 units of the row, so y = 1/2 (scaling must not leak through).
    EXPECT_EQ(q.row_duals.size(), 1u);
    if (!q.row_duals.empty()) {
      EXPECT_NEAR(q.row_duals[0], 0.5, 1e-9);
    }
    // Every integer solution uses at least k + 1 ones.
    return RelaxationResult{kHalf + 1.0, {}};
  };
  const MipResult r = solve_mip(m, options);
  ASSERT_EQ(r.status, SolveStatus::kOptimal);
  EXPECT_NEAR(r.objective, kHalf + 1.0, 1e-9);
  EXPECT_EQ(calls, 1);
  EXPECT_GE(nodes_at_call, kRelaxationAfterNodes);
  EXPECT_LT(r.nodes, 2 * kRelaxationAfterNodes);
}

TEST(MipRelaxation, FixingsReachEveryLaterNode) {
  const Model m = parity_model(Sense::kGreaterEqual);
  MipOptions options = exact_options();
  options.relaxation_bound = [](const RelaxationQuery& q) {
    // Vacuous once the optimum is the incumbent (no solution improves
    // on it), and it empties every later node's box.
    EXPECT_NEAR(q.incumbent, kHalf + 1.0, 1e-9);
    RelaxationResult out;
    for (Index j = 0; j < kVars; ++j) out.fixings.emplace_back(j, 0.0);
    return out;
  };
  const MipResult r = solve_mip(m, options);
  ASSERT_EQ(r.status, SolveStatus::kOptimal);
  EXPECT_NEAR(r.objective, kHalf + 1.0, 1e-9);
  EXPECT_EQ(r.rc_fixed, kVars);
  EXPECT_LT(r.nodes, 2 * kRelaxationAfterNodes);
}

TEST(MipRelaxation, InfiniteBoundProvesInfeasibilityWithoutAnIncumbent) {
  const Model m = parity_model(Sense::kEqual);
  const MipResult plain = solve_mip(m, exact_options());
  ASSERT_EQ(plain.status, SolveStatus::kInfeasible);
  ASSERT_GT(plain.nodes, 2 * kRelaxationAfterNodes);

  MipOptions options = exact_options();
  int calls = 0;
  options.relaxation_bound = [&calls](const RelaxationQuery& q) {
    ++calls;
    EXPECT_EQ(q.incumbent, kInf);
    EXPECT_EQ(prune_threshold(q.incumbent, q.rel_gap, q.abs_gap), kInf);
    return RelaxationResult{kInf, {}};
  };
  const MipResult r = solve_mip(m, options);
  EXPECT_EQ(r.status, SolveStatus::kInfeasible);
  EXPECT_EQ(calls, 1);
  EXPECT_LT(r.nodes, 2 * kRelaxationAfterNodes);
}

TEST(MipRelaxation, OfferedCandidatesBecomeIncumbents) {
  // Same hard model with a cost tilt, so the offer is the unique optimum.
  Model m;
  LinExpr row;
  for (int j = 0; j < kVars; ++j) {
    row.add(m.add_binary(1.0 + (j < kHalf + 1 ? 0.0 : 1e-3)), 2.0);
  }
  m.add_constraint(row, Sense::kGreaterEqual, 2.0 * kHalf + 1.0);
  MipOptions options = exact_options();
  options.relaxation_bound = [](const RelaxationQuery& q) {
    std::vector<double> x(static_cast<std::size_t>(kVars), 0.0);
    for (int j = 0; j <= kHalf; ++j) x[j] = 1.0;
    // Refused: out of bounds.
    EXPECT_EQ(q.offer_incumbent(std::vector<double>(kVars, 2.0)),
              q.incumbent);
    const double after = q.offer_incumbent(x);
    EXPECT_NEAR(after, kHalf + 1.0, 1e-9);
    return RelaxationResult{after, {}};
  };
  const MipResult r = solve_mip(m, options);
  ASSERT_EQ(r.status, SolveStatus::kOptimal);
  EXPECT_NEAR(r.objective, kHalf + 1.0, 1e-9);
  EXPECT_LT(r.nodes, 2 * kRelaxationAfterNodes);
}

TEST(MipRelaxation, ParallelSearchCallsItOnce) {
  const Model m = parity_model(Sense::kGreaterEqual);
  MipOptions options = exact_options();
  options.num_threads = 2;
  std::atomic<int> calls{0};
  options.relaxation_bound = [&calls](const RelaxationQuery&) {
    ++calls;
    return RelaxationResult{kHalf + 1.0, {}};
  };
  const MipResult r = solve_mip(m, options);
  ASSERT_EQ(r.status, SolveStatus::kOptimal);
  EXPECT_NEAR(r.objective, kHalf + 1.0, 1e-9);
  EXPECT_EQ(calls.load(), 1);
}

}  // namespace
}  // namespace gmm::ilp
