// Solver determinism regression over the paper's Table-3 workloads: the
// same global-mapping model solved with num_threads ∈ {1, 2, 4, 8} —
// crossed with the basis warm-start cache on (max_stored_bases = 4096),
// off (= 0), and capped tiny (= 3, constant eviction churn) — must
// return identical objectives.  The cache only changes how fast a popped
// node re-solves, never which LP optimum a node proves, so it must never
// change WHAT the search finds.  Under exact (sub-integer gap) options the equality is
// EXACT (EXPECT_EQ on the doubles): the parallel search only ever prunes
// on proven bounds, so every thread count proves the same optimum, and
// the default cost weights make every objective an integer-valued sum
// that doubles represent exactly.  (If a future cost model introduces
// fractional weights, relax the zero-gap checks to EXPECT_NEAR.)
//
// "Identical incumbents" is asserted at the level the solver guarantees:
// every thread count's incumbent decodes to a complete assignment whose
// CostTable objective equals the serial optimum exactly.  The incumbent
// VECTORS may legitimately differ across thread counts when the optimum
// is not unique (the nondeterministic node order picks among co-optimal
// solutions); vector-level determinism is asserted where it is promised —
// repeated 1-thread runs — in SerialRunsAreBitwiseIdentical.
#include <gtest/gtest.h>

#include <vector>

#include "mapping/cost_model.hpp"
#include "mapping/global_mapper.hpp"
#include "workload/table3_suite.hpp"

namespace gmm::ilp {
namespace {

using lp::SolveStatus;

mapping::GlobalOptions exact_options(int threads,
                                     std::size_t max_stored_bases = 4096) {
  mapping::GlobalOptions options;
  options.mip.num_threads = threads;
  options.mip.max_stored_bases = max_stored_bases;
  options.mip.rel_gap = 0.0;
  // 0.5 is EXACT for the integer-valued mapping objectives (any strictly
  // better incumbent improves by >= 1, so nothing optimal is ever
  // pruned), while a literal 0.0 makes the search enumerate the whole
  // co-optimal plateau — Table-3 point 6 takes minutes that way.
  options.mip.abs_gap = 0.5;
  return options;
}

class Table3Determinism : public ::testing::TestWithParam<int> {};

TEST_P(Table3Determinism, IdenticalObjectivesAcrossThreadsAndCacheModes) {
  const workload::Table3Point& point =
      workload::table3_points()[static_cast<std::size_t>(GetParam())];
  const workload::Table3Instance instance = workload::build_instance(point);
  const mapping::CostTable table(instance.design, instance.board);

  const mapping::GlobalResult serial = mapping::map_global(
      instance.design, instance.board, table, exact_options(1));
  ASSERT_EQ(serial.status, SolveStatus::kOptimal) << "point " << point.index;

  // Thread counts crossed with the warm-start cache wide open, disabled,
  // and squeezed to 3 slots (every push evicts): the cache may only ever
  // change solve SPEED, so every combination proves the same optimum.
  for (const std::size_t cap : {std::size_t{4096}, std::size_t{0},
                                std::size_t{3}}) {
    for (const int threads : {1, 2, 4, 8}) {
      if (threads == 1 && cap == 4096) continue;  // the reference itself
      const mapping::GlobalResult parallel = mapping::map_global(
          instance.design, instance.board, table,
          exact_options(threads, cap));
      ASSERT_EQ(parallel.status, SolveStatus::kOptimal)
          << "point " << point.index << ", " << threads << " threads, cap "
          << cap;
      EXPECT_EQ(parallel.assignment.objective, serial.assignment.objective)
          << "point " << point.index << ", " << threads << " threads, cap "
          << cap;

      // The cache's own accounting must be consistent with its mode.
      const lp::BasisCacheStats& basis = parallel.mip.basis;
      if (cap == 0) {
        EXPECT_EQ(basis.stored, 0);
        EXPECT_EQ(basis.loaded, 0);
        EXPECT_EQ(basis.evicted, 0);
      } else {
        EXPECT_LE(basis.loaded + basis.evicted, basis.stored);
      }

      // Incumbent identity at the guaranteed level: a complete assignment
      // whose recomputed objective is exactly the serial optimum.
      ASSERT_TRUE(parallel.assignment.complete());
      ASSERT_EQ(parallel.assignment.type_of.size(), instance.design.size());
      for (const int t : parallel.assignment.type_of) {
        ASSERT_GE(t, 0);
        ASSERT_LT(t, static_cast<int>(instance.board.num_types()));
      }
      EXPECT_EQ(table.assignment_objective(parallel.assignment.type_of),
                serial.assignment.objective)
          << "point " << point.index << ", " << threads << " threads, cap "
          << cap;
    }
  }
}

// All nine Table-3 experiment points, each at test-tier speed
// (milliseconds to ~300 ms per thread count).  Index 5 — the paper's
// point 6, 62 segments on the 65-bank board — is among them only because
// the global mapper's Lagrangian knapsack bound proves it in under 100
// nodes; the tree search alone does not prove it at gap 0 within 120 s.
INSTANTIATE_TEST_SUITE_P(TractablePoints, Table3Determinism,
                         ::testing::Values(0, 1, 2, 3, 4, 5, 6, 7, 8));

TEST(Table3Determinism, SerialRunsAreBitwiseIdentical) {
  // Where full determinism IS promised — 1 thread — two runs must agree
  // bit for bit: incumbent vector, node count, LP iterations.  The cache
  // (on, off, or thrashing-tiny) must preserve that promise: its push,
  // pop, and FIFO-eviction order is a pure function of the serial search
  // order.  Runs with DIFFERENT cache settings may legitimately differ in
  // node counts (warm starts land on different optimal LP vertices); runs
  // with the SAME settings may not differ at all.
  const workload::Table3Instance instance =
      workload::build_instance(workload::table3_points()[2]);
  const mapping::CostTable table(instance.design, instance.board);
  for (const std::size_t cap : {std::size_t{4096}, std::size_t{0},
                                std::size_t{3}}) {
    const mapping::GlobalResult a = mapping::map_global(
        instance.design, instance.board, table, exact_options(1, cap));
    const mapping::GlobalResult b = mapping::map_global(
        instance.design, instance.board, table, exact_options(1, cap));
    ASSERT_EQ(a.status, SolveStatus::kOptimal) << "cap " << cap;
    EXPECT_EQ(a.assignment.objective, b.assignment.objective) << "cap " << cap;
    EXPECT_EQ(a.assignment.type_of, b.assignment.type_of) << "cap " << cap;
    EXPECT_EQ(a.mip.nodes, b.mip.nodes) << "cap " << cap;
    EXPECT_EQ(a.mip.lp_iterations, b.mip.lp_iterations) << "cap " << cap;
    EXPECT_EQ(a.mip.basis.stored, b.mip.basis.stored) << "cap " << cap;
    EXPECT_EQ(a.mip.basis.loaded, b.mip.basis.loaded) << "cap " << cap;
    EXPECT_EQ(a.mip.basis.evicted, b.mip.basis.evicted) << "cap " << cap;
    ASSERT_EQ(a.mip.x.size(), b.mip.x.size()) << "cap " << cap;
    for (std::size_t j = 0; j < a.mip.x.size(); ++j) {
      EXPECT_EQ(a.mip.x[j], b.mip.x[j]) << "column " << j << ", cap " << cap;
    }
  }
}

TEST(Table3Determinism, DefaultGapObjectivesAgreeWithinGap) {
  // With the production default gap (1e-4) the objectives may differ by
  // at most that relative gap across thread counts — the contract the
  // mapping service relies on when callers pick "threads".
  for (const int index : {3, 4}) {
    const workload::Table3Instance instance = workload::build_instance(
        workload::table3_points()[static_cast<std::size_t>(index)]);
    const mapping::CostTable table(instance.design, instance.board);
    mapping::GlobalOptions defaults;
    const mapping::GlobalResult serial = mapping::map_global(
        instance.design, instance.board, table, defaults);
    ASSERT_EQ(serial.status, SolveStatus::kOptimal) << "index " << index;
    for (const int threads : {2, 8}) {
      mapping::GlobalOptions options;
      options.mip.num_threads = threads;
      const mapping::GlobalResult parallel = mapping::map_global(
          instance.design, instance.board, table, options);
      ASSERT_EQ(parallel.status, SolveStatus::kOptimal)
          << "index " << index << ", " << threads << " threads";
      EXPECT_NEAR(parallel.assignment.objective, serial.assignment.objective,
                  defaults.mip.rel_gap *
                          std::abs(serial.assignment.objective) +
                      1e-9)
          << "index " << index << ", " << threads << " threads";
    }
  }
}

}  // namespace
}  // namespace gmm::ilp
