// Batched mapping driver: N independent designs over one shared pool
// must produce exactly the per-design pipeline results, in order.
#include "mapping/batch_mapper.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "mapping/pipeline.hpp"
#include "mapping/validate.hpp"
#include "workload/workload_gen.hpp"

namespace gmm::mapping {
namespace {

/// Items that reached an optimal or feasible answer.
std::size_t succeeded(const std::vector<PipelineResult>& results) {
  std::size_t count = 0;
  for (const PipelineResult& r : results) {
    if (r.status == lp::SolveStatus::kOptimal ||
        r.status == lp::SolveStatus::kFeasible) {
      ++count;
    }
  }
  return count;
}

std::vector<design::Design> corpus(const arch::Board& board, int count) {
  std::vector<design::Design> designs;
  for (int i = 0; i < count; ++i) {
    workload::DesignGenOptions gen;
    gen.num_segments = 8 + 2 * i;
    gen.seed = 9000 + static_cast<std::uint64_t>(i);
    designs.push_back(workload::generate_design(board, gen));
  }
  return designs;
}

TEST(BatchMapper, MatchesSerialPipelinePerItem) {
  const auto board =
      workload::board_from_totals({.banks = 16, .ports = 24, .configs = 50});
  ASSERT_TRUE(board.has_value());
  const std::vector<design::Design> designs = corpus(*board, 6);

  std::vector<BatchItem> items;
  for (const design::Design& d : designs) {
    items.push_back({.design = &d, .board = &*board});
  }
  support::ThreadPool pool(4);
  const std::vector<PipelineResult> batch = map_batch(pool, items);
  ASSERT_EQ(batch.size(), designs.size());
  EXPECT_EQ(succeeded(batch), batch.size());

  for (std::size_t i = 0; i < designs.size(); ++i) {
    const PipelineResult serial = map_pipeline(designs[i], *board);
    ASSERT_EQ(batch[i].status, serial.status) << "item " << i;
    EXPECT_NEAR(batch[i].assignment.objective,
                serial.assignment.objective,
                1e-6 * std::max(1.0, std::abs(serial.assignment.objective)))
        << "item " << i;
    // Every batched mapping must be legal against its own design.
    EXPECT_TRUE(validate_mapping(designs[i], *board,
                                 batch[i].assignment,
                                 batch[i].detailed)
                    .empty())
        << "item " << i;
  }
}

TEST(BatchMapper, SharedExternalPoolAcrossBatches) {
  const auto board =
      workload::board_from_totals({.banks = 16, .ports = 24, .configs = 50});
  ASSERT_TRUE(board.has_value());
  const std::vector<design::Design> designs = corpus(*board, 4);
  std::vector<BatchItem> items;
  for (const design::Design& d : designs) {
    items.push_back({.design = &d, .board = &*board});
  }
  // One pool, two waves — the serving pattern (pool outlives batches).
  support::ThreadPool pool(3);
  const std::vector<PipelineResult> first = map_batch(pool, items);
  const std::vector<PipelineResult> second = map_batch(pool, items);
  ASSERT_EQ(first.size(), second.size());
  EXPECT_EQ(succeeded(first), first.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].status, second[i].status);
    EXPECT_EQ(first[i].assignment.objective, second[i].assignment.objective);
  }
}

TEST(BatchMapper, EmptyBatch) {
  support::ThreadPool pool(2);
  const std::vector<PipelineResult> batch = map_batch(pool, {});
  EXPECT_TRUE(batch.empty());
  EXPECT_EQ(succeeded(batch), 0u);
}

}  // namespace
}  // namespace gmm::mapping
