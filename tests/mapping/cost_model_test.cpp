#include "mapping/cost_model.hpp"

#include <gtest/gtest.h>

#include "arch/device_catalog.hpp"
#include "support/arithmetic.hpp"

namespace gmm::mapping {
namespace {

design::Design two_structure_design() {
  design::Design d("demo");
  design::DataStructure a;
  a.name = "a";
  a.depth = 100;
  a.width = 8;
  d.add(a);
  design::DataStructure b;
  b.name = "b";
  b.depth = 2000;
  b.width = 16;
  d.add(b);
  d.set_all_conflicting();
  return d;
}

TEST(CostModel, OnChipHasNoPinCosts) {
  const arch::Board board = arch::single_fpga_board("XCV1000", 4);
  const design::Design design = two_structure_design();
  const CostTable table(design, board);
  // Type 0 = on-chip BlockRAM (0 pins).
  EXPECT_DOUBLE_EQ(table.breakdown(0, 0).pin_delay, 0.0);
  EXPECT_DOUBLE_EQ(table.breakdown(0, 0).pin_io, 0.0);
  // Type 1 = off-chip SRAM: positive pin costs.
  EXPECT_GT(table.breakdown(0, 1).pin_delay, 0.0);
  EXPECT_GT(table.breakdown(0, 1).pin_io, 0.0);
}

TEST(CostModel, PaperLatencyFormula) {
  // Default (no access counts): latency = D_d * (RL_t + WL_t).
  const arch::Board board = arch::single_fpga_board("XCV1000", 4);
  const design::Design design = two_structure_design();
  const CostTable table(design, board);
  const arch::BankType& onchip = board.type(0);
  EXPECT_DOUBLE_EQ(
      table.breakdown(0, 0).latency,
      static_cast<double>(100 * (onchip.read_latency + onchip.write_latency)));
  const arch::BankType& sram = board.type(1);
  EXPECT_DOUBLE_EQ(
      table.breakdown(1, 1).latency,
      static_cast<double>(2000 * (sram.read_latency + sram.write_latency)));
}

TEST(CostModel, AccessCountsRefineLatency) {
  design::Design design("demo");
  design::DataStructure hot;
  hot.name = "hot";
  hot.depth = 16;
  hot.width = 8;
  hot.reads = 100000;
  hot.writes = 16;
  design.add(hot);
  const arch::Board board = arch::single_fpga_board("XCV1000", 4);
  const CostTable table(design, board);
  const arch::BankType& sram = board.type(1);
  EXPECT_DOUBLE_EQ(table.breakdown(0, 1).latency,
                   static_cast<double>(100000 * sram.read_latency +
                                       16 * sram.write_latency));
}

TEST(CostModel, NineteenDigitAccessCountsPriceInDouble) {
  // Wire text may carry any int64 access count: `reads 9000000000000000000`
  // on a type with `rl 2` prices in double instead of overflowing int64.
  design::DataStructure hot;
  hot.name = "hot";
  hot.depth = 16;
  hot.width = 8;
  hot.reads = 9'000'000'000'000'000'000;
  hot.writes = 16;
  arch::BankType slow;
  slow.name = "slow";
  slow.instances = 1;
  slow.ports = 1;
  slow.configs = {{1024, 16}};
  slow.read_latency = 2;
  slow.write_latency = 3;
  slow.pins_traversed = 2;
  const CostBreakdown cost =
      assignment_cost(hot, slow, plan_placement(hot, slow));
  EXPECT_EQ(cost.latency, 2.0 * 9e18 + 48.0);
  EXPECT_EQ(cost.pin_delay, 32.0);
}

TEST(CostModel, PinIoUsesConsumedDimensions) {
  const arch::Board board = arch::single_fpga_board("XCV1000", 4);
  const design::Design design = two_structure_design();
  const CostTable table(design, board);
  const PlacementPlan& plan = table.plan(1, 1);
  ASSERT_TRUE(plan.feasible);
  const arch::BankType& sram = board.type(1);
  const double expected = static_cast<double>(
      (support::ilog2_ceil(plan.cd) + plan.cw) * sram.pins_traversed);
  EXPECT_DOUBLE_EQ(table.breakdown(1, 1).pin_io, expected);
}

TEST(CostModel, WeightsScaleComponents) {
  const arch::Board board = arch::single_fpga_board("XCV1000", 4);
  const design::Design design = two_structure_design();
  CostWeights weights;
  weights.latency = 2.0;
  weights.pin_delay = 0.0;
  weights.pin_io = 0.0;
  const CostTable table(design, board, weights);
  EXPECT_DOUBLE_EQ(table.cost(0, 1), 2.0 * table.breakdown(0, 1).latency);
}

TEST(CostModel, AssignmentObjectiveSumsPerStructureCosts) {
  const arch::Board board = arch::single_fpga_board("XCV1000", 4);
  const design::Design design = two_structure_design();
  const CostTable table(design, board);
  const std::vector<int> assignment{0, 1};
  EXPECT_DOUBLE_EQ(table.assignment_objective(assignment),
                   table.cost(0, 0) + table.cost(1, 1));
}

TEST(CostModel, OnChipCheaperThanOffChipForSameStructure) {
  const arch::Board board = arch::single_fpga_board("XCV1000", 4);
  const design::Design design = two_structure_design();
  const CostTable table(design, board);
  // On-chip: lower latency and zero pins; must be cheaper.
  EXPECT_LT(table.cost(0, 0), table.cost(0, 1));
}

TEST(CostModel, NormalizedWeightsBalanceComponents) {
  const arch::Board board = arch::single_fpga_board("XCV1000", 4);
  const design::Design design = two_structure_design();
  const CostWeights w = normalized_weights(design, board);
  EXPECT_GT(w.latency, 0.0);
  EXPECT_GT(w.pin_delay, 0.0);
  EXPECT_GT(w.pin_io, 0.0);
  // After normalization the mean weighted component is ~1, so weighted
  // latency and pin-delay sums agree to within the feasibility pattern.
  double latency_sum = 0, pin_delay_sum = 0;
  for (std::size_t d = 0; d < design.size(); ++d) {
    for (std::size_t t = 0; t < board.num_types(); ++t) {
      if (!plan_placement(design.at(d), board.type(t)).feasible) continue;
      latency_sum += w.latency * CostTable(design, board, w).breakdown(d, t).latency;
      pin_delay_sum += w.pin_delay * CostTable(design, board, w).breakdown(d, t).pin_delay;
    }
  }
  EXPECT_NEAR(latency_sum, pin_delay_sum, 1e-6);
}

}  // namespace
}  // namespace gmm::mapping
