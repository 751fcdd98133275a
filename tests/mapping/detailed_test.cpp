#include "mapping/detailed_mapper.hpp"

#include <gtest/gtest.h>

#include "arch/device_catalog.hpp"
#include "mapping/pipeline.hpp"
#include "mapping/validate.hpp"
#include "support/rng.hpp"
#include "workload/table3_suite.hpp"

namespace gmm::mapping {
namespace {

design::DataStructure ds(const std::string& name, std::int64_t depth,
                         std::int64_t width) {
  design::DataStructure s;
  s.name = name;
  s.depth = depth;
  s.width = width;
  return s;
}

TEST(DetailedMapper, PlacesFigure2Example) {
  arch::Board board("b");
  arch::BankType t;
  t.name = "fig2";
  t.instances = 16;
  t.ports = 3;
  t.configs = {{128, 1}, {64, 2}, {32, 4}, {16, 8}};
  board.add_bank_type(t);

  design::Design design("d");
  design.add(ds("big", 55, 17));
  design.set_all_conflicting();

  const CostTable table(design, board);
  GlobalAssignment assignment;
  assignment.type_of = {0};
  const DetailedMapping mapping =
      map_detailed(design, board, table, assignment);
  ASSERT_TRUE(mapping.success) << mapping.failure;
  EXPECT_EQ(mapping.fragment_count(0), 12);
  EXPECT_TRUE(
      validate_mapping(design, board, assignment, mapping).empty());
  // The packer may merge the 1-port column/corner fragments onto shared
  // instances, so at most 12 instances are touched.
  EXPECT_LE(mapping.instances_used(0), 12);
  EXPECT_GE(mapping.instances_used(0), 6);  // at least the full blocks
}

TEST(DetailedMapper, PacksSmallStructuresOntoSharedInstance) {
  // Two half-bank structures share one dual-ported BlockRAM.
  arch::Board board("b");
  board.add_bank_type(arch::on_chip_bank_type(*arch::find_device("XCV50")));
  design::Design design("d");
  design.add(ds("a", 2048, 1));  // half of a 4096x1 BlockRAM
  design.add(ds("b", 2048, 1));
  design.set_all_conflicting();
  const CostTable table(design, board);
  GlobalAssignment assignment;
  assignment.type_of = {0, 0};
  const DetailedMapping mapping =
      map_detailed(design, board, table, assignment);
  ASSERT_TRUE(mapping.success) << mapping.failure;
  EXPECT_EQ(mapping.instances_used(0), 1);
  EXPECT_TRUE(validate_mapping(design, board, assignment, mapping).empty());
}

TEST(DetailedMapper, ConflictingStructuresNeverShareBlocks) {
  arch::Board board("b");
  board.add_bank_type(arch::on_chip_bank_type(*arch::find_device("XCV50")));
  design::Design design("d");
  design.add(ds("a", 4096, 1));
  design.add(ds("b", 4096, 1));
  design.set_all_conflicting();
  const CostTable table(design, board);
  GlobalAssignment assignment;
  assignment.type_of = {0, 0};
  const DetailedMapping mapping =
      map_detailed(design, board, table, assignment);
  ASSERT_TRUE(mapping.success) << mapping.failure;
  EXPECT_EQ(mapping.instances_used(0), 2);
  EXPECT_TRUE(validate_mapping(design, board, assignment, mapping).empty());
}

TEST(DetailedMapper, NonConflictingStructuresShareStorage) {
  arch::Board board("b");
  board.add_bank_type(arch::on_chip_bank_type(*arch::find_device("XCV50")));
  design::Design design("d");
  auto a = ds("a", 4096, 1);
  a.lifetime = design::Lifetime{0, 10};
  auto b = ds("b", 4096, 1);
  b.lifetime = design::Lifetime{20, 30};
  design.add(a);
  design.add(b);
  design.derive_conflicts_from_lifetimes();  // no conflicts
  const CostTable table(design, board);
  GlobalAssignment assignment;
  assignment.type_of = {0, 0};
  const DetailedMapping mapping =
      map_detailed(design, board, table, assignment);
  ASSERT_TRUE(mapping.success) << mapping.failure;
  // Lifetime-disjoint full-bank structures overlap on one instance.
  EXPECT_EQ(mapping.instances_used(0), 1);
  EXPECT_TRUE(validate_mapping(design, board, assignment, mapping).empty());
}

TEST(DetailedMapper, OverlapDisabledUsesSeparateInstances) {
  arch::Board board("b");
  board.add_bank_type(arch::on_chip_bank_type(*arch::find_device("XCV50")));
  design::Design design("d");
  auto a = ds("a", 4096, 1);
  a.lifetime = design::Lifetime{0, 10};
  auto b = ds("b", 4096, 1);
  b.lifetime = design::Lifetime{20, 30};
  design.add(a);
  design.add(b);
  design.derive_conflicts_from_lifetimes();
  const CostTable table(design, board);
  GlobalAssignment assignment;
  assignment.type_of = {0, 0};
  DetailedOptions options;
  options.allow_overlap = false;
  const DetailedMapping mapping =
      map_detailed(design, board, table, assignment, options);
  ASSERT_TRUE(mapping.success) << mapping.failure;
  EXPECT_EQ(mapping.instances_used(0), 2);
}

// On a design with both conflicting and lifetime-disjoint pairs the overlap
// pass runs: a structure without a lifetime (it conflicts with every other
// one) neither joins a shared block nor hosts one, while the
// lifetime-disjoint pair still shares.
TEST(DetailedMapper, MixedDesignSharesOnlyLifetimeDisjointStructures) {
  arch::Board board("b");
  board.add_bank_type(arch::on_chip_bank_type(*arch::find_device("XCV50")));
  design::Design design("d");
  design.add(ds("always", 4096, 1));  // no lifetime
  auto a = ds("a", 4096, 1);
  a.lifetime = design::Lifetime{0, 10};
  auto b = ds("b", 4096, 1);
  b.lifetime = design::Lifetime{20, 30};
  design.add(a);
  design.add(b);
  design.derive_conflicts_from_lifetimes();
  const CostTable table(design, board);
  GlobalAssignment assignment;
  assignment.type_of = {0, 0, 0};
  const DetailedMapping mapping =
      map_detailed(design, board, table, assignment);
  ASSERT_TRUE(mapping.success) << mapping.failure;
  ASSERT_EQ(mapping.fragments.size(), 3u);
  EXPECT_EQ(mapping.fragments[0].instance, 0);  // "always", alone
  EXPECT_EQ(mapping.fragments[1].instance, 1);  // a
  EXPECT_EQ(mapping.fragments[2].instance, 1);  // b joins a's block
  EXPECT_EQ(mapping.instances_used(0), 2);
  EXPECT_TRUE(validate_mapping(design, board, assignment, mapping).empty());
}

// On the paper's all-conflicting designs no block can be shared, so the
// placements must be exactly those of a run with overlap switched off.
TEST(DetailedMapper, AllConflictingDesignMapsIdenticallyWithOverlapOnOrOff) {
  for (const int index : {1, 3, 5}) {
    const workload::Table3Instance inst =
        workload::build_instance(workload::table3_points()[index - 1], 2001);
    ASSERT_EQ(inst.design.num_conflicts(),
              inst.design.size() * (inst.design.size() - 1) / 2);
    const PipelineResult solved = map_pipeline(inst.design, inst.board);
    ASSERT_TRUE(solved.detailed.success) << "point " << index;
    const CostTable table(inst.design, inst.board);
    DetailedOptions off;
    off.allow_overlap = false;
    const DetailedMapping with =
        map_detailed(inst.design, inst.board, table, solved.assignment);
    const DetailedMapping without =
        map_detailed(inst.design, inst.board, table, solved.assignment, off);
    ASSERT_TRUE(with.success && without.success) << "point " << index;
    ASSERT_EQ(with.fragments.size(), without.fragments.size());
    for (std::size_t i = 0; i < with.fragments.size(); ++i) {
      const PlacedFragment& a = with.fragments[i];
      const PlacedFragment& b = without.fragments[i];
      EXPECT_TRUE(a.ds == b.ds && a.type == b.type &&
                  a.instance == b.instance &&
                  a.config_index == b.config_index && a.kind == b.kind &&
                  a.ports == b.ports && a.first_port == b.first_port &&
                  a.offset_bits == b.offset_bits &&
                  a.block_bits == b.block_bits &&
                  a.words_covered == b.words_covered &&
                  a.bits_covered == b.bits_covered)
          << "point " << index << " fragment " << i;
    }
  }
}

TEST(DetailedMapper, FailsWhenInstancesExhausted) {
  // Type 0 packs fine; type 1 runs out.  The pipeline's no-good cut reads
  // only failed_type, so it must name the exhausted type.
  arch::Board board("b");
  arch::BankType roomy = arch::on_chip_bank_type(*arch::find_device("XCV50"));
  roomy.name = "roomy";
  board.add_bank_type(roomy);
  arch::BankType t = arch::on_chip_bank_type(*arch::find_device("XCV50"));
  t.instances = 1;
  board.add_bank_type(t);
  design::Design design("d");
  design.add(ds("a", 4096, 1));
  design.add(ds("b", 4096, 1));
  design.add(ds("c", 4096, 1));
  design.set_all_conflicting();
  const CostTable table(design, board);
  GlobalAssignment assignment;
  assignment.type_of = {1, 0, 1};
  const DetailedMapping mapping =
      map_detailed(design, board, table, assignment);
  EXPECT_FALSE(mapping.success);
  EXPECT_FALSE(mapping.failure.empty());
  EXPECT_EQ(mapping.failed_type, 1);
}

// Property: on dual-ported banks, any assignment satisfying the aggregate
// port and capacity constraints detail-maps successfully (the paper's
// guarantee; exact for Pt <= 2).
class DualPortGuarantee : public ::testing::TestWithParam<int> {};

TEST_P(DualPortGuarantee, AggregateFeasibleAlwaysPacks) {
  support::Rng rng(7100 + GetParam());
  arch::Board board("b");
  arch::BankType t = arch::on_chip_bank_type(*arch::find_device("XCV1000"));
  board.add_bank_type(t);  // 32 instances, 2 ports, 4096 bits

  design::Design design("d");
  std::int64_t used_ports = 0;
  std::int64_t used_bits = 0;
  std::vector<int> assignment_vec;
  // Keep adding random structures while the aggregate constraints hold.
  for (int i = 0; i < 200; ++i) {
    design::DataStructure s =
        ds("s" + std::to_string(i), rng.uniform_int(1, 6000),
           rng.uniform_int(1, 20));
    const PlacementPlan plan = plan_placement(s, t);
    if (!plan.feasible) continue;
    if (used_ports + plan.cp > t.total_ports()) continue;
    if (used_bits + plan.cw * plan.cd > t.total_bits()) continue;
    used_ports += plan.cp;
    used_bits += plan.cw * plan.cd;
    design.add(s);
    assignment_vec.push_back(0);
  }
  design.set_all_conflicting();
  if (design.size() == 0) GTEST_SKIP() << "degenerate draw";

  const CostTable table(design, board);
  GlobalAssignment assignment;
  assignment.type_of = assignment_vec;
  const DetailedMapping mapping =
      map_detailed(design, board, table, assignment);
  ASSERT_TRUE(mapping.success)
      << mapping.failure << " (ports " << used_ports << "/"
      << t.total_ports() << ", bits " << used_bits << "/" << t.total_bits()
      << ")";
  EXPECT_TRUE(validate_mapping(design, board, assignment, mapping).empty());
}

INSTANTIATE_TEST_SUITE_P(Sweep, DualPortGuarantee, ::testing::Range(0, 25));

}  // namespace
}  // namespace gmm::mapping
