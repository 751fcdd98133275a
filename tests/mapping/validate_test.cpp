// Negative tests: the validator must catch every corruption class it
// advertises.  A validator that never fires is worse than none — these
// tests corrupt known-good mappings one field at a time.
#include "mapping/validate.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "arch/device_catalog.hpp"
#include "mapping/detailed_mapper.hpp"
#include "mapping/pipeline.hpp"

namespace gmm::mapping {
namespace {

struct Fixture {
  arch::Board board{"b"};
  design::Design design{"d"};
  CostTable* table = nullptr;
  GlobalAssignment assignment;
  DetailedMapping mapping;

  Fixture() {
    board.add_bank_type(
        arch::on_chip_bank_type(*arch::find_device("XCV300")));
    design::DataStructure a;
    a.name = "a";
    a.depth = 1024;
    a.width = 1;
    design.add(a);
    design::DataStructure b;
    b.name = "b";
    b.depth = 2048;
    b.width = 1;
    design.add(b);
    design.set_all_conflicting();
    table = new CostTable(design, board);
    assignment.type_of = {0, 0};
    mapping = map_detailed(design, board, *table, assignment);
  }
  ~Fixture() { delete table; }
};

TEST(ValidateNegative, CleanMappingPasses) {
  Fixture f;
  ASSERT_TRUE(f.mapping.success);
  EXPECT_TRUE(
      validate_mapping(f.design, f.board, f.assignment, f.mapping).empty());
}

TEST(ValidateNegative, DetectsFailedMapping) {
  Fixture f;
  f.mapping.success = false;
  f.mapping.failure = "synthetic";
  EXPECT_FALSE(
      validate_mapping(f.design, f.board, f.assignment, f.mapping).empty());
}

TEST(ValidateNegative, DetectsMissingCoverage) {
  Fixture f;
  f.mapping.fragments.pop_back();
  const auto violations =
      validate_mapping(f.design, f.board, f.assignment, f.mapping);
  EXPECT_FALSE(violations.empty());
}

TEST(ValidateNegative, DetectsWrongTypeAssignment) {
  Fixture f;
  f.assignment.type_of[0] = -1;
  EXPECT_FALSE(
      validate_mapping(f.design, f.board, f.assignment, f.mapping).empty());
}

TEST(ValidateNegative, DetectsInstanceOutOfRange) {
  Fixture f;
  f.mapping.fragments.front().instance = 10'000;
  EXPECT_FALSE(
      validate_mapping(f.design, f.board, f.assignment, f.mapping).empty());
}

TEST(ValidateNegative, DetectsPortRangeOverflow) {
  Fixture f;
  f.mapping.fragments.front().first_port = 99;
  EXPECT_FALSE(
      validate_mapping(f.design, f.board, f.assignment, f.mapping).empty());
}

TEST(ValidateNegative, DetectsNonPow2Block) {
  Fixture f;
  f.mapping.fragments.front().block_bits = 1000;  // not a power of two
  EXPECT_FALSE(
      validate_mapping(f.design, f.board, f.assignment, f.mapping).empty());
}

TEST(ValidateNegative, DetectsMisalignedOffset) {
  Fixture f;
  f.mapping.fragments.front().offset_bits += 1;
  EXPECT_FALSE(
      validate_mapping(f.design, f.board, f.assignment, f.mapping).empty());
}

TEST(ValidateNegative, DetectsCapacityOverflow) {
  Fixture f;
  f.mapping.fragments.front().offset_bits =
      f.board.type(0).capacity_bits();
  EXPECT_FALSE(
      validate_mapping(f.design, f.board, f.assignment, f.mapping).empty());
}

TEST(ValidateNegative, DetectsUnknownConfig) {
  Fixture f;
  f.mapping.fragments.front().config_index = 99;
  EXPECT_FALSE(
      validate_mapping(f.design, f.board, f.assignment, f.mapping).empty());
}

// A fragment on a type the board lacks is reported once; the
// per-instance checks skip it, having no type to read ports and capacity
// from.
TEST(ValidateNegative, DetectsUnknownBankType) {
  Fixture f;
  PlacedFragment& bad = f.mapping.fragments.front();
  ASSERT_EQ(f.mapping.fragment_count(bad.ds), 1);
  bad.type = 7;
  const design::DataStructure& ds = f.design.at(bad.ds);
  const std::vector<std::string> expected = {
      ds.name + ": fragment on unknown bank type",
      ds.name + ": fragments cover 0 of " + std::to_string(ds.bits()) +
          " data bits",
  };
  EXPECT_EQ(validate_mapping(f.design, f.board, f.assignment, f.mapping),
            expected);
}

TEST(ValidateNegative, DetectsConflictingShare) {
  // Force both structures' fragments onto the identical block+ports of
  // one instance; they conflict, so sharing is illegal.
  Fixture f;
  ASSERT_GE(f.mapping.fragments.size(), 2u);
  PlacedFragment& second = f.mapping.fragments[1];
  const PlacedFragment& first = f.mapping.fragments[0];
  second.instance = first.instance;
  second.offset_bits = first.offset_bits;
  second.block_bits = first.block_bits;
  second.first_port = first.first_port;
  second.ports = first.ports;
  second.config_index = first.config_index;
  EXPECT_FALSE(
      validate_mapping(f.design, f.board, f.assignment, f.mapping).empty());
}

TEST(ValidateNegative, DetectsPartialBlockOverlap) {
  Fixture f;
  ASSERT_GE(f.mapping.fragments.size(), 2u);
  PlacedFragment& second = f.mapping.fragments[1];
  const PlacedFragment& first = f.mapping.fragments[0];
  // Same instance, overlapping but not identical blocks.
  second.instance = first.instance;
  second.offset_bits = first.offset_bits;  // same offset...
  second.block_bits = first.block_bits * 2;  // ...different size
  second.first_port = first.first_port + first.ports;  // ports disjoint
  const auto violations =
      validate_mapping(f.design, f.board, f.assignment, f.mapping);
  EXPECT_FALSE(violations.empty());
}

// Violations come back grouped by (type, instance), whatever order the
// mapping lists its fragments in, and within one instance in mapping
// order; each names its instance as type[i].
TEST(ValidateNegative, ViolationsNameTheirInstanceInOrder) {
  arch::Board board("b");
  board.add_bank_type(arch::on_chip_bank_type(*arch::find_device("XCV300")));
  board.add_bank_type(arch::on_chip_bank_type(*arch::find_device("XCV50")));
  design::Design design("d");
  for (const auto& [name, depth] :
       {std::pair("a", 2048), std::pair("b", 1024), std::pair("c", 2048),
        std::pair("d", 1024)}) {
    design::DataStructure s;
    s.name = name;
    s.depth = depth;
    s.width = 1;
    design.add(s);
  }
  design.set_all_conflicting();
  const CostTable table(design, board);
  GlobalAssignment assignment;
  assignment.type_of = {0, 0, 1, 1};
  DetailedMapping mapping = map_detailed(design, board, table, assignment);
  ASSERT_TRUE(mapping.success);
  ASSERT_TRUE(validate_mapping(design, board, assignment, mapping).empty());
  // Each type packs its two one-port blocks onto instance 0.  Move type
  // 0's pair onto instance 2 and onto one port, type 1's onto instance 1
  // and onto one offset (so type order and instance order disagree), then
  // list the fragments backwards.
  ASSERT_EQ(mapping.fragments.size(), 4u);
  for (PlacedFragment& f : mapping.fragments) {
    ASSERT_EQ(f.instance, 0);
    ASSERT_EQ(f.ports, 1);
    if (f.type == 0) {
      f.instance = 2;
      f.first_port = 0;
    } else {
      f.instance = 1;
      f.offset_bits = 0;
    }
  }
  std::reverse(mapping.fragments.begin(), mapping.fragments.end());
  const std::vector<std::string> expected = {
      board.type(0).name + "[2]: port ranges of b and a overlap",
      board.type(1).name + "[1]: blocks of d and c overlap",
  };
  EXPECT_EQ(validate_mapping(design, board, assignment, mapping), expected);
}

}  // namespace
}  // namespace gmm::mapping
