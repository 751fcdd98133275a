#include "design/design.hpp"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

namespace gmm::design {
namespace {

DataStructure ds(const std::string& name, std::int64_t depth,
                 std::int64_t width) {
  DataStructure s;
  s.name = name;
  s.depth = depth;
  s.width = width;
  return s;
}

TEST(DataStructure, BitsAndEffectiveAccesses) {
  DataStructure s = ds("a", 55, 17);
  EXPECT_EQ(s.bits(), 935);
  // Paper default: reads = writes = depth.
  EXPECT_EQ(s.effective_reads(), 55);
  EXPECT_EQ(s.effective_writes(), 55);
  s.reads = 1000;
  s.writes = 10;
  EXPECT_EQ(s.effective_reads(), 1000);
  EXPECT_EQ(s.effective_writes(), 10);
}

TEST(Lifetime, Overlap) {
  const Lifetime a{0, 10};
  const Lifetime b{10, 20};
  const Lifetime c{5, 15};
  EXPECT_FALSE(a.overlaps(b));  // half-open: touching is disjoint
  EXPECT_FALSE(b.overlaps(a));
  EXPECT_TRUE(a.overlaps(c));
  EXPECT_TRUE(c.overlaps(b));
  EXPECT_TRUE(a.overlaps(a));
}

TEST(Design, AddAndQuery) {
  Design design("d");
  const std::size_t a = design.add(ds("a", 16, 8));
  const std::size_t b = design.add(ds("b", 32, 4));
  EXPECT_EQ(design.size(), 2u);
  EXPECT_EQ(design.at(a).name, "a");
  EXPECT_EQ(design.total_bits(), 16 * 8 + 32 * 4);
  EXPECT_FALSE(design.conflicts(a, b));
  design.add_conflict(a, b);
  EXPECT_TRUE(design.conflicts(a, b));
  EXPECT_TRUE(design.conflicts(b, a));
  design.add_conflict(b, a);  // duplicate, no effect
  EXPECT_EQ(design.num_conflicts(), 1u);
}

TEST(Design, SetAllConflicting) {
  Design design;
  for (int i = 0; i < 5; ++i) design.add(ds("s" + std::to_string(i), 8, 8));
  design.set_all_conflicting();
  EXPECT_EQ(design.num_conflicts(), 10u);  // C(5,2)
  for (std::size_t a = 0; a < 5; ++a) {
    for (std::size_t b = a + 1; b < 5; ++b) {
      EXPECT_TRUE(design.conflicts(a, b));
    }
  }
}

TEST(Design, AllConflictingNeedsEveryPairOfAtLeastTwo) {
  Design design;
  design.set_all_conflicting();
  EXPECT_FALSE(design.all_conflicting());  // no structures, no pair
  design.add(ds("a", 8, 8));
  design.set_all_conflicting();
  EXPECT_FALSE(design.all_conflicting());  // one structure, no pair
  design.add(ds("b", 8, 8));
  EXPECT_FALSE(design.all_conflicting());
  design.add_conflict(1, 0);
  EXPECT_TRUE(design.all_conflicting());
  design.add(ds("c", 8, 8));  // a newcomer conflicts with nothing yet
  EXPECT_FALSE(design.all_conflicting());
  design.add_conflict(2, 0);
  EXPECT_FALSE(design.all_conflicting());
  design.add_conflict(1, 2);
  EXPECT_TRUE(design.all_conflicting());
  // set_all_conflicting lists the pairs in canonical order and indexes
  // every one of them.
  design.set_all_conflicting();
  const std::vector<std::pair<std::size_t, std::size_t>> canonical = {
      {0, 1}, {0, 2}, {1, 2}};
  EXPECT_EQ(design.conflict_pairs(), canonical);
  for (std::size_t a = 0; a < 3; ++a) {
    for (std::size_t b = 0; b < 3; ++b) {
      EXPECT_EQ(design.conflicts(a, b), a != b);
    }
  }
}

TEST(Design, DeriveConflictsFromLifetimes) {
  Design design;
  DataStructure a = ds("a", 8, 8);
  a.lifetime = Lifetime{0, 10};
  DataStructure b = ds("b", 8, 8);
  b.lifetime = Lifetime{10, 20};
  DataStructure c = ds("c", 8, 8);
  c.lifetime = Lifetime{5, 15};
  DataStructure d = ds("d", 8, 8);  // no lifetime: conflicts with all
  design.add(a);
  design.add(b);
  design.add(c);
  design.add(d);
  design.derive_conflicts_from_lifetimes();
  EXPECT_FALSE(design.conflicts(0, 1));  // disjoint
  EXPECT_TRUE(design.conflicts(0, 2));
  EXPECT_TRUE(design.conflicts(1, 2));
  EXPECT_TRUE(design.conflicts(0, 3));
  EXPECT_TRUE(design.conflicts(1, 3));
  EXPECT_TRUE(design.conflicts(2, 3));
}

}  // namespace
}  // namespace gmm::design
