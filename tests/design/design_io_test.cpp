#include "design/design_io.hpp"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

namespace gmm::design {
namespace {

TEST(DesignIo, ParsesFullDesign) {
  const DesignParseResult r = parse_design_string(R"(
design fir_filter
segment coeffs depth 64 width 16 reads 10000 writes 64
segment window depth 64 width 16 lifetime 0 100
segment output depth 512 width 16 lifetime 50 200
conflict coeffs window
)");
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.design.name(), "fir_filter");
  ASSERT_EQ(r.design.size(), 3u);
  EXPECT_EQ(r.design.at(0).name, "coeffs");
  EXPECT_EQ(r.design.at(0).depth, 64);
  EXPECT_EQ(r.design.at(0).reads, 10000);
  ASSERT_TRUE(r.design.at(1).lifetime.has_value());
  EXPECT_EQ(r.design.at(1).lifetime->start, 0);
  EXPECT_EQ(r.design.at(1).lifetime->end, 100);
  EXPECT_TRUE(r.design.conflicts(0, 1));
  EXPECT_FALSE(r.design.conflicts(0, 2));
}

TEST(DesignIo, ConflictsAllDirective) {
  const DesignParseResult r = parse_design_string(R"(
segment a depth 8 width 8
segment b depth 8 width 8
segment c depth 8 width 8
conflicts all
)");
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.design.num_conflicts(), 3u);
}

TEST(DesignIo, ConflictsLifetimesDirective) {
  const DesignParseResult r = parse_design_string(R"(
segment a depth 8 width 8 lifetime 0 10
segment b depth 8 width 8 lifetime 10 20
segment c depth 8 width 8 lifetime 5 15
conflicts lifetimes
)");
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_FALSE(r.design.conflicts(0, 1));
  EXPECT_TRUE(r.design.conflicts(0, 2));
}

TEST(DesignIo, RoundTrip) {
  const DesignParseResult first = parse_design_string(R"(
design demo
segment big depth 1000 width 24 reads 5000
segment tiny depth 4 width 2 lifetime 3 9
conflict big tiny
)");
  ASSERT_TRUE(first.ok) << first.error;
  const DesignParseResult second =
      parse_design_string(design_to_string(first.design));
  ASSERT_TRUE(second.ok) << second.error;
  ASSERT_EQ(second.design.size(), first.design.size());
  for (std::size_t i = 0; i < first.design.size(); ++i) {
    EXPECT_EQ(second.design.at(i).name, first.design.at(i).name);
    EXPECT_EQ(second.design.at(i).depth, first.design.at(i).depth);
    EXPECT_EQ(second.design.at(i).width, first.design.at(i).width);
    EXPECT_EQ(second.design.at(i).reads, first.design.at(i).reads);
    EXPECT_EQ(second.design.at(i).lifetime, first.design.at(i).lifetime);
  }
  EXPECT_EQ(second.design.conflict_pairs(), first.design.conflict_pairs());
}

TEST(DesignIo, CompleteRelationWritesOneLineInCanonicalOrder) {
  Design design("tri");
  for (const char* name : {"a", "b", "c"}) {
    DataStructure ds;
    ds.name = name;
    ds.depth = 8;
    ds.width = 8;
    design.add(ds);
  }
  design.add_conflict(0, 2);
  design.add_conflict(0, 1);
  // Two of three pairs: spelled out in declaration order.
  EXPECT_EQ(design_to_string(design),
            "design tri\n"
            "segment a depth 8 width 8\n"
            "segment b depth 8 width 8\n"
            "segment c depth 8 width 8\n"
            "conflict a c\n"
            "conflict a b\n");
  design.add_conflict(1, 2);
  const std::string text = design_to_string(design);
  EXPECT_EQ(text,
            "design tri\n"
            "segment a depth 8 width 8\n"
            "segment b depth 8 width 8\n"
            "segment c depth 8 width 8\n"
            "conflicts all\n");
  const DesignParseResult parsed = parse_design_string(text);
  ASSERT_TRUE(parsed.ok) << parsed.error;
  const std::vector<std::pair<std::size_t, std::size_t>> canonical = {
      {0, 1}, {0, 2}, {1, 2}};
  EXPECT_EQ(parsed.design.conflict_pairs(), canonical);
  EXPECT_EQ(design_to_string(parsed.design), text);
}

TEST(DesignIo, RejectsDuplicateSegment) {
  const DesignParseResult r = parse_design_string(
      "segment a depth 8 width 8\nsegment a depth 4 width 4\n");
  EXPECT_FALSE(r.ok);
}

TEST(DesignIo, RejectsUnknownConflictTarget) {
  const DesignParseResult r = parse_design_string(
      "segment a depth 8 width 8\nconflict a ghost\n");
  EXPECT_FALSE(r.ok);
}

TEST(DesignIo, RejectsSelfConflict) {
  const DesignParseResult r = parse_design_string(
      "segment a depth 8 width 8\nconflict a a\n");
  EXPECT_FALSE(r.ok);
}

TEST(DesignIo, RejectsBadLifetime) {
  const DesignParseResult r = parse_design_string(
      "segment a depth 8 width 8 lifetime 9 3\n");
  EXPECT_FALSE(r.ok);
}

TEST(DesignIo, RejectsMissingDimensions) {
  const DesignParseResult r =
      parse_design_string("segment a depth 8 reads 10\n");
  EXPECT_FALSE(r.ok);
}

TEST(DesignIo, RejectsBitsThatOverflowInt64) {
  // depth x width of one segment, then the design's running total.
  const DesignParseResult one = parse_design_string(
      "segment s depth 4611686018427387904 width 4\n");
  EXPECT_FALSE(one.ok);
  EXPECT_NE(one.error.find(" s: "), std::string::npos) << one.error;
  EXPECT_NE(one.error.find("overflow"), std::string::npos) << one.error;
  const DesignParseResult total = parse_design_string(
      "segment a depth 4611686018427387904 width 1\n"
      "segment b depth 4611686018427387904 width 1\n");
  EXPECT_FALSE(total.ok);
  EXPECT_NE(total.error.find(" b: "), std::string::npos) << total.error;
  const DesignParseResult fits = parse_design_string(
      "segment a depth 4611686018427387904 width 1\n"
      "segment b depth 4611686018427387903 width 1\n");
  EXPECT_TRUE(fits.ok) << fits.error;
  EXPECT_EQ(fits.design.total_bits(), INT64_MAX);
}

}  // namespace
}  // namespace gmm::design
