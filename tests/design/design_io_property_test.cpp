// Property-based round-trip testing of the design text format: generate
// random valid designs with support/rng, write -> parse -> compare
// field-by-field.  Covers empty design names (previously renamed
// "unnamed" on the way through), optional read/write footprints,
// lifetime intervals, and all three conflict declarations (explicit
// pairs, all-pairs, lifetime-derived).  A relation that is not complete
// round-trips as the explicit pair list, in first-mention order; a
// complete one, however declared, is written as `conflicts all` and reads
// back in Design::set_all_conflicting's canonical pair order.
#include "design/design_io.hpp"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "design/design.hpp"
#include "support/rng.hpp"

namespace gmm::design {
namespace {

DataStructure random_structure(support::Rng& rng, int ordinal) {
  DataStructure ds;
  ds.name = "seg" + std::to_string(ordinal) + "_" +
            std::to_string(rng.uniform_int(0, 999));
  ds.depth = rng.uniform_int(1, 1 << 16);
  ds.width = rng.uniform_int(1, 128);
  // 0 means "unknown footprint" and is omitted by the writer; both forms
  // must round-trip.
  if (rng.bernoulli(0.5)) ds.reads = rng.uniform_int(1, 1'000'000);
  if (rng.bernoulli(0.5)) ds.writes = rng.uniform_int(1, 1'000'000);
  if (rng.bernoulli(0.4)) {
    Lifetime lt;
    lt.start = rng.uniform_int(0, 1000);
    lt.end = lt.start + rng.uniform_int(1, 1000);  // parser needs end > start
    ds.lifetime = lt;
  }
  return ds;
}

Design random_design(support::Rng& rng) {
  Design design(rng.bernoulli(0.1)
                    ? ""
                    : "design_" + std::to_string(rng.uniform_int(0, 9999)));
  const std::int64_t segments = rng.uniform_int(0, 12);
  for (std::int64_t i = 0; i < segments; ++i) {
    design.add(random_structure(rng, static_cast<int>(i)));
  }
  if (segments >= 2) {
    const double mode = rng.uniform_real();
    if (mode < 0.3) {
      design.set_all_conflicting();
    } else if (mode < 0.5) {
      design.derive_conflicts_from_lifetimes();
    } else if (mode < 0.9) {
      const std::int64_t pairs = rng.uniform_int(0, 2 * segments);
      for (std::int64_t p = 0; p < pairs; ++p) {
        const std::size_t a = rng.index(static_cast<std::size_t>(segments));
        const std::size_t b = rng.index(static_cast<std::size_t>(segments));
        if (a != b) design.add_conflict(a, b);
      }
    }  // else: no conflicts at all
  }
  return design;
}

/// Every pair (a, b), a < b, in set_all_conflicting's order.
std::vector<std::pair<std::size_t, std::size_t>> canonical_pairs(
    std::size_t n) {
  std::vector<std::pair<std::size_t, std::size_t>> pairs;
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = a + 1; b < n; ++b) pairs.emplace_back(a, b);
  }
  return pairs;
}

void expect_designs_equal(const Design& a, const Design& b,
                          std::uint64_t seed) {
  EXPECT_EQ(a.name(), b.name()) << "seed " << seed;
  ASSERT_EQ(a.size(), b.size()) << "seed " << seed;
  for (std::size_t d = 0; d < a.size(); ++d) {
    const DataStructure& x = a.at(d);
    const DataStructure& y = b.at(d);
    EXPECT_EQ(x.name, y.name) << "seed " << seed;
    EXPECT_EQ(x.depth, y.depth) << "seed " << seed;
    EXPECT_EQ(x.width, y.width) << "seed " << seed;
    EXPECT_EQ(x.reads, y.reads) << "seed " << seed;
    EXPECT_EQ(x.writes, y.writes) << "seed " << seed;
    EXPECT_EQ(x.lifetime, y.lifetime) << "seed " << seed << " segment " << d;
  }
  if (a.all_conflicting()) {
    EXPECT_TRUE(b.all_conflicting()) << "seed " << seed;
    EXPECT_EQ(b.conflict_pairs(), canonical_pairs(a.size()))
        << "seed " << seed;
    return;
  }
  // Conflicts round-trip as the normalized (a < b, first-mention order)
  // pair list, exactly.
  EXPECT_EQ(a.conflict_pairs(), b.conflict_pairs()) << "seed " << seed;
}

TEST(DesignIoProperty, WriteParseRoundTripsRandomDesigns) {
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    support::Rng rng(seed);
    const Design design = random_design(rng);
    const std::string text = design_to_string(design);
    const DesignParseResult parsed = parse_design_string(text);
    ASSERT_TRUE(parsed.ok)
        << "seed " << seed << ": " << parsed.error << "\n" << text;
    expect_designs_equal(design, parsed.design, seed);
    // A complete relation is the one `conflicts all` line; any other
    // relation is spelled out pair by pair.
    EXPECT_EQ(text.find("conflicts all") != std::string::npos,
              design.all_conflicting())
        << "seed " << seed << "\n" << text;
    if (design.all_conflicting()) {
      EXPECT_EQ(text.find("conflict "), std::string::npos)
          << "seed " << seed << "\n" << text;
    }
    // Idempotence: a second trip produces byte-identical text.
    EXPECT_EQ(design_to_string(parsed.design), text) << "seed " << seed;
  }
}

TEST(DesignIoProperty, EmptyNameRoundTripsEmpty) {
  Design design("");
  DataStructure ds;
  ds.name = "only";
  ds.depth = 8;
  ds.width = 8;
  design.add(ds);
  const DesignParseResult parsed =
      parse_design_string(design_to_string(design));
  ASSERT_TRUE(parsed.ok) << parsed.error;
  EXPECT_TRUE(parsed.design.name().empty());
  ASSERT_EQ(parsed.design.size(), 1u);
  EXPECT_EQ(parsed.design.at(0).name, "only");
}

TEST(DesignIoProperty, FootprintZeroIsOmittedButPreserved) {
  // reads/writes of 0 mean "unknown"; the writer omits them and the
  // parser must restore exactly 0, never a stray default.
  Design design("fp");
  DataStructure ds;
  ds.name = "s";
  ds.depth = 16;
  ds.width = 4;
  ds.reads = 0;
  ds.writes = 123;
  design.add(ds);
  const std::string text = design_to_string(design);
  EXPECT_EQ(text.find("reads"), std::string::npos) << text;
  const DesignParseResult parsed = parse_design_string(text);
  ASSERT_TRUE(parsed.ok);
  EXPECT_EQ(parsed.design.at(0).reads, 0);
  EXPECT_EQ(parsed.design.at(0).writes, 123);
}

}  // namespace
}  // namespace gmm::design
