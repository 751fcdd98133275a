// Balanced min-cut conflict-graph partitioning: determinism, balance
// caps (primary and extra dimensions), cut quality on clustered graphs,
// and the degenerate shapes (one part, more parts than structures, empty
// designs) the shard mapper leans on.
#include "design/partition.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>

#include "support/rng.hpp"

namespace gmm::design {
namespace {

DataStructure ds(const std::string& name, std::int64_t depth,
                 std::int64_t width, std::int64_t accesses = 0) {
  DataStructure s;
  s.name = name;
  s.depth = depth;
  s.width = width;
  s.reads = accesses;
  s.writes = accesses;
  return s;
}

Design random_design(support::Rng& rng, std::size_t segments,
                     double edge_probability) {
  Design design("d");
  for (std::size_t i = 0; i < segments; ++i) {
    design.add(ds("s" + std::to_string(i), rng.uniform_int(4, 4096),
                  rng.uniform_int(1, 32), rng.uniform_int(1, 100000)));
  }
  for (std::size_t a = 0; a < segments; ++a) {
    for (std::size_t b = a + 1; b < segments; ++b) {
      if (rng.bernoulli(edge_probability)) design.add_conflict(a, b);
    }
  }
  return design;
}

std::int64_t recount_cut(const Design& design,
                         const PartitionResult& result) {
  std::int64_t cut = 0;
  for (const auto& [a, b] : design.conflict_pairs()) {
    if (result.part_of[a] != result.part_of[b]) ++cut;
  }
  return cut;
}

TEST(Partition, SinglePartIsTrivial) {
  Design design("d");
  design.add(ds("a", 64, 8));
  design.add(ds("b", 64, 8));
  design.set_all_conflicting();
  const PartitionResult r = partition_design(design, {.parts = 1});
  EXPECT_EQ(r.part_of, (std::vector<int>{0, 0}));
  EXPECT_EQ(r.cut_edges, 0);
  EXPECT_EQ(r.part_bits[0], 2 * 64 * 8);
}

TEST(Partition, EmptyDesign) {
  const Design design("d");
  const PartitionResult r = partition_design(design, {.parts = 3});
  EXPECT_TRUE(r.part_of.empty());
  EXPECT_EQ(r.part_bits, (std::vector<std::int64_t>{0, 0, 0}));
  EXPECT_EQ(r.cut_edges, 0);
}

TEST(Partition, MorePartsThanStructures) {
  Design design("d");
  design.add(ds("a", 64, 8));
  design.add(ds("b", 64, 8));
  const PartitionResult r = partition_design(design, {.parts = 5});
  // Unconnected structures spread onto distinct parts.
  EXPECT_NE(r.part_of[0], r.part_of[1]);
  EXPECT_EQ(r.cut_edges, 0);
}

TEST(Partition, DeterministicAcrossRepeatedRuns) {
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    support::Rng rng(seed);
    const Design design = random_design(rng, 24, 0.2);
    const PartitionOptions options{.parts = 4};
    const PartitionResult first = partition_design(design, options);
    const PartitionResult second = partition_design(design, options);
    EXPECT_EQ(first.part_of, second.part_of) << "seed " << seed;
    EXPECT_EQ(first.cut_edges, second.cut_edges) << "seed " << seed;
    EXPECT_EQ(first.cut_traffic, second.cut_traffic) << "seed " << seed;
  }
}

TEST(Partition, ReportedCutMatchesAssignment) {
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    support::Rng rng(100 + seed);
    const Design design = random_design(rng, 20, 0.3);
    for (const std::size_t parts : {2u, 3u, 4u}) {
      const PartitionResult r = partition_design(design, {.parts = parts});
      EXPECT_EQ(r.cut_edges, recount_cut(design, r))
          << "seed " << seed << " parts " << parts;
      // part_bits must match a recount too.
      std::vector<std::int64_t> bits(parts, 0);
      for (std::size_t d = 0; d < design.size(); ++d) {
        bits[static_cast<std::size_t>(r.part_of[d])] +=
            std::max<std::int64_t>(design.at(d).bits(), 1);
      }
      EXPECT_EQ(r.part_bits, bits) << "seed " << seed << " parts " << parts;
    }
  }
}

TEST(Partition, RespectsUniformBalanceCaps) {
  // 16 equal structures, no conflicts: every part must end up within the
  // (1 + tolerance) / parts share.
  Design design("d");
  for (int i = 0; i < 16; ++i) design.add(ds("s" + std::to_string(i), 64, 8));
  const PartitionResult r = partition_design(
      design, {.parts = 4, .balance_tolerance = 0.15});
  const std::int64_t cap =
      static_cast<std::int64_t>(16 * 64 * 8 / 4 * 1.15) + 1;
  for (const std::int64_t bits : r.part_bits) {
    EXPECT_GT(bits, 0);
    EXPECT_LE(bits, cap);
  }
}

TEST(Partition, CutsAlongClusterBoundary) {
  // Two 5-cliques of hot structures joined by one cold edge: min-cut
  // must put each clique in its own part, cutting only the cold edge.
  Design design("d");
  for (int i = 0; i < 10; ++i) {
    design.add(ds("s" + std::to_string(i), 64, 8, 50000));
  }
  for (std::size_t a = 0; a < 5; ++a) {
    for (std::size_t b = a + 1; b < 5; ++b) {
      design.add_conflict(a, b);
      design.add_conflict(a + 5, b + 5);
    }
  }
  design.add_conflict(4, 5);  // the lone inter-cluster edge
  const PartitionResult r = partition_design(design, {.parts = 2});
  EXPECT_EQ(r.cut_edges, 1);
  for (std::size_t d = 1; d < 5; ++d) {
    EXPECT_EQ(r.part_of[d], r.part_of[0]) << d;
    EXPECT_EQ(r.part_of[d + 5], r.part_of[5]) << d;
  }
  EXPECT_NE(r.part_of[0], r.part_of[5]);
}

TEST(Partition, EdgeTrafficIsTheSmallerEndpoint) {
  Design design("d");
  design.add(ds("hot", 64, 8, 100000));
  design.add(ds("cold", 64, 8, 10));
  design.add_conflict(0, 1);
  EXPECT_EQ(edge_traffic(design, 0, 1), 2 * 10);
  // Structures without footprints fall back to reads = writes = depth.
  Design fallback("f");
  fallback.add(ds("a", 64, 8));
  fallback.add(ds("b", 32, 8));
  EXPECT_EQ(edge_traffic(fallback, 0, 1), 2 * 32);
}

TEST(Partition, NineteenDigitAccessCountsSaturateTheTraffic) {
  // Reads plus writes of 9e18 each exceed INT64_MAX: the edge weight and
  // every sum of edge weights saturate there instead of overflowing.
  constexpr std::int64_t kCount = 9'000'000'000'000'000'000;
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  Design pair("p");
  pair.add(ds("a", 64, 8, kCount));
  pair.add(ds("b", 64, 8, kCount));
  pair.add_conflict(0, 1);
  EXPECT_EQ(edge_traffic(pair, 0, 1), kMax);
  const PartitionResult split = partition_design(pair, {.parts = 2});
  EXPECT_EQ(split.cut_edges, 1);
  EXPECT_EQ(split.cut_traffic, kMax);
  // Three mutually conflicting structures over two parts: two cut edges
  // and affinities of two saturated weights each.
  Design triple("t");
  for (const char* name : {"a", "b", "c"}) triple.add(ds(name, 64, 8, kCount));
  triple.set_all_conflicting();
  const PartitionResult r = partition_design(triple, {.parts = 2});
  EXPECT_EQ(r.cut_edges, 2);
  EXPECT_EQ(r.cut_traffic, kMax);
}

TEST(Partition, ExtraDimensionCapsSpreadScarceConsumers) {
  // Eight structures, each demanding one unit of a scarce resource with
  // per-part capacity two: no part may take more than two, even though
  // bits-balance alone would allow four.
  Design design("d");
  for (int i = 0; i < 8; ++i) design.add(ds("s" + std::to_string(i), 64, 8));
  design.set_all_conflicting();
  PartitionOptions options{.parts = 4};
  // Bits caps deliberately slack: only the scarce dimension may bind.
  options.capacities.assign(4, 1 << 20);
  PartitionDimension scarce;
  scarce.weights.assign(8, 1);
  scarce.capacities.assign(4, 2);
  options.extra_dimensions.push_back(scarce);
  const PartitionResult r = partition_design(design, options);
  std::vector<int> count(4, 0);
  for (const int p : r.part_of) ++count[static_cast<std::size_t>(p)];
  for (const int c : count) EXPECT_LE(c, 2);
}

TEST(Partition, OverflowingStructureStillGetsPlaced) {
  // A structure bigger than every cap must still land somewhere (the
  // per-device solve owns the infeasibility verdict, not the partition).
  Design design("d");
  design.add(ds("huge", 1 << 20, 32));
  design.add(ds("tiny", 16, 8));
  PartitionOptions options{.parts = 2};
  options.capacities = {1024, 1024};
  const PartitionResult r = partition_design(design, options);
  EXPECT_GE(r.part_of[0], 0);
  EXPECT_GE(r.part_of[1], 0);
}

}  // namespace
}  // namespace gmm::design
