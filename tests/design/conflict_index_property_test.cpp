// Property test for Design's conflict membership index (300 seeds):
// random sequences of structure adds, conflict adds (duplicates and
// reversed pairs included), set_all_conflicting() and
// derive_conflicts_from_lifetimes() must keep conflicts(a, b) equal to a
// brute-force scan of conflict_pairs(), keep every pair ordered a < b
// with no duplicates, and keep add_conflict's insertion order.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <utility>
#include <vector>

#include "design/design.hpp"
#include "support/rng.hpp"

namespace gmm::design {
namespace {

constexpr int kSeeds = 300;

using Pair = std::pair<std::size_t, std::size_t>;

DataStructure random_structure(support::Rng& rng, std::size_t index) {
  DataStructure s;
  s.name = "s" + std::to_string(index);
  s.depth = rng.uniform_int(1, 64);
  s.width = rng.uniform_int(1, 32);
  if (rng.bernoulli(0.8)) {
    const std::int64_t start = rng.uniform_int(0, 40);
    s.lifetime = Lifetime{start, start + rng.uniform_int(1, 20)};
  }
  return s;
}

bool brute_force_conflicts(const Design& design, std::size_t a,
                           std::size_t b) {
  for (const auto& [x, y] : design.conflict_pairs()) {
    if ((x == a && y == b) || (x == b && y == a)) return true;
  }
  return false;
}

void expect_index_matches_pairs(const Design& design,
                                const std::vector<Pair>& expected_order,
                                std::uint64_t seed) {
  const std::vector<Pair>& pairs = design.conflict_pairs();
  ASSERT_EQ(pairs, expected_order) << "seed " << seed;
  ASSERT_EQ(design.num_conflicts(), pairs.size()) << "seed " << seed;
  const std::set<Pair> unique(pairs.begin(), pairs.end());
  ASSERT_EQ(unique.size(), pairs.size()) << "duplicate pair, seed " << seed;
  for (const auto& [a, b] : pairs) {
    ASSERT_LT(a, b) << "seed " << seed;
    ASSERT_LT(b, design.size()) << "seed " << seed;
  }
  for (std::size_t a = 0; a < design.size(); ++a) {
    for (std::size_t b = 0; b < design.size(); ++b) {
      ASSERT_EQ(design.conflicts(a, b), brute_force_conflicts(design, a, b))
          << "seed " << seed << " pair (" << a << "," << b << ")";
    }
  }
}

TEST(ConflictIndexProperty, MembershipMatchesBruteForceScan) {
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    support::Rng rng(seed);
    Design design;
    // The reference model: pairs in the order the design must hold them.
    std::vector<Pair> expected;
    const auto add_structure = [&] {
      design.add(random_structure(rng, design.size()));
    };
    const int initial = static_cast<int>(rng.uniform_int(0, 6));
    for (int i = 0; i < initial; ++i) add_structure();

    const int ops = static_cast<int>(rng.uniform_int(10, 60));
    for (int op = 0; op < ops; ++op) {
      const double roll = rng.uniform_real();
      if (design.size() < 2 || roll < 0.15) {
        // New structures after conflicts exist: the index must grow.
        add_structure();
      } else if (roll < 0.80) {
        std::size_t a = rng.index(design.size());
        std::size_t b = rng.index(design.size() - 1);
        if (b >= a) ++b;  // a != b
        if (rng.bernoulli(0.2) && !expected.empty()) {
          // Re-add a known pair, reversed half the time.
          const Pair known = rng.pick(expected);
          a = known.first;
          b = known.second;
          if (rng.bernoulli(0.5)) std::swap(a, b);
        }
        design.add_conflict(a, b);
        const Pair ordered{std::min(a, b), std::max(a, b)};
        if (std::find(expected.begin(), expected.end(), ordered) ==
            expected.end()) {
          expected.push_back(ordered);
        }
      } else if (roll < 0.88) {
        design.set_all_conflicting();
        expected.clear();
        for (std::size_t a = 0; a < design.size(); ++a) {
          for (std::size_t b = a + 1; b < design.size(); ++b) {
            expected.emplace_back(a, b);
          }
        }
      } else {
        design.derive_conflicts_from_lifetimes();
        expected.clear();
        for (std::size_t a = 0; a < design.size(); ++a) {
          for (std::size_t b = a + 1; b < design.size(); ++b) {
            const auto& la = design.at(a).lifetime;
            const auto& lb = design.at(b).lifetime;
            if (!la || !lb || la->overlaps(*lb)) expected.emplace_back(a, b);
          }
        }
      }
      if (op % 8 == 0) expect_index_matches_pairs(design, expected, seed);
    }
    expect_index_matches_pairs(design, expected, seed);

    // A copy answers from its own index.
    const Design copy = design;
    expect_index_matches_pairs(copy, expected, seed);
  }
}

}  // namespace
}  // namespace gmm::design
