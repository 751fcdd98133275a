#include "design/conflict_analysis.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>
#include <vector>

namespace gmm::design {
namespace {

Design make_design(std::size_t n) {
  Design design;
  for (std::size_t i = 0; i < n; ++i) {
    DataStructure s;
    s.name = "s" + std::to_string(i);
    s.depth = 8;
    s.width = 8;
    design.add(s);
  }
  return design;
}

std::set<std::set<std::size_t>> as_sets(
    const std::vector<std::vector<std::size_t>>& cliques) {
  std::set<std::set<std::size_t>> out;
  for (const auto& c : cliques) out.insert(std::set<std::size_t>(c.begin(), c.end()));
  return out;
}

TEST(ConflictCliques, EmptyGraphGivesSingletons) {
  const Design design = make_design(4);
  const CliqueAnalysis a = conflict_cliques(design);
  EXPECT_FALSE(a.capped);
  EXPECT_EQ(as_sets(a.cliques),
            (std::set<std::set<std::size_t>>{{0}, {1}, {2}, {3}}));
}

TEST(ConflictCliques, CompleteGraphGivesOneClique) {
  // The exact vector, not a set: the order feeds cover-cut separation,
  // and the global model's rows follow it.
  for (const std::size_t n : {1u, 2u, 5u, 22u, 132u}) {
    Design design = make_design(n);
    design.set_all_conflicting();
    const CliqueAnalysis a = conflict_cliques(design);
    EXPECT_FALSE(a.capped) << n;
    std::vector<std::size_t> all(n);
    std::iota(all.begin(), all.end(), std::size_t{0});
    EXPECT_EQ(a.cliques, (std::vector<std::vector<std::size_t>>{all})) << n;
  }
}

TEST(ConflictCliques, TrianglePlusPendant) {
  Design design = make_design(4);
  design.add_conflict(0, 1);
  design.add_conflict(1, 2);
  design.add_conflict(0, 2);
  design.add_conflict(2, 3);
  const CliqueAnalysis a = conflict_cliques(design);
  EXPECT_EQ(as_sets(a.cliques),
            (std::set<std::set<std::size_t>>{{0, 1, 2}, {2, 3}}));
}

TEST(ConflictCliques, IntervalGraphFromLifetimes) {
  Design design;
  const auto add = [&design](std::int64_t s, std::int64_t e) {
    DataStructure ds;
    ds.name = "x" + std::to_string(design.size());
    ds.depth = 4;
    ds.width = 4;
    ds.lifetime = Lifetime{s, e};
    design.add(ds);
  };
  add(0, 10);   // 0
  add(5, 15);   // 1
  add(12, 20);  // 2
  add(30, 40);  // 3
  design.derive_conflicts_from_lifetimes();
  const CliqueAnalysis a = conflict_cliques(design);
  EXPECT_EQ(as_sets(a.cliques),
            (std::set<std::set<std::size_t>>{{0, 1}, {1, 2}, {3}}));
}

TEST(ConflictCliques, CapFallsBackToConservative) {
  // A graph with many maximal cliques: complete multipartite K(2,2,2,...)
  // has 2^k maximal cliques.  Cap at 4 forces the fallback.
  Design design = make_design(12);
  for (std::size_t a = 0; a < 12; ++a) {
    for (std::size_t b = a + 1; b < 12; ++b) {
      if (a / 2 != b / 2) design.add_conflict(a, b);  // across pairs only
    }
  }
  const CliqueAnalysis a = conflict_cliques(design, 4);
  EXPECT_TRUE(a.capped);
  ASSERT_EQ(a.cliques.size(), 1u);
  EXPECT_EQ(a.cliques[0].size(), 12u);
}

TEST(ConflictCliques, EveryCliqueIsActuallyAClique) {
  Design design = make_design(9);
  // Deterministic pseudo-random edges.
  for (std::size_t a = 0; a < 9; ++a) {
    for (std::size_t b = a + 1; b < 9; ++b) {
      if ((a * 7 + b * 13) % 3 == 0) design.add_conflict(a, b);
    }
  }
  const CliqueAnalysis analysis = conflict_cliques(design);
  EXPECT_FALSE(analysis.capped);
  for (const auto& clique : analysis.cliques) {
    for (std::size_t i = 0; i < clique.size(); ++i) {
      for (std::size_t j = i + 1; j < clique.size(); ++j) {
        EXPECT_TRUE(design.conflicts(clique[i], clique[j]));
      }
    }
  }
  // Every vertex appears in at least one clique.
  std::set<std::size_t> seen;
  for (const auto& clique : analysis.cliques) {
    seen.insert(clique.begin(), clique.end());
  }
  EXPECT_EQ(seen.size(), 9u);
  // Maximality: no clique is a subset of another.
  const auto sets = as_sets(analysis.cliques);
  for (const auto& a : sets) {
    for (const auto& b : sets) {
      if (a == b) continue;
      EXPECT_FALSE(std::includes(b.begin(), b.end(), a.begin(), a.end()))
          << "clique contained in another";
    }
  }
}

}  // namespace
}  // namespace gmm::design
