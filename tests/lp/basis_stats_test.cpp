// Regression tests for the BasisCacheStats derived-rate accessors.
//
// A fresh B&B solve that never pops a node (root-only proof, immediate
// infeasibility, cancellation before the first pop) reports zero pops.
// hit_rate() and pivots_per_pop() must return a finite 0.0 in that case,
// never 0/0 = NaN: the values flow verbatim into the serving stats JSON
// payload, and a NaN there would corrupt the line for every client.
#include "lp/basis.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace gmm::lp {
namespace {

TEST(BasisStats, ZeroPopRatesAreFiniteZero) {
  const BasisCacheStats stats;
  EXPECT_EQ(stats.loaded + stats.cold_pops, 0);
  EXPECT_EQ(stats.hit_rate(), 0.0);
  EXPECT_EQ(stats.pivots_per_pop(), 0.0);
  EXPECT_TRUE(std::isfinite(stats.hit_rate()));
  EXPECT_TRUE(std::isfinite(stats.pivots_per_pop()));
}

TEST(BasisStats, StoredWithoutPopsStillZero) {
  // Snapshots can be stored (and evicted) before any pop happens; the
  // denominators are pops, not stores, so the rates must stay 0.0.
  BasisCacheStats stats;
  stats.stored = 12;
  stats.evicted = 3;
  stats.warm_pop_pivots = 0;
  EXPECT_EQ(stats.hit_rate(), 0.0);
  EXPECT_EQ(stats.pivots_per_pop(), 0.0);
}

TEST(BasisStats, RatesMatchHandComputation) {
  BasisCacheStats stats;
  stats.loaded = 3;
  stats.cold_pops = 1;
  stats.warm_pop_pivots = 6;
  stats.cold_pop_pivots = 10;
  EXPECT_DOUBLE_EQ(stats.hit_rate(), 0.75);
  EXPECT_DOUBLE_EQ(stats.pivots_per_pop(), 4.0);
}

TEST(BasisStats, AccumulateThenRate) {
  // operator+= folds per-solve counters (pipeline retries, shard
  // candidates); rates computed on the sum must equal rates on pooled data.
  BasisCacheStats a;
  a.loaded = 2;
  a.cold_pops = 2;
  a.warm_pop_pivots = 4;
  a.cold_pop_pivots = 12;
  BasisCacheStats b;  // zero-pop solve folded in must not perturb rates
  a += b;
  EXPECT_DOUBLE_EQ(a.hit_rate(), 0.5);
  EXPECT_DOUBLE_EQ(a.pivots_per_pop(), 4.0);
  b += a;
  EXPECT_DOUBLE_EQ(b.hit_rate(), 0.5);
}

}  // namespace
}  // namespace gmm::lp
