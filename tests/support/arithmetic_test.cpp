#include "support/arithmetic.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

namespace gmm::support {
namespace {

TEST(Arithmetic, CeilDiv) {
  EXPECT_EQ(ceil_div(0, 1), 0);
  EXPECT_EQ(ceil_div(1, 1), 1);
  EXPECT_EQ(ceil_div(7, 2), 4);
  EXPECT_EQ(ceil_div(8, 2), 4);
  EXPECT_EQ(ceil_div(9, 2), 5);
  EXPECT_EQ(ceil_div(55, 16), 4);
  EXPECT_EQ(ceil_div(1, 4096), 1);
}

TEST(Arithmetic, IsPow2) {
  EXPECT_FALSE(is_pow2(0));
  EXPECT_TRUE(is_pow2(1));
  EXPECT_TRUE(is_pow2(2));
  EXPECT_FALSE(is_pow2(3));
  EXPECT_TRUE(is_pow2(4096));
  EXPECT_FALSE(is_pow2(4097));
  EXPECT_FALSE(is_pow2(-4));
}

TEST(Arithmetic, RoundUpPow2) {
  EXPECT_EQ(round_up_pow2(1), 1);
  EXPECT_EQ(round_up_pow2(2), 2);
  EXPECT_EQ(round_up_pow2(3), 4);
  EXPECT_EQ(round_up_pow2(5), 8);
  // The Figure-3 example: a 7-word remainder occupies an 8-word block.
  EXPECT_EQ(round_up_pow2(7), 8);
  EXPECT_EQ(round_up_pow2(4096), 4096);
  EXPECT_EQ(round_up_pow2(4097), 8192);
}

TEST(Arithmetic, RoundDownPow2) {
  EXPECT_EQ(round_down_pow2(1), 1);
  EXPECT_EQ(round_down_pow2(3), 2);
  EXPECT_EQ(round_down_pow2(8), 8);
  EXPECT_EQ(round_down_pow2(9), 8);
}

TEST(Arithmetic, Ilog2) {
  EXPECT_EQ(ilog2_floor(1), 0);
  EXPECT_EQ(ilog2_floor(2), 1);
  EXPECT_EQ(ilog2_floor(3), 1);
  EXPECT_EQ(ilog2_floor(4), 2);
  EXPECT_EQ(ilog2_ceil(1), 0);
  EXPECT_EQ(ilog2_ceil(3), 2);
  EXPECT_EQ(ilog2_ceil(4), 2);
  // Address width of a 56-word consumed depth (CD in the Figure-2
  // example) is ceil(log2(56)) = 6 bits.
  EXPECT_EQ(ilog2_ceil(56), 6);
}

TEST(Arithmetic, Pow2RoundTripProperty) {
  for (std::int64_t v = 1; v < 10'000; ++v) {
    const std::int64_t up = round_up_pow2(v);
    const std::int64_t down = round_down_pow2(v);
    EXPECT_TRUE(is_pow2(up));
    EXPECT_TRUE(is_pow2(down));
    EXPECT_GE(up, v);
    EXPECT_LE(down, v);
    EXPECT_LT(up, 2 * v);
    EXPECT_GT(2 * down, v);
    if (is_pow2(v)) {
      EXPECT_EQ(up, v);
      EXPECT_EQ(down, v);
    }
  }
}

TEST(Arithmetic, CheckedMul) {
  EXPECT_EQ(checked_mul(0, 5), 0);
  EXPECT_EQ(checked_mul(4096, 208), 851968);  // largest Virtex on-chip bits
  EXPECT_EQ(checked_mul(1'000'000, 1'000'000), 1'000'000'000'000);
}

TEST(Arithmetic, SaturatingAdd) {
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  EXPECT_EQ(saturating_add(0, 0), 0);
  EXPECT_EQ(saturating_add(20, 22), 42);
  EXPECT_EQ(saturating_add(kMax - 1, 1), kMax);
  EXPECT_EQ(saturating_add(kMax - 1, 2), kMax);
  EXPECT_EQ(saturating_add(9'000'000'000'000'000'000,
                           9'000'000'000'000'000'000),
            kMax);
  EXPECT_EQ(saturating_add(kMax, kMax), kMax);
}

}  // namespace
}  // namespace gmm::support
