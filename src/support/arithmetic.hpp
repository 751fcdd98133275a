// Exact integer arithmetic helpers for the capacity/port math.
//
// The paper's pre-processing (Section 4.1.1) rounds fragment depths to
// powers of two and divides bank space into port fractions; everything here
// is 64-bit, overflow-checked where a product can plausibly overflow, and
// constexpr so the device catalog can be table-driven.
#pragma once

#include <cstdint>
#include <limits>

#include "support/assert.hpp"

namespace gmm::support {

/// Ceiling division for non-negative integers: ceil(a / b), b > 0.
constexpr std::int64_t ceil_div(std::int64_t a, std::int64_t b) {
  GMM_DEBUG_ASSERT(a >= 0 && b > 0, "ceil_div requires a >= 0, b > 0");
  return (a + b - 1) / b;
}

/// True iff v is a power of two (1, 2, 4, ...). Zero is not a power of two.
constexpr bool is_pow2(std::int64_t v) { return v > 0 && (v & (v - 1)) == 0; }

/// Smallest power of two >= v (v >= 1).  This is the paper's
/// `round(D, pow(2))` used by consumed_ports() (Figure 3): a fragment of
/// depth D occupies the next power-of-two block so that no base-address
/// adder logic is needed.
constexpr std::int64_t round_up_pow2(std::int64_t v) {
  GMM_DEBUG_ASSERT(v >= 1, "round_up_pow2 requires v >= 1");
  std::int64_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

/// Largest power of two <= v (v >= 1).
constexpr std::int64_t round_down_pow2(std::int64_t v) {
  GMM_DEBUG_ASSERT(v >= 1, "round_down_pow2 requires v >= 1");
  std::int64_t p = 1;
  while ((p << 1) <= v) p <<= 1;
  return p;
}

/// floor(log2(v)) for v >= 1.
constexpr int ilog2_floor(std::int64_t v) {
  GMM_DEBUG_ASSERT(v >= 1, "ilog2_floor requires v >= 1");
  int k = 0;
  while (v > 1) {
    v >>= 1;
    ++k;
  }
  return k;
}

/// ceil(log2(v)) for v >= 1.  Number of address bits needed for v words.
constexpr int ilog2_ceil(std::int64_t v) {
  GMM_DEBUG_ASSERT(v >= 1, "ilog2_ceil requires v >= 1");
  return is_pow2(v) ? ilog2_floor(v) : ilog2_floor(v) + 1;
}

/// Overflow-checked multiply of non-negative 64-bit values.  Capacity
/// products (depth * width * instances) stay far below 2^63 for any real
/// board, so an overflow indicates corrupted input and aborts.
constexpr std::int64_t checked_mul(std::int64_t a, std::int64_t b) {
  GMM_DEBUG_ASSERT(a >= 0 && b >= 0, "checked_mul requires non-negative");
  if (a != 0 && b > std::numeric_limits<std::int64_t>::max() / a) {
    GMM_ASSERT(false, "integer overflow in checked_mul");
  }
  return a * b;
}

/// Sum of non-negative 64-bit values that saturates at INT64_MAX instead
/// of overflowing.  For weights that only rank or scale, such as access
/// counts, which the parsers bound individually but not in sums.
constexpr std::int64_t saturating_add(std::int64_t a, std::int64_t b) {
  GMM_DEBUG_ASSERT(a >= 0 && b >= 0, "saturating_add requires non-negative");
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  return a > kMax - b ? kMax : a + b;
}

}  // namespace gmm::support
