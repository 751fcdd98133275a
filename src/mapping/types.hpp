// Shared result types of the mapping pipeline.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "lp/basis.hpp"
#include "lp/types.hpp"
#include "mapping/preprocess.hpp"

namespace gmm::mapping {

/// Global mapping result: one bank type per data structure.
struct GlobalAssignment {
  std::vector<int> type_of;  // bank-type index per structure, -1 = none
  double objective = 0.0;

  [[nodiscard]] bool complete() const {
    for (const int t : type_of) {
      if (t < 0) return false;
    }
    return !type_of.empty();
  }
};

/// One placed fragment of a data structure on a concrete bank instance.
struct PlacedFragment {
  std::size_t ds = 0;          // data-structure index
  std::size_t type = 0;        // bank-type index
  std::int64_t instance = 0;   // instance within the type
  int config_index = -1;       // port configuration used
  FragmentKind kind = FragmentKind::kFull;
  std::int64_t ports = 0;          // EP ports consumed
  std::int64_t first_port = 0;     // ports [first_port, first_port+ports)
  std::int64_t offset_bits = 0;    // block base inside the instance
  std::int64_t block_bits = 0;     // reserved (pow-2) block size
  std::int64_t words_covered = 0;  // actual data words of the structure
  std::int64_t bits_covered = 0;   // actual data width of the structure
};

/// Detailed mapping result: concrete placements for every fragment.
struct DetailedMapping {
  bool success = false;
  std::string failure;   // reason when !success
  int failed_type = -1;  // bank type whose packing failed, when !success
  std::vector<PlacedFragment> fragments;

  /// Number of distinct instances used on type t.
  [[nodiscard]] std::int64_t instances_used(std::size_t t) const;
  /// Total fragments of structure d (fragmentation measure).
  [[nodiscard]] std::int64_t fragment_count(std::size_t d) const;
};

/// Size of an ILP formulation, for the Table-3 complexity reporting.
struct ModelSize {
  std::int64_t variables = 0;
  std::int64_t binaries = 0;
  std::int64_t rows = 0;
  std::int64_t nonzeros = 0;
};

/// Timing/effort breakdown shared by the mapper entry points.
struct SolveEffort {
  double preprocess_seconds = 0.0;
  double formulate_seconds = 0.0;
  double solve_seconds = 0.0;
  double detailed_seconds = 0.0;
  std::int64_t bnb_nodes = 0;
  std::int64_t lp_iterations = 0;
  /// LP basis refactorizations across the root cut loop and every
  /// branch-and-bound worker (O(m^3) each), surfaced end-to-end for the
  /// serving stats.
  std::int64_t lp_refactorizations = 0;
  /// Branch & bound basis warm-start cache counters, cumulative over the
  /// solves behind this result (the pipeline's retry loop sums them).
  lp::BasisCacheStats basis;

  [[nodiscard]] double total_seconds() const {
    return preprocess_seconds + formulate_seconds + solve_seconds +
           detailed_seconds;
  }

  SolveEffort& operator+=(const SolveEffort& other) {
    preprocess_seconds += other.preprocess_seconds;
    formulate_seconds += other.formulate_seconds;
    solve_seconds += other.solve_seconds;
    detailed_seconds += other.detailed_seconds;
    bnb_nodes += other.bnb_nodes;
    lp_iterations += other.lp_iterations;
    lp_refactorizations += other.lp_refactorizations;
    basis += other.basis;
    return *this;
  }
};

}  // namespace gmm::mapping
