// Incremental re-solve: map a design that differs only slightly from one
// already mapped, reusing the prior mapping instead of re-proving the ILP
// from scratch.
//
// Three mechanisms, all optional and composable:
//
//   * MIP start — the prior assignment seeds the B&B incumbent, so
//     best-first pruning bites from node one.  Never changes the proved
//     objective (starts only seed, never constrain).
//   * pins — structures whose parameters did not change are frozen onto
//     their prior type; the ILP re-optimizes only the delta.  Pins DO
//     constrain the search (that is the point), so the caller decides
//     which structures are safe to freeze.  Port/capacity feasibility of
//     a placement depends only on depth x width (the placement plans),
//     not on traffic, so pinning the traffic-unchanged structures of a
//     traffic-only mutation preserves feasibility of the prior mapping.
//     Pins collapse in presolve: a pinned Z_dt* = 1 leaves its uniqueness
//     row a forcing row sum_{t != t*} Z_dt = 0, so the structure's other
//     columns are fixed at 0 and the row goes, and capacity rows the pins
//     leave slack go as redundant.  The LP the search sees holds the free
//     structures alone (Table-3 point 9 with two free structures: 285
//     columns x 131 rows before forcing rows, 4 x 2 after), and a delta
//     presolve decides outright never reaches the search.
//   * migration penalty — moving a structure off its prior type costs
//     extra in the model, steering the delta toward minimal-disturbance
//     remaps (arXiv:2003.10472's "local reconfiguration" regime).  The
//     reported assignment objective stays the PURE mapping cost.
//
// When the pinned solve comes back infeasible (a delta the pins cannot
// absorb), remap falls back to a full cold solve, so the entry point is
// never worse than map_pipeline — only faster.
#pragma once

#include <cstdint>
#include <vector>

#include "mapping/pipeline.hpp"

namespace gmm::mapping {

struct RemapOptions {
  PipelineOptions pipeline;
  /// Structures (design indices) frozen onto their prior type.  Entries
  /// out of range or without a usable prior assignment are ignored.
  std::vector<std::size_t> pinned_structures;
  /// Extra model cost for moving a structure off its prior type (0 = off).
  double migration_penalty = 0.0;
};

struct RemapResult {
  PipelineResult result;
  /// The prior assignment validated feasible and seeded the incumbent.
  bool warm_used = false;
  /// The incremental solve failed and the cold fallback ran.
  bool fell_back_cold = false;
};

/// Re-map `design` given `prior_type_of` (bank-type index per structure,
/// -1 = unknown) from a previous mapping of the same or a similar design.
RemapResult remap(const design::Design& design, const arch::Board& board,
                  const std::vector<int>& prior_type_of,
                  const RemapOptions& options = {});

}  // namespace gmm::mapping
