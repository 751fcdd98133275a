// Incremental re-solve: map a design that differs only slightly from one
// already mapped, reusing the prior mapping instead of re-proving the ILP
// from scratch.
//
// Two mechanisms, both optional and composable:
//
//   * pins — structures whose parameters did not change are frozen onto
//     their prior type; the ILP re-optimizes only the delta.  Pins DO
//     constrain the search (that is the point), so the caller decides
//     which structures are safe to freeze.  Port/capacity feasibility of
//     a placement depends only on depth x width (the placement plans),
//     not on traffic, so pinning the traffic-unchanged structures of a
//     traffic-only mutation preserves feasibility of the prior mapping.
//     Pins are part of the formulation: formulate_global gives a pinned
//     structure its prior type's column alone, so its uniqueness row is
//     the singleton Z_dt* = 1, which presolve folds into a fixed column,
//     and capacity rows the pins fill exactly leave as forcing rows or,
//     when slack, as redundant.  The LP the search sees holds the free
//     structures alone (Table-3 point 9 with two free structures: 4
//     columns x 2 rows), and a delta presolve decides outright never
//     reaches the search.
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
  /// The incremental solve failed and the cold fallback ran.
  bool fell_back_cold = false;
};

/// Re-map `design` given `prior_type_of` (bank-type index per structure,
/// -1 = unknown) from a previous mapping of the same or a similar design.
RemapResult remap(const design::Design& design, const arch::Board& board,
                  const std::vector<int>& prior_type_of,
                  const RemapOptions& options = {});

}  // namespace gmm::mapping
