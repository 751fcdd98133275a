// Balanced min-cut partitioning of a design's conflict graph.
//
// The multi-device shard mapper needs the design split into one part per
// FPGA.  A conflict edge means two structures are live simultaneously —
// i.e. the design touches both in the same schedule phase — so splitting
// a conflict pair across devices implies simultaneous cross-device
// traffic.  We therefore minimize the (traffic-weighted) CUT of the
// conflict graph subject to a bit-capacity balance constraint per part:
// cut edges are exactly what the shard mapper's top-level stitch ILP
// later charges inter-device pin cost for.
//
// Algorithm (deterministic, no randomness): greedy growth — structures
// in decreasing bit-weight order, each placed on the allowed part with
// the best score of (normalized incident-edge affinity minus the most
// binding load share; ties: lightest part, then lowest index), so a
// clustered graph co-locates its clusters while a near-complete conflict
// graph, whose cut is partition-invariant, degrades to load balancing —
// followed by bounded Fiduccia–Mattheyses style refinement passes that
// relocate one structure at a time when the move strictly reduces the
// cut without violating the balance caps.
#pragma once

#include <cstdint>
#include <vector>

#include "design/design.hpp"

namespace gmm::design {

/// One additional balance dimension: a weight per structure and a hard
/// (but soft-failing, see PartitionOptions) capacity per part.
struct PartitionDimension {
  std::vector<std::int64_t> weights;     // one per structure
  std::vector<std::int64_t> capacities;  // one per part
};

struct PartitionOptions {
  /// Number of parts (devices).  1 returns the trivial partition.
  std::size_t parts = 1;
  /// Per-part weight capacity in bits; empty = uniform caps derived from
  /// `balance_tolerance`.  When given it must have `parts` entries and is
  /// treated as a hard cap per part (a structure that fits nowhere is
  /// placed on the part with the most slack — partitioning never fails;
  /// infeasibility surfaces later, in the per-device solves).
  std::vector<std::int64_t> capacities;
  /// With uniform caps, each part may hold at most
  /// (1 + balance_tolerance) * total_bits / parts.
  double balance_tolerance = 0.15;
  /// Optional extra balance dimensions beyond bits — the shard mapper
  /// passes off-chip port demand and on-chip bit demand here, with
  /// per-part caps = the per-device resource totals (bits-balance alone
  /// can pile every small structure onto one device until its scarce
  /// resources are hopelessly oversubscribed).  Each dimension carries
  /// one weight per structure and one capacity per part.  Soft like the
  /// primary caps: a structure that fits nowhere is still placed (most
  /// primary slack).
  std::vector<PartitionDimension> extra_dimensions;
};

struct PartitionResult {
  /// Part index per structure (always valid; partitioning never fails).
  std::vector<int> part_of;
  /// Total bits per part.
  std::vector<std::int64_t> part_bits;
  /// Conflict edges with endpoints in different parts, after refinement.
  std::int64_t cut_edges = 0;
  /// Sum of cut-edge traffic weights (see edge_traffic below), saturating
  /// at INT64_MAX.
  std::int64_t cut_traffic = 0;
};

/// Traffic weight of conflict edge (a, b): the smaller endpoint's
/// effective access count — the cheapest end bounds how much data the
/// simultaneous phase actually moves.  Shared by the partitioner's cut
/// objective and the shard mapper's stitch cost so both optimize the same
/// quantity.  Reads plus writes saturate at INT64_MAX, as do the sums of
/// these weights.
std::int64_t edge_traffic(const Design& design, std::size_t a,
                          std::size_t b);

PartitionResult partition_design(const Design& design,
                                 const PartitionOptions& options);

}  // namespace gmm::design
