// Multi-device sharded mapping: partition -> per-device ILP fan-out ->
// top-level stitch ILP.
//
// Boards with several FPGAs (arch::Board devices) cannot be fed to the
// single-device pipeline directly: bank sharing never crosses a device,
// and inter-device transfers pay board-level pin cost the flat model
// does not see.  map_sharded scales the paper's formulation out instead
// of up:
//
//   1. PARTITION the design's conflict graph into one part per usable
//      device with a balanced min-cut heuristic (design/partition.hpp) —
//      cut conflict edges are simultaneous cross-device traffic, which
//      is exactly what the stitch objective charges for;
//   2. FAN OUT the per-device global/detailed pipelines: every
//      (part, device) candidate whose bits fit is solved concurrently
//      over a support::ThreadPool via the map_batch machinery, each
//      candidate an independent, deterministic map_pipeline run on the
//      device's single-device board view;
//   3. STITCH with a small assignment ILP over the candidates: binary
//      Y_pk ("part p lands on device k"), cost = the candidate's solved
//      objective + (part p's incident cut traffic) *
//      (device k's inter_device_pins), one-device-per-part equality rows
//      and at-most-one-part-per-device rows, solved exactly (gap 0) by
//      the in-tree MipSolver;
//   4. REPAIR: a part that is infeasible on every device migrates its
//      largest structure to the part with the most slack and the loop
//      re-solves, up to 8 rounds, after which the result is reported
//      infeasible.
//
// Determinism: the partition is deterministic, each candidate pipeline
// is deterministic regardless of pool interleaving (per-solve solver
// threads default to 1), and the stitch ILP is solved serially at gap 0
// — so for a fixed board the sharded objective is EXACTLY equal across
// worker counts.  Single-device boards (including boards with no
// explicit devices) bypass all of the above and return the plain
// map_pipeline result unchanged.
#pragma once

#include <cstdint>
#include <vector>

#include "arch/board.hpp"
#include "design/design.hpp"
#include "design/partition.hpp"
#include "mapping/pipeline.hpp"
#include "support/thread_pool.hpp"

namespace gmm::mapping {

struct ShardOptions {
  /// Options for every per-device global/detailed pipeline run.  The
  /// embedded cancel token is honored between fan-out rounds.
  PipelineOptions pipeline;
  /// Partitioner knobs; `parts` and `capacities` are overwritten with the
  /// usable-device count and per-device bit capacities.
  design::PartitionOptions partition;
  /// Workers for the candidate fan-out (0 = hardware concurrency;
  /// mapping::solve sizes it to the per-solve thread budget).
  std::size_t num_workers = 0;
};

struct ShardStats {
  int devices = 0;           // devices on the board
  int shards = 0;            // non-empty parts actually mapped
  int skipped_devices = 0;   // devices with zero banks (never solved)
  int repair_rounds = 0;     // migration rounds the repair loop ran
  std::int64_t migrations = 0;        // structures moved between parts
  std::int64_t candidate_solves = 0;  // per-device pipelines executed
  /// Candidate solves whose B&B was seeded with the previous round's
  /// assignment for the same (part, device) pair (MIP start accepted).
  std::int64_t warm_started = 0;
  std::int64_t cut_edges = 0;    // conflict edges crossing devices
  double stitch_cost = 0.0;      // weighted inter-device transfer term
  double stitch_seconds = 0.0;   // top-level assignment ILP wall clock
  ModelSize stitch_model;        // size of the assignment ILP
};

struct ShardResult {
  lp::SolveStatus status = lp::SolveStatus::kInfeasible;
  /// Bank-type assignment in the board's FLAT type index space, so
  /// validate_mapping and the reports work on it unchanged.
  GlobalAssignment assignment;
  /// Concrete placements, remapped to flat type indices.
  DetailedMapping detailed;
  /// Device index per structure (-1 when unmapped).
  std::vector<int> device_of;
  /// Sum of the chosen per-device objectives plus the stitch transfer
  /// term (equals assignment.objective).
  double objective = 0.0;
  /// Effort behind the RETURNED mapping: the chosen candidates' solves
  /// plus the stitch ILP — comparable to a PipelineResult's effort.
  SolveEffort effort;
  /// Total work executed, including candidates the stitch discarded and
  /// repair-round re-solves — what capacity accounting should charge.
  SolveEffort total_effort;
  /// Summed over the CHOSEN per-device models only.
  ModelSize model_size;
  /// Summed pipeline retries of the chosen candidates.
  int retries = 0;
  ShardStats stats;
};

/// Shard `design` over `board`'s devices; the candidate fan-out runs on a
/// pool of `options.num_workers` created for the call.
ShardResult map_sharded(const design::Design& design,
                        const arch::Board& board,
                        const ShardOptions& options = {});

}  // namespace gmm::mapping
