// One solve path: the only place that chooses between the formulations.
//
// The paper's global/detailed pipeline and its complete formulation
// optimize the same CostTable expression, so a proof under either
// certifies the other (Table 3's parity); the sharded mapper scales the
// pipeline out over a multi-device board.  The global branch always runs
// mapping::remap, which without a prior is exactly map_pipeline, so cold
// and near-miss solves share it.
//
// Every outcome carrying a mapping, partial incumbents included, is
// certified (certify_mapping) before solve() returns it.  One that fails
// keeps no mapping: its status becomes kNumericalFailure and
// `certify_failure` says why, so no caller can serve or cache it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "arch/board.hpp"
#include "design/design.hpp"
#include "mapping/pipeline.hpp"
#include "mapping/shard_mapper.hpp"

namespace gmm::mapping {

enum class Formulation : std::uint8_t {
  kGlobal,     ///< the paper's global/detailed pipeline (remap.hpp)
  kComplete,   ///< the flat one-ILP baseline (complete_mapper.hpp)
  kSharded,    ///< partition / per-device fan-out / stitch (shard_mapper.hpp)
};

/// "global", "complete" or "sharded": the wire names.
[[nodiscard]] const char* to_string(Formulation formulation);
/// Inverse of to_string; nullopt for any other name.
[[nodiscard]] std::optional<Formulation> parse_formulation(
    std::string_view name);

struct SolveSpec {
  Formulation formulation = Formulation::kGlobal;
  /// Search options for every formulation (complete takes global.mip and
  /// global.weights).  global.mip.cancel_token stops the whole solve.
  PipelineOptions pipeline;
  /// Global only: a near-miss prior, i.e. the bank type per structure of
  /// an earlier mapping (empty = cold solve), the structures frozen onto
  /// it, and the penalty for leaving it (see remap.hpp).
  std::vector<int> prior_type_of;
  std::vector<std::size_t> pinned_structures;
  double migration_penalty = 0.0;
  /// Thread budget: sharded fan-out workers times per-solve B&B threads
  /// stay within it.  0 = the hardware concurrency.
  int max_threads = 0;
};

struct SolveOutcome {
  lp::SolveStatus status = lp::SolveStatus::kInfeasible;
  GlobalAssignment assignment;
  DetailedMapping detailed;
  ModelSize model_size;
  SolveEffort effort;        // behind the mapping (complete: + CostTable)
  SolveEffort total_effort;  // every solve run, discarded ones included
  int retries = 0;     // pipeline retries behind the mapping
  ilp::MipResult mip;  // the final MIP; default for a sharded mapping

  /// Sharded mappings: device per structure and the partition counters;
  /// shard.stitch_cost (0 on one device) is inside assignment.objective.
  std::vector<int> device_of;
  ShardStats shard;

  std::string certify_failure;  // "" = certified, or no mapping

  /// A complete assignment with a successful placement: an answer.
  [[nodiscard]] bool has_mapping() const {
    return detailed.success && assignment.complete();
  }
};

/// Solve `design` on `board` under `spec` and certify the answer.
[[nodiscard]] SolveOutcome solve(const design::Design& design,
                                 const arch::Board& board,
                                 const SolveSpec& spec);

}  // namespace gmm::mapping
