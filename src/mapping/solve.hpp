// One solve path: the only place that chooses between the formulations.
//
// The paper's global/detailed pipeline and its complete formulation
// optimize the same CostTable expression, so a proof under either
// certifies the other (Table 3's parity); the sharded mapper scales the
// pipeline out over a multi-device board, and a portfolio races these as
// lanes.  The global branch always runs mapping::remap, which without a
// prior is exactly map_pipeline, so cold and near-miss solves share it.
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
  kPortfolio,  ///< race several lanes, first prover wins (portfolio.hpp)
};

/// "global", "complete", "sharded" or "portfolio": the wire names.
[[nodiscard]] const char* to_string(Formulation formulation);
/// Inverse of to_string; nullopt for any other name.
[[nodiscard]] std::optional<Formulation> parse_formulation(
    std::string_view name);

/// Portfolio lanes when a spec leaves them unset, and the most accepted.
inline constexpr int kDefaultPortfolioLanes = 3;
inline constexpr int kMaxPortfolioLanes = 6;

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
  /// Portfolio only: lanes to race; < 1 = kDefaultPortfolioLanes.
  int lanes = 0;
  /// Thread budget: sharded and portfolio fan-out workers times per-solve
  /// B&B threads stay within it.  0 = the hardware concurrency.
  int max_threads = 0;
};

/// One portfolio lane's race report.
struct LaneReport {
  std::string name;
  Formulation kind = Formulation::kGlobal;
  lp::SolveStatus status = lp::SolveStatus::kCancelled;
  /// Why the lane's search ended (kOptimal = ran to natural completion;
  /// kCancelled = lost the race or parent cancel; kTimeLimit = budget).
  lp::SolveStatus stop_reason = lp::SolveStatus::kCancelled;
  double objective = 0.0;  // incumbent objective when usable
  bool ran = false;        // false: cancelled before the lane started
  bool usable = false;     // SolveOutcome::has_mapping
  bool proved = false;     // optimal (or infeasible) within the gap contract
  bool cancelled = false;  // stopped by the winner or the parent token
  double seconds = 0.0;    // lane wall clock inside the portfolio
  SolveEffort effort;      // the lane's SolveOutcome::total_effort
};

struct SolveOutcome {
  /// The spec's formulation, or for a portfolio the chosen lane's.
  Formulation formulation = Formulation::kGlobal;
  lp::SolveStatus status = lp::SolveStatus::kInfeasible;
  GlobalAssignment assignment;
  DetailedMapping detailed;
  ModelSize model_size;
  SolveEffort effort;        // behind the mapping (complete: + CostTable)
  SolveEffort total_effort;  // every solve run, losing lanes included
  int retries = 0;     // pipeline retries behind the mapping
  ilp::MipResult mip;  // the final MIP; default for a sharded mapping

  /// Sharded mappings: device per structure and the partition counters;
  /// shard.stitch_cost (0 on one device) is inside assignment.objective.
  std::vector<int> device_of;
  ShardStats shard;

  /// Portfolio races only: the first lane to prove (-1 = none: the best
  /// usable incumbent or the most informative failure is returned), the
  /// lane reports, the race wall clock and the time to the first proof.
  int winner = -1;
  std::string winner_name;
  std::vector<LaneReport> lanes;
  int lanes_cancelled = 0;
  double seconds = 0.0;
  double first_prove_seconds = 0.0;

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
