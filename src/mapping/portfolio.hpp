// Portfolio racing solves: several solver configurations ("lanes") race
// on the same design/board, and the first lane to PROVE an answer wins.
//
// The paper's Table 3 shows solve times varying by orders of magnitude
// between the global/detailed pipeline and the complete formulation, and
// between cut/heuristic configurations of the same formulation — with no
// reliable way to predict the fast one up front.  A portfolio sidesteps
// the prediction problem: launch N lanes concurrently on a
// support::ThreadPool, give each its own child CancelToken, and let the
// first prover cancel the rest.  Wall clock approaches the fastest
// lane's time (plus one cancellation poll interval) instead of the
// configured lane's, which can be the slowest.
//
// Quality contract: lanes may vary SEARCH strategy (formulation, cut
// rounds, presolve, basis-cache size) but never the OPTIMALITY
// contract (rel_gap/abs_gap).  A proof is a proof under either
// formulation — the paper's optimality-preservation claim — so racing
// never returns a worse objective than any single lane at gap 0, and
// the winner's proof is cacheable exactly like a single solve's.
//
// Determinism: a 1-lane portfolio is bitwise-identical to solving the
// lane's formulation directly (the child token only adds cancellation
// polls, which never alter the search path).  With N lanes the WINNER identity
// depends on timing, but every prover proves the same optimum, so the
// returned objective is deterministic at gap 0 across worker counts.
#pragma once

#include <string>
#include <vector>

#include "arch/board.hpp"
#include "design/design.hpp"
#include "mapping/solve.hpp"
#include "support/cancellation.hpp"
#include "support/thread_pool.hpp"

namespace gmm::mapping {

/// One racing lane: a formulation plus its solver configuration.
struct PortfolioLane {
  /// Winner tag for stats/reports (e.g. "global", "complete",
  /// "global-nocuts").  Should be unique within a portfolio.
  std::string name;
  /// kGlobal, kComplete or kSharded; a lane never nests a portfolio.
  Formulation kind = Formulation::kGlobal;
  /// The lane's SolveSpec::pipeline.  The embedded cancel token is
  /// IGNORED — solve_portfolio installs the lane's child token (see
  /// PortfolioOptions::cancel_token).
  PipelineOptions pipeline;
};

struct PortfolioOptions {
  /// Lanes to race, in launch order.  Must be non-empty (an empty
  /// portfolio returns kInfeasible without running anything); see
  /// default_portfolio_lanes for the standard menu.
  std::vector<PortfolioLane> lanes;
  /// Parent token: cancelling it stops every lane (each lane's child
  /// token inherits the parent's remaining deadline at launch, and the
  /// supervisor propagates a parent cancel).  The winner cancels only
  /// the sibling children, never the parent.
  support::CancelTokenPtr cancel_token;
};

/// A race's outcome is the chosen lane's SolveOutcome with the race
/// fields (winner, lanes, ...) filled in and total_effort summed over
/// every lane.
using PortfolioResult = SolveOutcome;

/// The standard lane menu, ordered by expected time-to-proof, truncated
/// to `lanes` (clamped to [1, kMaxPortfolioLanes]).  Every lane shares
/// `base`'s gap contract — the menu varies search knobs only.  On
/// single-device boards: global, complete, global-nocuts, global-fewcuts,
/// global-nobases, global-morecuts (no sharded lane: on one device it
/// would run the global lane's search).  On multi-device boards all lanes
/// are sharded variants with identical partitions (so every lane
/// optimizes the same stitched objective) and varied per-device search
/// knobs: sharded, -nocuts, -nopresolve, -morecuts, -nobases, -fewcuts.
/// No two lanes of one formulation agree on every knob map_global passes
/// through, so no lane races a copy of another.
[[nodiscard]] std::vector<PortfolioLane> default_portfolio_lanes(
    const arch::Board& board, int lanes, const PipelineOptions& base = {});

/// Race the lanes on a caller-owned pool; each lane runs mapping::solve.
/// Blocks until every lane has finished or acknowledged cancellation, so
/// the reports are complete.
[[nodiscard]] PortfolioResult solve_portfolio(support::ThreadPool& pool,
                                              const design::Design& design,
                                              const arch::Board& board,
                                              const PortfolioOptions& options);

/// Convenience: create a pool (one worker per lane) for the call.
[[nodiscard]] inline PortfolioResult solve_portfolio(
    const design::Design& design, const arch::Board& board,
    const PortfolioOptions& options) {
  support::ThreadPool pool(options.lanes.empty() ? 1 : options.lanes.size());
  return solve_portfolio(pool, design, board, options);
}

}  // namespace gmm::mapping
