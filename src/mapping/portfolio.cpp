#include "mapping/portfolio.hpp"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <utility>

#include "support/timer.hpp"

namespace gmm::mapping {

namespace {

/// Run one lane through mapping::solve and fill its report.
SolveOutcome run_lane(const design::Design& design, const arch::Board& board,
                      const PortfolioLane& lane,
                      const support::CancelTokenPtr& token,
                      LaneReport& report) {
  report.name = lane.name;
  report.kind = lane.kind;
  const support::WallTimer timer;
  if (token->should_stop()) {
    // Lost the race (or the parent stopped) before this lane ever got a
    // pool slot: record a zero-cost cancelled lane, never solve.
    report.status = lp::SolveStatus::kCancelled;
    report.stop_reason = token->cancelled() ? lp::SolveStatus::kCancelled
                                            : lp::SolveStatus::kTimeLimit;
    report.cancelled = true;
    report.seconds = timer.seconds();
    return {};
  }
  report.ran = true;
  SolveSpec spec;
  spec.formulation = lane.kind;
  spec.pipeline = lane.pipeline;
  spec.pipeline.global.mip.cancel_token = token;
  SolveOutcome o = solve(design, board, spec);
  report.status = o.status;
  // A sharded answer has no single MIP: its stitch runs at gap 0, so its
  // status is its stop reason (and an infeasible one is a heuristic
  // partition failure, never a proof of model infeasibility).
  report.stop_reason =
      lane.kind == Formulation::kSharded ? o.status : o.mip.stop_reason;
  report.effort = o.total_effort;
  report.usable = o.has_mapping();
  report.objective = report.usable ? o.assignment.objective : 0.0;
  // A proof is a complete optimal mapping or proved infeasibility: both
  // are final answers that should stop the race.
  report.proved = report.stop_reason == lp::SolveStatus::kOptimal &&
                  (report.status == lp::SolveStatus::kOptimal
                       ? report.usable
                       : report.status == lp::SolveStatus::kInfeasible);
  report.cancelled = report.stop_reason == lp::SolveStatus::kCancelled;
  report.seconds = timer.seconds();
  return o;
}

}  // namespace

std::vector<PortfolioLane> default_portfolio_lanes(
    const arch::Board& board, int lanes, const PipelineOptions& base) {
  const int count = std::clamp(lanes, 1, kMaxPortfolioLanes);
  std::vector<PortfolioLane> out;
  out.reserve(static_cast<std::size_t>(count));
  const auto add = [&out, &base](const std::string& name, Formulation kind) {
    PortfolioLane lane;
    lane.name = name;
    lane.kind = kind;
    lane.pipeline = base;
    out.push_back(std::move(lane));
    return &out.back();
  };
  if (board.multi_device()) {
    // Multi-device boards: every lane must optimize the same STITCHED
    // objective over the same partition, or racing would compare apples
    // to oranges (the flat global formulation cannot see inter-device
    // pin costs).  Vary per-device search knobs only, and only knobs
    // map_global passes through (it installs its own primal heuristic and
    // relaxation), so no two lanes race the same search.
    add("sharded", Formulation::kSharded);
    add("sharded-nocuts", Formulation::kSharded)
        ->pipeline.global.mip.max_cut_rounds = 0;
    add("sharded-nopresolve", Formulation::kSharded)
        ->pipeline.global.mip.use_presolve = false;
    add("sharded-morecuts", Formulation::kSharded)
        ->pipeline.global.mip.max_cut_rounds = 16;
    add("sharded-nobases", Formulation::kSharded)
        ->pipeline.global.mip.max_stored_bases = 0;
    add("sharded-fewcuts", Formulation::kSharded)
        ->pipeline.global.mip.max_cut_rounds = 2;
  } else {
    // Single-device menu, ordered by Table-3 expectation: the pipeline
    // usually proves first, the complete formulation occasionally wins
    // on small instances, and the knob variants hedge against cut or
    // basis-cache pathologies.  No sharded lane: on one device
    // map_sharded is map_pipeline with the global lane's options.
    add("global", Formulation::kGlobal);
    add("complete", Formulation::kComplete);
    add("global-nocuts", Formulation::kGlobal)
        ->pipeline.global.mip.max_cut_rounds = 0;
    add("global-fewcuts", Formulation::kGlobal)
        ->pipeline.global.mip.max_cut_rounds = 2;
    add("global-nobases", Formulation::kGlobal)
        ->pipeline.global.mip.max_stored_bases = 0;
    add("global-morecuts", Formulation::kGlobal)
        ->pipeline.global.mip.max_cut_rounds = 16;
  }
  out.resize(static_cast<std::size_t>(count));
  return out;
}

PortfolioResult solve_portfolio(support::ThreadPool& pool,
                                const design::Design& design,
                                const arch::Board& board,
                                const PortfolioOptions& options) {
  const std::size_t n = options.lanes.size();
  if (n == 0) return {};
  const support::WallTimer timer;
  const support::CancelTokenPtr& parent = options.cancel_token;

  // Child tokens: one per lane, inheriting the parent's remaining
  // deadline at launch so in-lane solvers report kTimeLimit (not
  // kCancelled) when the request's budget runs out.
  std::vector<support::CancelTokenPtr> tokens;
  tokens.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    auto token = std::make_shared<support::CancelToken>();
    if (parent != nullptr) {
      if (parent->has_deadline()) {
        token->set_deadline_after_seconds(parent->seconds_remaining());
      }
      if (parent->cancelled()) token->cancel();
    }
    tokens.push_back(std::move(token));
  }

  std::mutex mutex;
  std::condition_variable cv;
  std::size_t done = 0;
  int winner = -1;
  double first_prove = -1.0;
  std::vector<SolveOutcome> outcomes(n);
  std::vector<LaneReport> reports(n);

  for (std::size_t i = 0; i < n; ++i) {
    pool.submit([&, i] {
      LaneReport report;
      SolveOutcome outcome =
          run_lane(design, board, options.lanes[i], tokens[i], report);
      const std::lock_guard<std::mutex> lock(mutex);
      const bool proof = report.proved;
      outcomes[i] = std::move(outcome);
      reports[i] = std::move(report);
      if (proof && winner < 0) {
        winner = static_cast<int>(i);
        first_prove = timer.seconds();
        // First prover wins: cancel every sibling.  Running lanes stop
        // at their next node boundary; queued lanes never start.
        for (std::size_t j = 0; j < n; ++j) {
          if (j != i) tokens[j]->cancel();
        }
      }
      ++done;
      cv.notify_all();
    });
  }

  // Supervise: wait for every lane (losers acknowledge cancellation
  // quickly), propagating a parent-side cancel to the children.  The
  // poll interval bounds cancel latency, not solve progress.
  {
    std::unique_lock<std::mutex> lock(mutex);
    bool propagated = false;
    while (done < n) {
      cv.wait_for(lock, std::chrono::milliseconds(2));
      if (!propagated && parent != nullptr && parent->cancelled()) {
        propagated = true;
        for (const auto& token : tokens) token->cancel();
      }
    }
  }

  // Pick the result: the first prover; else the best usable incumbent
  // (lowest objective, ties to the earliest lane); else the most
  // informative failure.
  const auto preference = [&reports](std::size_t i) {
    const LaneReport& r = reports[i];
    const bool timed_out = r.status == lp::SolveStatus::kTimeLimit ||
                           r.stop_reason == lp::SolveStatus::kTimeLimit;
    const int rank = r.usable                                   ? 0
                     : !r.ran                                   ? 4
                     : r.status == lp::SolveStatus::kInfeasible ? 1
                     : timed_out                                ? 2
                                                                : 3;
    return std::pair(rank, r.usable ? r.objective : 0.0);
  };
  std::size_t pick = winner >= 0 ? static_cast<std::size_t>(winner) : 0;
  for (std::size_t i = 1; i < n && winner < 0; ++i) {
    if (preference(i) < preference(pick)) pick = i;
  }

  PortfolioResult out = std::move(outcomes[pick]);
  out.formulation = options.lanes[pick].kind;
  if (!reports[pick].ran) out.status = lp::SolveStatus::kCancelled;
  out.winner = winner;
  if (winner >= 0) {
    out.winner_name = options.lanes[static_cast<std::size_t>(winner)].name;
  }
  out.total_effort = SolveEffort{};
  for (const LaneReport& report : reports) {
    out.total_effort += report.effort;
    if (report.cancelled) ++out.lanes_cancelled;
  }
  out.lanes = std::move(reports);
  out.seconds = timer.seconds();
  out.first_prove_seconds = first_prove >= 0.0 ? first_prove : out.seconds;
  return out;
}

}  // namespace gmm::mapping
