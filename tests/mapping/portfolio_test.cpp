// Portfolio racing determinism wall.
//
// The contracts under test (see portfolio.hpp):
//  * a 1-lane portfolio is bitwise-identical to calling the lane's
//    mapper directly — the child cancel token only adds polls, which
//    never alter the search path — across pool worker counts;
//  * with N lanes at gap 0, WHOEVER wins proves the same optimum, so
//    the returned objective equals the plain pipeline's, across worker
//    counts;
//  * a pre-cancelled parent token stops every lane before it starts;
//  * a pre-expired parent deadline surfaces as kTimeLimit, not as a
//    cancellation;
//  * no two lanes in either default menu agree on the formulation they
//    run and every knob map_global passes through, so none races a copy
//    (a sharded lane on one usable device runs the global pipeline).
#include "mapping/portfolio.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <tuple>

#include "mapping/pipeline.hpp"
#include "support/cancellation.hpp"
#include "support/thread_pool.hpp"
#include "workload/table3_suite.hpp"

namespace gmm::mapping {
namespace {

workload::Table3Instance small_instance() {
  return workload::build_instance(workload::table3_points()[1]);
}

PipelineOptions gap0_options() {
  PipelineOptions options;
  options.global.mip.rel_gap = 0.0;
  options.global.mip.abs_gap = 0.0;
  return options;
}

TEST(Portfolio, OneLaneBitwiseIdenticalToPlainPipeline) {
  const workload::Table3Instance instance = small_instance();
  const PipelineOptions options = gap0_options();
  const PipelineResult plain =
      map_pipeline(instance.design, instance.board, options);
  ASSERT_EQ(plain.status, lp::SolveStatus::kOptimal);

  for (const std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
    support::ThreadPool pool(workers);
    PortfolioOptions race;
    race.lanes.push_back(
        {.name = "global", .kind = Formulation::kGlobal, .pipeline = options});
    const PortfolioResult r =
        solve_portfolio(pool, instance.design, instance.board, race);

    ASSERT_EQ(r.winner, 0) << "workers " << workers;
    EXPECT_EQ(r.winner_name, "global");
    EXPECT_EQ(r.status, plain.status) << "workers " << workers;
    EXPECT_EQ(r.assignment.type_of, plain.assignment.type_of);
    EXPECT_DOUBLE_EQ(r.assignment.objective, plain.assignment.objective);
    EXPECT_EQ(r.detailed.fragments.size(), plain.detailed.fragments.size());
    EXPECT_EQ(r.mip.nodes, plain.mip.nodes) << "workers " << workers;
    EXPECT_EQ(r.effort.bnb_nodes, plain.effort.bnb_nodes);
    EXPECT_EQ(r.effort.lp_iterations, plain.effort.lp_iterations);
    EXPECT_EQ(r.retries, plain.retries);
    ASSERT_EQ(r.lanes.size(), 1u);
    EXPECT_TRUE(r.lanes[0].proved);
    EXPECT_FALSE(r.lanes[0].cancelled);
    EXPECT_EQ(r.lanes_cancelled, 0);
  }
}

TEST(Portfolio, RacingNeverChangesTheGap0Objective) {
  const workload::Table3Instance instance = small_instance();
  const PipelineOptions options = gap0_options();
  const PipelineResult plain =
      map_pipeline(instance.design, instance.board, options);
  ASSERT_EQ(plain.status, lp::SolveStatus::kOptimal);

  for (const std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
    support::ThreadPool pool(workers);
    PortfolioOptions race;
    race.lanes =
        default_portfolio_lanes(instance.board, /*lanes=*/3, options);
    const PortfolioResult r =
        solve_portfolio(pool, instance.design, instance.board, race);

    // The winner identity may vary with timing; the proved objective
    // must not.
    ASSERT_GE(r.winner, 0) << "workers " << workers;
    EXPECT_EQ(r.status, lp::SolveStatus::kOptimal);
    EXPECT_TRUE(r.detailed.success);
    EXPECT_DOUBLE_EQ(r.assignment.objective, plain.assignment.objective)
        << "workers " << workers << " winner " << r.winner_name;
    EXPECT_EQ(r.lanes.size(), 3u);
    EXPECT_GE(r.first_prove_seconds, 0.0);
    EXPECT_LE(r.first_prove_seconds, r.seconds);
  }
}

TEST(Portfolio, PreCancelledParentStopsEveryLane) {
  const workload::Table3Instance instance = small_instance();
  PortfolioOptions race;
  race.cancel_token = std::make_shared<support::CancelToken>();
  race.cancel_token->cancel();
  race.lanes = default_portfolio_lanes(instance.board, 3, gap0_options());
  const PortfolioResult r =
      solve_portfolio(instance.design, instance.board, race);

  EXPECT_EQ(r.winner, -1);
  EXPECT_EQ(r.status, lp::SolveStatus::kCancelled);
  for (const LaneReport& lane : r.lanes) {
    EXPECT_FALSE(lane.ran) << lane.name;
    EXPECT_TRUE(lane.cancelled) << lane.name;
    EXPECT_EQ(lane.stop_reason, lp::SolveStatus::kCancelled) << lane.name;
    EXPECT_EQ(lane.effort.bnb_nodes, 0) << lane.name;
  }
}

TEST(Portfolio, PreExpiredParentDeadlineReportsTimeLimit) {
  const workload::Table3Instance instance = small_instance();
  PortfolioOptions race;
  race.cancel_token = std::make_shared<support::CancelToken>();
  race.cancel_token->set_deadline_after_seconds(0.0);
  race.lanes = default_portfolio_lanes(instance.board, 2, gap0_options());
  const PortfolioResult r =
      solve_portfolio(instance.design, instance.board, race);

  EXPECT_EQ(r.winner, -1);
  for (const LaneReport& lane : r.lanes) {
    EXPECT_FALSE(lane.ran) << lane.name;
    // Budget exhaustion, not a race loss: the report must say so.
    EXPECT_EQ(lane.stop_reason, lp::SolveStatus::kTimeLimit) << lane.name;
  }
}

TEST(Portfolio, EmptyPortfolioIsInfeasibleWithoutRunning) {
  const workload::Table3Instance instance = small_instance();
  const PortfolioResult r =
      solve_portfolio(instance.design, instance.board, PortfolioOptions{});
  EXPECT_EQ(r.winner, -1);
  EXPECT_EQ(r.status, lp::SolveStatus::kInfeasible);
  EXPECT_TRUE(r.lanes.empty());
}

TEST(Portfolio, DefaultMenuSharesTheGapContract) {
  const workload::Table3Instance instance = small_instance();
  PipelineOptions base;
  base.global.mip.rel_gap = 0.0;
  base.global.mip.abs_gap = 0.0;
  base.global.mip.time_limit_seconds = 42.0;
  const std::vector<PortfolioLane> lanes =
      default_portfolio_lanes(instance.board, kMaxPortfolioLanes, base);
  ASSERT_EQ(static_cast<int>(lanes.size()), kMaxPortfolioLanes);
  for (const PortfolioLane& lane : lanes) {
    // Search knobs may differ; the optimality contract may not.
    EXPECT_DOUBLE_EQ(lane.pipeline.global.mip.rel_gap, 0.0) << lane.name;
    EXPECT_DOUBLE_EQ(lane.pipeline.global.mip.abs_gap, 0.0) << lane.name;
    EXPECT_DOUBLE_EQ(lane.pipeline.global.mip.time_limit_seconds, 42.0)
        << lane.name;
  }
}

/// Every knob of a lane that map_global passes through to the search
/// (it installs its own primal heuristic and relaxation, so those are
/// left out).  A sharded lane on a board with one usable device runs
/// map_pipeline with the lane's options, so it compares as global.
auto passed_through(const PortfolioLane& lane, const arch::Board& board) {
  std::size_t usable = 0;
  for (std::size_t k = 0; k < board.num_devices(); ++k) {
    if (board.device_banks(k) > 0) ++usable;
  }
  const Formulation kind =
      lane.kind == Formulation::kSharded && usable == 1 ? Formulation::kGlobal
                                                        : lane.kind;
  const GlobalOptions& g = lane.pipeline.global;
  const ilp::MipOptions& mip = g.mip;
  return std::make_tuple(
      kind, mip.max_cut_rounds, mip.max_stored_bases, mip.use_presolve,
      mip.rel_gap, mip.abs_gap, mip.node_limit, mip.time_limit_seconds,
      mip.num_threads, mip.simplex.iteration_limit,
      mip.simplex.refactor_interval, mip.simplex.stall_threshold,
      g.overlap_aware_capacity, g.migration_penalty, g.weights.latency,
      g.weights.pin_delay, g.weights.pin_io,
      lane.pipeline.detailed.allow_overlap, lane.pipeline.max_retries);
}

TEST(Portfolio, NoTwoLanesOfOneFormulationRaceTheSameSearch) {
  const workload::Table3Instance instance = small_instance();
  const arch::Board boards[] = {
      instance.board, arch::split_across_devices(instance.board, 2)};
  ASSERT_TRUE(boards[1].multi_device());
  for (const arch::Board& board : boards) {
    const std::vector<PortfolioLane> lanes =
        default_portfolio_lanes(board, kMaxPortfolioLanes);
    ASSERT_EQ(static_cast<int>(lanes.size()), kMaxPortfolioLanes);
    for (std::size_t a = 0; a < lanes.size(); ++a) {
      for (std::size_t b = a + 1; b < lanes.size(); ++b) {
        EXPECT_NE(lanes[a].name, lanes[b].name);
        EXPECT_NE(passed_through(lanes[a], board),
                  passed_through(lanes[b], board))
            << lanes[a].name << " and " << lanes[b].name << " on "
            << (board.multi_device() ? "two devices" : "one device");
      }
    }
  }
}

}  // namespace
}  // namespace gmm::mapping
