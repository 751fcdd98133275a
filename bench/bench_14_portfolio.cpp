// Portfolio racing bench: first-prover wall clock vs each single lane.
//
// For each selected Table-3 point the bench solves every default lane
// SOLO (global pipeline, complete formulation, knob variants), then
// races them all with mapping::solve_portfolio, and records into
// BENCH_portfolio.json:
//   * per-lane solo wall clock / status / objective,
//   * the portfolio's first-prover wall clock, winner, and objective,
//   * the ratios vs the best and the worst solo lane.
//
// Acceptance gates (non-zero exit on failure):
//   1. SAFETY — at gap 0 the portfolio objective is never worse than any
//      usable solo lane's objective (a proof is a proof under either
//      formulation);
//   2. WIN    — on at least one point the portfolio's first proof
//      strictly beats the WORST solo lane (the whole motivation: Table 3
//      lane times differ by orders of magnitude and the slow lane is not
//      predictable up front).
// The first-prover-vs-FASTEST-lane comparison is recorded (ratio_best)
// but not gated: on a single-core host the racing lanes time-share one
// CPU, so the ratio sits near the lane count until a winner cancels the
// rest; on multi-core CI it approaches 1.
//
// Env knobs:
//   GMM_BENCH_PORTFOLIO_POINTS  comma-separated Table-3 points (default 1,2,3)
//   GMM_BENCH_PORTFOLIO_LANES   lanes to race, 1..6 (default 3)
//   GMM_BENCH_TIME_LIMIT        per-lane budget in seconds (default 120)
//   GMM_BENCH_SEED              workload seed (default 2001)
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "mapping/portfolio.hpp"
#include "workload/table3_suite.hpp"

namespace {

using namespace gmm;

std::vector<int> env_points() {
  const char* raw = std::getenv("GMM_BENCH_PORTFOLIO_POINTS");
  const std::string text = raw != nullptr ? raw : "1,2,3";
  std::vector<int> points;
  std::string token;
  for (const char c : text + ",") {
    if (c == ',') {
      if (!token.empty()) points.push_back(std::atoi(token.c_str()));
      token.clear();
    } else {
      token.push_back(c);
    }
  }
  return points;
}

int env_lanes() {
  const char* raw = std::getenv("GMM_BENCH_PORTFOLIO_LANES");
  const int lanes =
      raw != nullptr ? std::atoi(raw) : mapping::kDefaultPortfolioLanes;
  return std::clamp(lanes, 1, mapping::kMaxPortfolioLanes);
}

}  // namespace

int main() {
  bench::BenchJson json("portfolio");
  const double limit = bench::env_time_limit();
  const std::uint64_t seed = bench::env_seed();
  const int lane_count = env_lanes();
  const std::vector<workload::Table3Point> suite = workload::table3_points();

  // Gap 0 everywhere: the SAFETY gate compares exact optima, so every
  // prover must prove the same objective.
  mapping::PipelineOptions base;
  base.global.mip.rel_gap = 0.0;
  base.global.mip.abs_gap = 0.0;
  base.global.mip.time_limit_seconds = limit;

  bool any_beats_worst = false;
  bool safety_ok = true;
  int points_run = 0;

  for (const int index : env_points()) {
    const auto it =
        std::find_if(suite.begin(), suite.end(),
                     [index](const workload::Table3Point& p) {
                       return p.index == index;
                     });
    if (it == suite.end()) {
      std::printf("point %d: not in the Table-3 suite, skipped\n", index);
      continue;
    }
    const workload::Table3Instance instance =
        workload::build_instance(*it, seed);
    const std::vector<mapping::PortfolioLane> lanes =
        mapping::default_portfolio_lanes(instance.board, lane_count, base);
    ++points_run;

    // Solo baselines: each lane alone through the same portfolio
    // harness, so wrapper overhead cancels out of the comparison.
    double best_solo = -1.0, worst_solo = -1.0;
    double best_solo_objective = -1.0;
    std::string best_name, worst_name;
    for (const mapping::PortfolioLane& lane : lanes) {
      mapping::PortfolioOptions solo;
      solo.lanes = {lane};
      const mapping::PortfolioResult r =
          mapping::solve_portfolio(instance.design, instance.board, solo);
      const bool usable = r.detailed.success && r.assignment.complete();
      std::printf("point %d lane %-16s %-10s %10.3fs  objective %s\n",
                  index, lane.name.c_str(), lp::to_string(r.status),
                  r.seconds,
                  usable ? std::to_string(static_cast<long long>(
                               r.assignment.objective))
                               .c_str()
                         : "-");
      json.write("solo",
                 {bench::jint("point", index), bench::jstr("lane", lane.name),
                  bench::jstr("status", lp::to_string(r.status)),
                  bench::jbool("proved", r.winner >= 0),
                  bench::jnum("seconds", r.seconds),
                  bench::jnum("objective",
                              usable ? r.assignment.objective : -1.0),
                  bench::jint("nodes", r.total_effort.bnb_nodes)});
      if (!usable) continue;
      if (best_solo < 0.0 || r.seconds < best_solo) {
        best_solo = r.seconds;
        best_name = lane.name;
      }
      if (worst_solo < 0.0 || r.seconds > worst_solo) {
        worst_solo = r.seconds;
        worst_name = lane.name;
      }
      if (best_solo_objective < 0.0 ||
          r.assignment.objective < best_solo_objective) {
        best_solo_objective = r.assignment.objective;
      }
    }

    // The race.
    mapping::PortfolioOptions race;
    race.lanes = lanes;
    const mapping::PortfolioResult r =
        mapping::solve_portfolio(instance.design, instance.board, race);
    const bool usable = r.detailed.success && r.assignment.complete();
    const double ratio_best =
        best_solo > 0.0 ? r.first_prove_seconds / best_solo : -1.0;
    const double ratio_worst =
        worst_solo > 0.0 ? r.first_prove_seconds / worst_solo : -1.0;
    std::printf("point %d RACE  winner %-12s first proof %10.3fs  "
                "(best solo %s %.3fs, worst solo %s %.3fs)\n",
                index, r.winner >= 0 ? r.winner_name.c_str() : "none",
                r.first_prove_seconds, best_name.c_str(), best_solo,
                worst_name.c_str(), worst_solo);
    json.write(
        "race",
        {bench::jint("point", index),
         bench::jint("lanes", static_cast<std::int64_t>(r.lanes.size())),
         bench::jstr("winner", r.winner_name),
         bench::jnum("first_prove_seconds", r.first_prove_seconds),
         bench::jnum("wall_seconds", r.seconds),
         bench::jnum("objective", usable ? r.assignment.objective : -1.0),
         bench::jnum("best_solo_seconds", best_solo),
         bench::jnum("worst_solo_seconds", worst_solo),
         bench::jnum("ratio_best", ratio_best),
         bench::jnum("ratio_worst", ratio_worst),
         bench::jint("lanes_cancelled", r.lanes_cancelled)});

    // Gate 1: at gap 0 the race must never return a worse objective than
    // any solo lane that produced one.
    if (best_solo_objective >= 0.0) {
      const double tol = 1e-6 * std::max(1.0, best_solo_objective);
      if (!usable || r.assignment.objective > best_solo_objective + tol) {
        std::printf("point %d SAFETY FAIL: race objective %s vs best solo "
                    "%.0f\n",
                    index,
                    usable ? std::to_string(static_cast<long long>(
                                 r.assignment.objective))
                                 .c_str()
                           : "unusable",
                    best_solo_objective);
        safety_ok = false;
      }
    }
    // Gate 2 evidence: strictly beating the worst lane on any point.
    if (worst_solo > 0.0 && r.winner >= 0 &&
        r.first_prove_seconds < worst_solo) {
      any_beats_worst = true;
    }
  }

  const bool win_ok = any_beats_worst || points_run == 0;
  json.write("summary", {bench::jint("points", points_run),
                         bench::jint("lanes", lane_count),
                         bench::jbool("safety_ok", safety_ok),
                         bench::jbool("beats_worst_lane", any_beats_worst)});
  std::printf("\nportfolio bench: %d points, safety %s, beats-worst %s "
              "(json: %s)\n",
              points_run, safety_ok ? "ok" : "FAIL",
              any_beats_worst ? "yes" : "NO", json.path().c_str());
  if (!safety_ok || !win_ok) return 1;
  return 0;
}
