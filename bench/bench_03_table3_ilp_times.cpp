// Reproduces Table 3 ("ILP Execution Times"): the complete (flat X/Y/Z)
// formulation versus the global/detailed pipeline on the paper's nine
// design points.  Absolute seconds differ from the paper (their CPLEX on
// a 248 MHz SUN Ultra-30 vs. this repo's own B&B solver on a modern
// machine); the claim under reproduction is the SHAPE: global/detailed
// is faster everywhere and the advantage grows with design size.
//
// Knobs: GMM_BENCH_TIME_LIMIT (s per complete solve, default 120),
//        GMM_BENCH_SEED, GMM_BENCH_MAX_POINT, GMM_BENCH_THREADS.
// JSON mirror: BENCH_table3.json (per-point rows + thread-sweep records).
#include <algorithm>
#include <cstdio>
#include <iostream>

#include "bench_common.hpp"
#include "mapping/complete_mapper.hpp"
#include "report/text_table.hpp"
#include "support/string_util.hpp"
#include "support/timer.hpp"

int main() {
  using namespace gmm;
  std::printf(
      "== Table 3: ILP execution times, complete vs global/detailed ==\n"
      "(seed %llu, %.0fs time limit per complete solve; paper columns "
      "from the\nSUN Ultra-30 runs are shown for shape comparison)\n\n",
      static_cast<unsigned long long>(bench::env_seed()),
      bench::env_time_limit());

  const std::vector<bench::Table3Row> rows =
      bench::run_or_load_table3_sweep();
  bench::BenchJson json("table3");

  report::TextTable table({"#segments", "banks", "ports", "configs",
                           "Complete (s)", "Global (s)", "ratio",
                           "paper C (s)", "paper G (s)", "paper ratio",
                           "parity", "G nodes", "G pivots", "G refact"});
  for (const bench::Table3Row& row : rows) {
    const double ratio = row.global_seconds > 0
                             ? row.complete_seconds / row.global_seconds
                             : 0.0;
    const double paper_ratio =
        row.point.paper_complete_seconds / row.point.paper_global_seconds;
    std::string complete = bench::fmt_seconds(row.complete_seconds);
    if (row.complete_status != "optimal") {
      complete += " (" + row.complete_status;
      if (row.complete_gap > 0) {
        complete += " gap " + support::format_fixed(100 * row.complete_gap, 1) + "%";
      }
      complete += ")";
    }
    table.add_row({std::to_string(row.point.segments),
                   std::to_string(row.point.totals.banks),
                   std::to_string(row.point.totals.ports),
                   std::to_string(row.point.totals.configs), complete,
                   bench::fmt_seconds(row.global_seconds),
                   support::format_fixed(ratio, 1) + "x",
                   support::format_fixed(row.point.paper_complete_seconds, 1),
                   support::format_fixed(row.point.paper_global_seconds, 1),
                   support::format_fixed(paper_ratio, 1) + "x",
                   row.parity,
                   std::to_string(row.global_nodes),
                   std::to_string(row.global_pivots),
                   std::to_string(row.global_refactorizations)});
    json.write("point",
               {bench::jint("index", row.point.index),
                bench::jint("segments", row.point.segments),
                bench::jint("banks", row.point.totals.banks),
                bench::jint("ports", row.point.totals.ports),
                bench::jint("configs", row.point.totals.configs),
                bench::jnum("complete_seconds", row.complete_seconds),
                bench::jstr("complete_status", row.complete_status),
                bench::jnum("complete_gap", row.complete_gap),
                bench::jnum("global_seconds", row.global_seconds),
                bench::jstr("global_status", row.global_status),
                bench::jint("global_nodes", row.global_nodes),
                bench::jint("global_pivots", row.global_pivots),
                bench::jint("global_refactorizations",
                            row.global_refactorizations),
                bench::jstr("parity", row.parity)});
  }
  table.print(std::cout);

  std::printf(
      "\n'parity' = the global/detailed objective equals the complete\n"
      "formulation's (the paper's claim that detailed mapping does not\n"
      "affect the quality of the assignment): 'yes' or 'NO' when both\n"
      "proved their optimum, '-' when either stopped unproved.\n"
      "G nodes / G pivots / G refact = the global solve's B&B nodes, dual\n"
      "simplex pivots and LP basis refactorizations.\n"
      "Results cached in gmm_table3_results.csv for the Figure-4 bench.\n");

  // ---- parallel-solver thread sweep ------------------------------------
  // The complete formulation of a mid-size point re-solved at each
  // GMM_BENCH_THREADS count: the Table-3 bottleneck is exactly the solve
  // the parallel branch & bound attacks.
  const auto& points = workload::table3_points();
  const int sweep_index =
      std::max(0, std::min(3, bench::env_max_point() - 1));
  const workload::Table3Instance instance =
      workload::build_instance(points[sweep_index], bench::env_seed());
  const mapping::CostTable cost_table(instance.design, instance.board);
  const double sweep_limit = std::min(60.0, bench::env_time_limit());

  std::printf("\n== complete-formulation thread sweep (Table-3 point %d) "
              "==\n",
              points[sweep_index].index);
  bench::run_thread_sweep(
      json, "complete_thread_sweep",
      {bench::jint("point", points[sweep_index].index)},
      [&](int threads) {
        mapping::CompleteOptions options;
        options.mip.num_threads = threads;
        options.mip.time_limit_seconds = sweep_limit;
        support::WallTimer timer;
        const mapping::CompleteResult r = mapping::map_complete(
            instance.design, instance.board, cost_table, options);
        return bench::SweepOutcome{
            .seconds = timer.seconds(),
            .nodes = r.mip.nodes,
            .lp_iterations = r.mip.lp_iterations,
            .objective = r.mip.has_incumbent() ? r.mip.objective : -1.0,
            .status = lp::to_string(r.status),
            .basis = r.mip.basis};
      });

  // ---- basis warm-start A/B --------------------------------------------
  // The same Table-3 point solved with the per-node basis cache on vs off
  // (max_stored_bases 4096 vs 0), single-threaded so both arms search the
  // identical tree: warm-started heap pops should pay fewer dual pivots
  // per node.  bench_09 runs the same A/B; this copy keeps the claim
  // measurable without google-benchmark installed.
  std::printf("\n== basis warm-start cache A/B (Table-3 point %d, complete "
              "formulation, 1 thread) ==\n",
              points[sweep_index].index);
  bench::run_basis_warm_cold_ab(
      json, "basis_warm_cold_ab",
      {bench::jint("point", points[sweep_index].index)},
      [&](std::size_t max_stored_bases) {
        mapping::CompleteOptions options;
        options.mip.num_threads = 1;
        options.mip.max_stored_bases = max_stored_bases;
        options.mip.time_limit_seconds = sweep_limit;
        support::WallTimer timer;
        const mapping::CompleteResult r = mapping::map_complete(
            instance.design, instance.board, cost_table, options);
        return bench::SweepOutcome{
            .seconds = timer.seconds(),
            .nodes = r.mip.nodes,
            .lp_iterations = r.mip.lp_iterations,
            .objective = r.mip.has_incumbent() ? r.mip.objective : -1.0,
            .status = lp::to_string(r.status),
            .basis = r.mip.basis};
      });
  return 0;
}
