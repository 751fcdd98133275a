// Microbenchmarks (google-benchmark) of the solver and pre-processing
// kernels: dual-simplex LP solves, refactorization, consumed_ports /
// placement planning, MILP knapsacks, and the detailed packer — plus the
// parallel-solver thread sweep: the largest micro MIP solved at every
// GMM_BENCH_THREADS count, reporting seconds, speedup over 1 thread and
// the (identical) objective — a basis warm-start cache A/B, and one
// exact-gap solve of Table-3 point 6 (record point6_exact).  JSON
// mirror: BENCH_micro_solver.json.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>

#include "arch/device_catalog.hpp"
#include "bench_common.hpp"
#include "ilp/mip_solver.hpp"
#include "lp/solver.hpp"
#include "mapping/complete_mapper.hpp"
#include "mapping/detailed_mapper.hpp"
#include "mapping/global_mapper.hpp"
#include "mapping/preprocess.hpp"
#include "support/rng.hpp"
#include "support/timer.hpp"
#include "workload/table3_suite.hpp"

namespace {

using namespace gmm;

lp::Model random_lp(int vars, int rows, std::uint64_t seed) {
  support::Rng rng(seed);
  lp::Model model;
  for (int j = 0; j < vars; ++j) {
    model.add_variable(0, 10, static_cast<double>(rng.uniform_int(-10, 10)));
  }
  for (int i = 0; i < rows; ++i) {
    lp::LinExpr expr;
    double mid = 0;
    for (int j = 0; j < vars; ++j) {
      if (rng.bernoulli(0.3)) {
        const double a = static_cast<double>(rng.uniform_int(-5, 5));
        if (a != 0) {
          expr.add(j, a);
          mid += 5 * a;
        }
      }
    }
    if (!expr.empty()) {
      model.add_constraint(expr, lp::Sense::kLessEqual,
                           mid + static_cast<double>(rng.uniform_int(0, 30)));
    }
  }
  return model;
}

void BM_LpSolve(benchmark::State& state) {
  const lp::Model model = random_lp(static_cast<int>(state.range(0)),
                                    static_cast<int>(state.range(1)), 42);
  for (auto _ : state) {
    const lp::LpResult r = lp::solve_lp(model);
    benchmark::DoNotOptimize(r.objective);
  }
}
BENCHMARK(BM_LpSolve)->Args({50, 30})->Args({200, 100})->Args({500, 250});

void BM_MipKnapsack(benchmark::State& state) {
  support::Rng rng(7);
  lp::Model model;
  lp::LinExpr weight;
  for (int i = 0; i < state.range(0); ++i) {
    weight.add(model.add_binary(static_cast<double>(-rng.uniform_int(1, 100))),
               static_cast<double>(rng.uniform_int(1, 50)));
  }
  model.add_constraint(weight, lp::Sense::kLessEqual,
                       static_cast<double>(state.range(0)) * 10.0);
  for (auto _ : state) {
    const ilp::MipResult r = ilp::solve_mip(model);
    benchmark::DoNotOptimize(r.objective);
  }
}
BENCHMARK(BM_MipKnapsack)->Arg(20)->Arg(40)->Arg(60);

void BM_PlanPlacement(benchmark::State& state) {
  const arch::BankType bank =
      arch::on_chip_bank_type(*arch::find_device("XCV1000"));
  support::Rng rng(13);
  std::vector<design::DataStructure> shapes;
  for (int i = 0; i < 256; ++i) {
    design::DataStructure ds;
    ds.name = "s";
    ds.depth = rng.uniform_int(1, 16384);
    ds.width = rng.uniform_int(1, 64);
    shapes.push_back(ds);
  }
  std::size_t i = 0;
  for (auto _ : state) {
    const mapping::PlacementPlan plan =
        mapping::plan_placement(shapes[i++ % shapes.size()], bank);
    benchmark::DoNotOptimize(plan.cp);
  }
}
BENCHMARK(BM_PlanPlacement);

void BM_ConsumedPorts(benchmark::State& state) {
  std::int64_t d = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(mapping::consumed_ports(d, 4096, 2));
    d = d % 4000 + 1;
  }
}
BENCHMARK(BM_ConsumedPorts);

void BM_DetailedPack(benchmark::State& state) {
  const workload::Table3Instance instance =
      workload::build_instance(workload::table3_points()[1]);
  const mapping::CostTable table(instance.design, instance.board);
  // A feasible assignment via the pipeline once, re-packed every
  // iteration.
  mapping::GlobalAssignment assignment;
  assignment.type_of.assign(instance.design.size(), -1);
  for (std::size_t d = 0; d < instance.design.size(); ++d) {
    for (std::size_t t = 0; t < instance.board.num_types(); ++t) {
      if (table.feasible(d, t)) {
        assignment.type_of[d] = static_cast<int>(t);
        break;
      }
    }
  }
  for (auto _ : state) {
    const mapping::DetailedMapping m = mapping::map_detailed(
        instance.design, instance.board, table, assignment);
    benchmark::DoNotOptimize(m.fragments.size());
  }
}
BENCHMARK(BM_DetailedPack);

// ---- parallel-solver thread sweep ---------------------------------------

/// The largest micro instance: a multi-dimensional knapsack whose LP bound
/// is weak enough (cuts disabled) to force a deep branch & bound tree with
/// non-trivial node LPs — the shape where work-sharing across threads pays.
lp::Model hard_mip(int vars, int rows, std::uint64_t seed) {
  support::Rng rng(seed);
  lp::Model model;
  std::vector<lp::Index> x;
  for (int j = 0; j < vars; ++j) {
    x.push_back(
        model.add_binary(static_cast<double>(-rng.uniform_int(10, 100))));
  }
  for (int i = 0; i < rows; ++i) {
    lp::LinExpr weight;
    std::int64_t total = 0;
    for (const lp::Index j : x) {
      const std::int64_t w = rng.uniform_int(5, 40);
      weight.add(j, static_cast<double>(w));
      total += w;
    }
    model.add_constraint(weight, lp::Sense::kLessEqual,
                         static_cast<double>(total * 30 / 100));
  }
  return model;
}

int run_sweep() {
  bench::BenchJson json("micro_solver");
  // 21.7k B&B nodes and 165k dual pivots, 1.4-2.2 s serial (median
  // 1.9 s; Release, g++ 12, one core of a shared 4-vCPU 2.1 GHz Xeon
  // guest): big enough that work-sharing dominates coordination, small
  // enough for CI.
  const lp::Model model = hard_mip(180, 24, 777);

  std::printf(
      "\n== parallel B&B thread sweep (180-var, 24-row multi-knapsack, "
      "exact gap) ==\n");
  bench::run_thread_sweep(json, "thread_sweep", {}, [&model](int threads) {
    ilp::MipOptions options;
    options.num_threads = threads;
    options.rel_gap = 0.0;
    options.max_cut_rounds = 0;  // keep the tree deep on purpose
    support::WallTimer timer;
    const ilp::MipResult r = ilp::solve_mip(model, options);
    return bench::SweepOutcome{.seconds = timer.seconds(),
                               .nodes = r.nodes,
                               .lp_iterations = r.lp_iterations,
                               .objective = r.objective,
                               .status = lp::to_string(r.status),
                               .basis = r.basis};
  });

  // ---- basis warm-start A/B on a Table-3 point --------------------------
  // The complete formulation of a mid-size Table-3 point with the
  // per-node basis cache on vs off, 1 thread so both arms search the
  // identical tree — isolating the dual pivots a heap pop pays when it
  // warm-starts from its own parent's basis vs re-deriving cold.
  const auto& points = workload::table3_points();
  const std::size_t ab_point = 3;  // paper point 4: deep enough tree
  const workload::Table3Instance instance =
      workload::build_instance(points[ab_point], bench::env_seed());
  const mapping::CostTable cost_table(instance.design, instance.board);
  std::printf("\n== basis warm-start cache A/B (Table-3 point %d, complete "
              "formulation, 1 thread) ==\n",
              points[ab_point].index);
  bench::run_basis_warm_cold_ab(
      json, "basis_warm_cold_ab",
      {bench::jint("point", points[ab_point].index)},
      [&](std::size_t max_stored_bases) {
        mapping::CompleteOptions options;
        options.mip.num_threads = 1;
        options.mip.max_stored_bases = max_stored_bases;
        options.mip.time_limit_seconds = std::min(30.0, bench::env_time_limit());
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

  // ---- Table-3 point 6 at gap 0 ----------------------------------------
  // The paper's hardest global instance (62 segments, 65-bank board)
  // solved to an exact gap on 1 thread: the in-tree before/after
  // measurement for branch-and-bound tree levers on this point.  Neither
  // a proof nor an objective is gated; the record says how far the
  // search got within the cap.
  const std::size_t exact_point = 5;  // paper point 6
  const workload::Table3Instance hard_instance =
      workload::build_instance(points[exact_point], bench::env_seed());
  const mapping::CostTable hard_table(hard_instance.design,
                                      hard_instance.board);
  std::printf("\n== Table-3 point %d, global formulation, exact gap, "
              "1 thread ==\n",
              points[exact_point].index);
  mapping::GlobalOptions options;
  options.mip.num_threads = 1;
  options.mip.rel_gap = 0.0;
  options.mip.abs_gap = 0.5;  // exact for the integer-valued objective
  options.mip.time_limit_seconds = std::min(120.0, bench::env_time_limit());
  support::WallTimer timer;
  const mapping::GlobalResult r = mapping::map_global(
      hard_instance.design, hard_instance.board, hard_table, options);
  const double seconds = timer.seconds();
  const double objective = r.mip.has_incumbent() ? r.mip.objective : -1.0;
  std::printf("  %10s %12s %12s %10s %16s %12s %12s %s\n", "wall (s)",
              "nodes", "pivots", "refactor.", "work units", "objective",
              "bound", "status");
  std::printf("  %10.3f %12lld %12lld %10lld %16lld %12.0f %12.0f %s\n",
              seconds, static_cast<long long>(r.mip.nodes),
              static_cast<long long>(r.mip.lp_iterations),
              static_cast<long long>(r.mip.simplex_refactorizations),
              static_cast<long long>(r.mip.lp_work_units), objective,
              r.mip.best_bound, lp::to_string(r.status));
  json.write("point6_exact",
             {bench::jint("point", points[exact_point].index),
              bench::jnum("seconds", seconds),
              bench::jint("nodes", r.mip.nodes),
              bench::jint("pivots", r.mip.lp_iterations),
              bench::jint("refactorizations", r.mip.simplex_refactorizations),
              bench::jint("work_units", r.mip.lp_work_units),
              bench::jnum("objective", objective),
              bench::jnum("bound", r.mip.best_bound),
              bench::jstr("status", lp::to_string(r.status))});
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return run_sweep();
}
