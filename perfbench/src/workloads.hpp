// The benchmark's workloads.  Each one runs for about `seconds`, checks
// every answer, and returns the metrics the runner prints: the end-to-end
// set when `trace` is off, the per-layer set from a traced run when on.
// Every workload reports every metric of the set, so the two structs below
// fix the names, units and order once.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "arch/board.hpp"
#include "bench_lib.hpp"
#include "ilp/mip_solver.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 2001;
  double seconds = 30.0;
  bool trace = false;
  std::string server;   // mapper_serve binary (serve_mix only)
  std::string out_dir;  // trace and result files
  std::string commit;   // source identity for the result header
};

/// End-to-end metrics (perfbench/README.md defines each per workload).
/// Solve, hit and near-miss times are each instance's fastest repeat: on a
/// shared host a repeat can only be slowed by other tenants, never sped up.
/// add_end_to_end reports every timing scaled by the run's HostSpeed.
struct EndToEnd {
  double setup_s = 0.0;
  double solve_s = 0.0;
  Percentile solve_p50_ms;
  double proved_share = 0.0;
  double peak_rss_mb = 0.0;
  Percentile hit_p50_ms;
  Percentile near_p50_ms;
};

/// Tails, the saturation rate, and request latencies by class as a client
/// sees them.  On a contended host they spread too far from run to run to
/// gate on, so they are reported with the per-layer metrics.
struct Tails {
  Percentile solve_p90_ms, near_p90_ms;  // as solve_p50_ms, near_p50_ms
  double max_rate_rps = 0.0;
};
struct ClientLatency {
  Percentile p99_ms;
  Percentile cold_p50_ms, cold_p90_ms;
  Percentile hit_p50_ms, hit_p99_ms;
  Percentile near_p50_ms, near_p90_ms;
};
void add_end_to_end(Result& result, const EndToEnd& m, const HostSpeed& speed);

/// Per-layer metrics from a traced run, named after the modules.
struct Layers {
  double ilp_nodes = 0, ilp_us_per_node = 0, ilp_cuts = 0, ilp_rc_fixed = 0;
  double ilp_basis_hit_rate = 0, ilp_pivots_per_pop = 0, ilp_gap_at_stop = 0;
  double lp_pivots = 0, lp_us_per_pivot = 0, lp_pivots_per_node = 0;
  double lp_refactorizations = 0, lp_work_units = 0;
  double mapping_cost_table_us = 0, mapping_formulate_us = 0;
  double mapping_detailed_us = 0, mapping_validate_us = 0;
  double mapping_retries = 0, mapping_remap_ms = 0;
  double design_parse_us = 0, service_parse_us = 0;
  double service_fingerprint_us = 0, service_serialize_us = 0;
  double service_cache_hit_ratio = 0, service_cache_evictions = 0;
  double service_near_misses = 0;
  double service_outside_ms_p50 = 0, service_outside_ms_p99 = 0;
  double service_cpu_ms_per_request = 0;
  double bench_sender_lag_ms_p99 = 0, bench_tracing_overhead = 0;
  Tails tails;
  ClientLatency client;
};
void add_layers(Result& result, const Layers& m);

/// Solver counters summed over the requests a traced run pushed through
/// the layers in-process.
struct LayerSums {
  double requests = 0, nodes = 0, mip_seconds = 0, cuts = 0, rc_fixed = 0;
  double basis_loaded = 0, basis_cold_pops = 0, pop_pivots = 0;
  double gap_sum = 0, pivots = 0, refactorizations = 0, work_units = 0;
  double formulate_seconds = 0, retries = 0;
};

/// One map request carried through every layer in-process under spans:
/// service parse, design parse, fingerprint, cost table, formulate+solve,
/// detailed, validate, serialize.  `error` is "" for a checked answer.
struct TracedAnswer {
  std::string error;
  double objective = 0.0;
  bool proved = false;
};
TracedAnswer trace_request(Trace& trace, LayerSums& sums, std::int64_t id,
                           const gmm::arch::Board& board,
                           const std::string& request_line, bool complete,
                           const gmm::ilp::MipOptions& mip);

/// Fill the ilp/lp/mapping/design/service-parse layers from a trace.
void fill_layers(const Trace& trace, const LayerSums& sums, Layers& layers);

/// The wire request a client sends for `design_text`.
std::string map_request_line(const std::string& id,
                             const std::string& design_text,
                             const std::string& board_name, bool complete,
                             std::int64_t max_nodes, double deadline_ms,
                             bool no_cache = false);

/// table3_global (complete = false) and table3_complete (complete = true).
Result run_table3(const Options& options, bool complete, Header& header);

/// serve_mix: open-loop cold/hit/near-miss traffic against mapper_serve.
Result run_serve_mix(const Options& options, Header& header);

}  // namespace perfbench
