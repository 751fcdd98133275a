// perfbench: the repository benchmark's workloads and result line.
//
//   perfbench --workload table3_global|table3_complete|serve_mix
//             --seed N --seconds S --trace 0|1
//             --server PATH --out DIR --commit ID
//
// Prints a human-readable header and metric table, then as its last line
// one JSON object {"correct", "attempted", "failed", "metrics"}.  With
// --trace 0 the metrics are the end-to-end set, with --trace 1 the
// per-layer set of a traced run.  Exit code 0 only for a checked run.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "support/log.hpp"
#include "workloads.hpp"

namespace perfbench {

void add_end_to_end(Result& r, const EndToEnd& m, const HostSpeed& speed) {
  // Timings scaled to the reference host; the measured ones go in the notes.
  const double k = speed.scale();
  const auto timing = [&](const char* name, double measured,
                          const char* unit) {
    r.add(name, measured * k, unit);
    r.note(std::string("measured.") + name, std::to_string(measured));
  };
  r.note("host.probe_p10_ms",
         std::to_string(speed.probe_p10_ms()) + " (n=" +
             std::to_string(speed.samples()) + ", reference " +
             std::to_string(HostSpeed::kReferenceMs) + ")");
  timing("setup_s", m.setup_s, "s");
  timing("solve_s", m.solve_s, "s");
  timing("solve_p50_ms", m.solve_p50_ms.value, "ms");
  r.add("proved_share", m.proved_share, "share");
  r.add("peak_rss_mb", m.peak_rss_mb, "MiB");
  timing("hit_p50_ms", m.hit_p50_ms.value, "ms");
  timing("near_p50_ms", m.near_p50_ms.value, "ms");
}

void add_layers(Result& r, const Layers& m) {
  r.add("ilp.nodes", m.ilp_nodes, "count");
  r.add("ilp.us_per_node", m.ilp_us_per_node, "us");
  r.add("ilp.cuts", m.ilp_cuts, "count");
  r.add("ilp.rc_fixed", m.ilp_rc_fixed, "count");
  r.add("ilp.basis_hit_rate", m.ilp_basis_hit_rate, "share");
  r.add("ilp.pivots_per_pop", m.ilp_pivots_per_pop, "count");
  r.add("ilp.gap_at_stop", m.ilp_gap_at_stop, "share");
  r.add("lp.pivots", m.lp_pivots, "count");
  r.add("lp.us_per_pivot", m.lp_us_per_pivot, "us");
  r.add("lp.pivots_per_node", m.lp_pivots_per_node, "count");
  r.add("lp.refactorizations", m.lp_refactorizations, "count");
  r.add("lp.work_units", m.lp_work_units, "count");
  r.add("mapping.cost_table_us", m.mapping_cost_table_us, "us");
  r.add("mapping.formulate_us", m.mapping_formulate_us, "us");
  r.add("mapping.detailed_us", m.mapping_detailed_us, "us");
  r.add("mapping.validate_us", m.mapping_validate_us, "us");
  r.add("mapping.retries", m.mapping_retries, "count");
  r.add("mapping.remap_ms", m.mapping_remap_ms, "ms");
  r.add("design.parse_us", m.design_parse_us, "us");
  r.add("service.parse_us", m.service_parse_us, "us");
  r.add("service.fingerprint_us", m.service_fingerprint_us, "us");
  r.add("service.serialize_us", m.service_serialize_us, "us");
  r.add("service.cache_hit_ratio", m.service_cache_hit_ratio, "share");
  r.add("service.cache_evictions", m.service_cache_evictions, "count");
  r.add("service.near_misses", m.service_near_misses, "count");
  r.add("service.outside_ms_p50", m.service_outside_ms_p50, "ms");
  r.add("service.outside_ms_p99", m.service_outside_ms_p99, "ms");
  r.add("service.cpu_ms_per_request", m.service_cpu_ms_per_request, "ms");
  r.add("bench.sender_lag_ms_p99", m.bench_sender_lag_ms_p99, "ms");
  r.add("bench.tracing_overhead", m.bench_tracing_overhead, "share");
  r.add("solve_p90_ms", m.tails.solve_p90_ms.value, "ms");
  r.add("near_p90_ms", m.tails.near_p90_ms.value, "ms");
  r.add("max_rate_rps", m.tails.max_rate_rps, "1/s");
  r.add("client.p99_ms", m.client.p99_ms.value, "ms");
  r.add("client.cold_p50_ms", m.client.cold_p50_ms.value, "ms");
  r.add("client.cold_p90_ms", m.client.cold_p90_ms.value, "ms");
  r.add("client.hit_p50_ms", m.client.hit_p50_ms.value, "ms");
  r.add("client.hit_p99_ms", m.client.hit_p99_ms.value, "ms");
  r.add("client.near_p50_ms", m.client.near_p50_ms.value, "ms");
  r.add("client.near_p90_ms", m.client.near_p90_ms.value, "ms");
}

}  // namespace perfbench

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload NAME --seed N --seconds S --trace 0|1 "
               "[--server PATH] [--out DIR] [--commit ID]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      options.workload = value;
    } else if (key == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      options.seconds = std::strtod(value, nullptr);
    } else if (key == "--trace") {
      trace = std::atoi(value);
    } else if (key == "--server") {
      options.server = value;
    } else if (key == "--out") {
      options.out_dir = value;
    } else if (key == "--commit") {
      options.commit = value;
    } else {
      return usage(argv[0]);
    }
  }
  if (argc % 2 == 0 || options.workload.empty() || options.seconds <= 0 ||
      (trace != 0 && trace != 1)) {
    return usage(argv[0]);
  }
  options.trace = trace == 1;
  if (options.out_dir.empty()) options.out_dir = ".";
  std::filesystem::create_directories(options.out_dir);
  // Solver and server chatter would interleave with the result table.
  gmm::support::set_log_level(gmm::support::LogLevel::kWarn);

  perfbench::Header header;
  header.workload = options.workload;
  header.seed = options.seed;
  header.commit = options.commit;
  perfbench::Result result;
  if (options.workload == "table3_global") {
    result = perfbench::run_table3(options, false, header);
  } else if (options.workload == "table3_complete") {
    result = perfbench::run_table3(options, true, header);
  } else if (options.workload == "serve_mix") {
    result = perfbench::run_serve_mix(options, header);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", options.workload.c_str());
    return 2;
  }
  header.extra["trace"] = options.trace ? "1" : "0";
  perfbench::emit(header, result,
                  options.out_dir + "/result-" + options.workload + "-" +
                      std::to_string(options.seed) +
                      (options.trace ? "-trace" : "") + ".json");
  return result.correct && result.attempted > 0 ? 0 : 1;
}
