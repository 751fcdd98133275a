// Shared infrastructure for the bench binaries: environment knobs, the
// Table-3 sweep (shared between the Table-3 and Figure-4 benches via a
// CSV cache), and small formatting helpers.
#pragma once

#include <cstdint>
#include <fstream>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "lp/basis.hpp"
#include "workload/table3_suite.hpp"

namespace gmm::bench {

/// Environment knobs (all optional):
///   GMM_BENCH_TIME_LIMIT  seconds per complete-approach solve (default 120)
///   GMM_BENCH_SEED        workload seed (default 2001)
///   GMM_BENCH_MAX_POINT   run Table-3 points 1..N only (default 9)
double env_time_limit();
std::uint64_t env_seed();
int env_max_point();

/// One measured Table-3 row.
struct Table3Row {
  workload::Table3Point point;
  double complete_seconds = 0.0;
  std::string complete_status;
  double complete_gap = 0.0;   // relative gap when not proven optimal
  double global_seconds = 0.0;
  std::string global_status;
  // Effort of the global solve (cumulative over pipeline retries): B&B
  // nodes, dual simplex pivots and LP basis refactorizations.
  std::int64_t global_nodes = 0;
  std::int64_t global_pivots = 0;
  std::int64_t global_refactorizations = 0;
  /// Quality parity on this point: "yes" or "NO" when both formulations
  /// proved their optimum, "-" when either did not.
  std::string parity = "-";
  std::int64_t complete_vars = 0, complete_rows = 0;
  std::int64_t global_vars = 0, global_rows = 0;
};

/// Run (or reuse) the Table-3 sweep.  Results are cached in
/// `gmm_table3_results.csv` in the working directory; a cache produced
/// with the same seed/limit/point-count is reused so the Figure-4 bench
/// does not re-pay the complete-approach solves.
std::vector<Table3Row> run_or_load_table3_sweep();

/// Format seconds with one decimal, like the paper's tables.
std::string fmt_seconds(double seconds);

/// Solver thread counts to sweep, from GMM_BENCH_THREADS (comma-separated,
/// default "1,2,4,8").
std::vector<int> env_thread_sweep();

/// One measurement of a thread-sweep solve.
struct SweepOutcome {
  double seconds = 0.0;
  std::int64_t nodes = 0;
  std::int64_t lp_iterations = 0;
  double objective = 0.0;
  std::string status;
  /// Basis warm-start cache counters of the solve (MipResult::basis);
  /// the sweep reports the hit rate and the warm/cold pivots-per-pop
  /// split so BENCH_*.json captures the pivots-per-node trajectory.
  lp::BasisCacheStats basis;
};

// ---- machine-readable benchmark output -----------------------------------
//
// Every bench binary mirrors its headline numbers into
// BENCH_<bench>.json — one JSON object per line, one line per benchmark
// record — so successive PRs can diff a perf trajectory without parsing
// the human tables.  $GMM_BENCH_JSON_DIR redirects the output directory
// (default: the working directory).

/// One pre-rendered key/value pair of a JSON record.
struct JsonField {
  std::string key;
  std::string rendered;  // value as a JSON literal
};

JsonField jnum(const std::string& key, double value);
JsonField jint(const std::string& key, std::int64_t value);
JsonField jstr(const std::string& key, const std::string& value);
JsonField jbool(const std::string& key, bool value);

/// Line-per-record JSON writer for one bench binary.  The file is
/// truncated on construction, so a bench run always leaves exactly its
/// own records behind.
class BenchJson {
 public:
  explicit BenchJson(const std::string& bench);
  BenchJson(const BenchJson&) = delete;
  BenchJson& operator=(const BenchJson&) = delete;

  /// Append {"bench":...,"record":...,<fields...>} as one line.
  void write(const std::string& record, const std::vector<JsonField>& fields);

  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string bench_;
  std::string path_;
  std::ofstream out_;
};

/// Run `solve(threads)` for every env_thread_sweep() count, print an
/// aligned table and mirror one JSON record per count (threads, seconds,
/// speedup, nodes, lp_iterations, objective, status + `extra_fields`).
/// The speedup baseline is the 1-thread entry wherever it appears in the
/// sweep, or the first entry when the sweep omits 1.
void run_thread_sweep(BenchJson& json, const std::string& record,
                      const std::vector<JsonField>& extra_fields,
                      const std::function<SweepOutcome(int threads)>& solve);

/// Render one outcome's basis-cache counters as JSON fields (hit rate,
/// stored/loaded/evicted, warm/cold pivots per pop).
std::vector<JsonField> basis_fields(const lp::BasisCacheStats& basis);

/// Warm-vs-cold A/B: run `solve(max_stored_bases)` once with the cache on
/// (4096) and once off (0), print the dual-pivots-per-pop comparison and
/// mirror one `record` JSON line per arm (field "basis_cache": "on"/"off").
/// The claim under measurement: heap pops that warm-start from their own
/// parent's basis pay fewer dual pivots than cold re-derivations.
void run_basis_warm_cold_ab(
    BenchJson& json, const std::string& record,
    const std::vector<JsonField>& extra_fields,
    const std::function<SweepOutcome(std::size_t max_stored_bases)>& solve);

}  // namespace gmm::bench
