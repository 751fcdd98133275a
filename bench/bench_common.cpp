#include "bench_common.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "mapping/complete_mapper.hpp"
#include "mapping/pipeline.hpp"
#include "support/string_util.hpp"
#include "support/timer.hpp"

namespace gmm::bench {

namespace {

constexpr const char* kCachePath = "gmm_table3_results.csv";

double env_double(const char* name, double fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr) return fallback;
  double parsed = 0.0;
  return support::parse_double(value, parsed) ? parsed : fallback;
}

std::int64_t env_int(const char* name, std::int64_t fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr) return fallback;
  std::int64_t parsed = 0;
  return support::parse_int(value, parsed) ? parsed : fallback;
}

}  // namespace

double env_time_limit() { return env_double("GMM_BENCH_TIME_LIMIT", 120.0); }

std::uint64_t env_seed() {
  return static_cast<std::uint64_t>(env_int("GMM_BENCH_SEED", 2001));
}

int env_max_point() {
  return static_cast<int>(env_int("GMM_BENCH_MAX_POINT", 9));
}

std::string fmt_seconds(double seconds) {
  return support::format_fixed(seconds, seconds < 10 ? 2 : 1);
}

std::vector<int> env_thread_sweep() {
  const char* value = std::getenv("GMM_BENCH_THREADS");
  const std::string text = value != nullptr ? value : "1,2,4,8";
  std::vector<int> sweep;
  for (const std::string& part : support::split(text, ',')) {
    std::int64_t threads = 0;
    if (support::parse_int(part, threads) && threads >= 1 && threads <= 256) {
      sweep.push_back(static_cast<int>(threads));
    }
  }
  if (sweep.empty()) sweep = {1, 2, 4, 8};
  return sweep;
}

// ---- machine-readable benchmark output -----------------------------------

namespace {

std::string json_escape(const std::string& text) {
  std::string out;
  out.reserve(text.size() + 2);
  for (const char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string json_double(double value) {
  if (std::isnan(value)) return "null";
  if (std::isinf(value)) return value > 0 ? "1e308" : "-1e308";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.10g", value);
  return buf;
}

}  // namespace

JsonField jnum(const std::string& key, double value) {
  return {key, json_double(value)};
}

JsonField jint(const std::string& key, std::int64_t value) {
  return {key, std::to_string(value)};
}

JsonField jstr(const std::string& key, const std::string& value) {
  return {key, "\"" + json_escape(value) + "\""};
}

JsonField jbool(const std::string& key, bool value) {
  return {key, value ? "true" : "false"};
}

BenchJson::BenchJson(const std::string& bench) : bench_(bench) {
  const char* dir = std::getenv("GMM_BENCH_JSON_DIR");
  path_ = (dir != nullptr && dir[0] != '\0' ? std::string(dir) + "/"
                                            : std::string()) +
          "BENCH_" + bench + ".json";
  out_.open(path_, std::ios::trunc);
  if (!out_) {
    std::fprintf(stderr, "[bench] cannot open %s for JSON output\n",
                 path_.c_str());
  }
}

void BenchJson::write(const std::string& record,
                      const std::vector<JsonField>& fields) {
  if (!out_) return;
  out_ << "{\"bench\":\"" << json_escape(bench_) << "\",\"record\":\""
       << json_escape(record) << "\"";
  for (const JsonField& f : fields) {
    out_ << ",\"" << json_escape(f.key) << "\":" << f.rendered;
  }
  out_ << "}\n";
  out_.flush();
}

void run_thread_sweep(BenchJson& json, const std::string& record,
                      const std::vector<JsonField>& extra_fields,
                      const std::function<SweepOutcome(int)>& solve) {
  const std::vector<int> counts = env_thread_sweep();
  // Measure everything first so the speedup baseline does not depend on
  // the sweep's order (GMM_BENCH_THREADS may put 1 anywhere, or skip it).
  std::vector<SweepOutcome> outcomes;
  outcomes.reserve(counts.size());
  for (const int threads : counts) outcomes.push_back(solve(threads));
  double baseline = outcomes.front().seconds;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] == 1) {
      baseline = outcomes[i].seconds;
      break;
    }
  }

  std::printf("%8s %10s %10s %12s %14s %12s %9s %11s\n", "threads",
              "seconds", "speedup", "B&B nodes", "LP iterations",
              "objective", "hit rate", "pivots/pop");
  for (std::size_t i = 0; i < counts.size(); ++i) {
    const SweepOutcome& o = outcomes[i];
    const double speedup = o.seconds > 0 ? baseline / o.seconds : 0.0;
    std::printf("%8d %10.3f %9.2fx %12lld %14lld %12.0f %8.0f%% %11.1f\n",
                counts[i], o.seconds, speedup,
                static_cast<long long>(o.nodes),
                static_cast<long long>(o.lp_iterations), o.objective,
                100.0 * o.basis.hit_rate(), o.basis.pivots_per_pop());
    std::vector<JsonField> fields = extra_fields;
    fields.push_back(jint("threads", counts[i]));
    fields.push_back(jnum("seconds", o.seconds));
    fields.push_back(jnum("speedup", speedup));
    fields.push_back(jint("nodes", o.nodes));
    fields.push_back(jint("lp_iterations", o.lp_iterations));
    fields.push_back(jnum("objective", o.objective));
    fields.push_back(jstr("status", o.status));
    for (JsonField& field : basis_fields(o.basis)) {
      fields.push_back(std::move(field));
    }
    json.write(record, fields);
  }
  std::printf("(JSON mirror: %s)\n", json.path().c_str());
}

std::vector<JsonField> basis_fields(const lp::BasisCacheStats& basis) {
  return {jint("bases_stored", basis.stored),
          jint("bases_loaded", basis.loaded),
          jint("bases_evicted", basis.evicted),
          jint("cold_pops", basis.cold_pops),
          jint("warm_pop_pivots", basis.warm_pop_pivots),
          jint("cold_pop_pivots", basis.cold_pop_pivots),
          jnum("basis_hit_rate", basis.hit_rate()),
          jnum("pivots_per_pop", basis.pivots_per_pop())};
}

void run_basis_warm_cold_ab(
    BenchJson& json, const std::string& record,
    const std::vector<JsonField>& extra_fields,
    const std::function<SweepOutcome(std::size_t max_stored_bases)>& solve) {
  std::printf("%8s %10s %12s %10s %10s %11s %12s\n", "cache", "seconds",
              "B&B nodes", "warm pops", "cold pops", "pivots/pop",
              "objective");
  for (const bool warm : {true, false}) {
    const SweepOutcome o = solve(warm ? std::size_t{4096} : std::size_t{0});
    std::printf("%8s %10.3f %12lld %10lld %10lld %11.1f %12.0f\n",
                warm ? "on" : "off", o.seconds,
                static_cast<long long>(o.nodes),
                static_cast<long long>(o.basis.loaded),
                static_cast<long long>(o.basis.cold_pops),
                o.basis.pivots_per_pop(), o.objective);
    std::vector<JsonField> fields = extra_fields;
    fields.push_back(jstr("basis_cache", warm ? "on" : "off"));
    fields.push_back(jnum("seconds", o.seconds));
    fields.push_back(jint("nodes", o.nodes));
    fields.push_back(jint("lp_iterations", o.lp_iterations));
    fields.push_back(jnum("objective", o.objective));
    fields.push_back(jstr("status", o.status));
    for (JsonField& field : basis_fields(o.basis)) {
      fields.push_back(std::move(field));
    }
    json.write(record, fields);
  }
}

namespace {

std::string cache_header() {
  std::ostringstream out;
  // v2: the parity column holds yes / NO / - (proved on both sides only).
  out << "# gmm table3 cache v2 seed=" << env_seed()
      << " limit=" << env_time_limit() << " points=" << env_max_point();
  return out.str();
}

std::optional<std::vector<Table3Row>> load_cache() {
  std::ifstream in(kCachePath);
  if (!in) return std::nullopt;
  std::string line;
  if (!std::getline(in, line) || line != cache_header()) return std::nullopt;
  if (!std::getline(in, line)) return std::nullopt;  // skip column header
  std::vector<Table3Row> rows;
  const auto& points = workload::table3_points();
  while (std::getline(in, line)) {
    const std::vector<std::string> f = support::split(line, ',');
    if (f.size() != 15) return std::nullopt;
    Table3Row row;
    std::int64_t index = 0;
    if (!support::parse_int(f[0], index) || index < 1 ||
        index > static_cast<std::int64_t>(points.size())) {
      return std::nullopt;
    }
    row.point = points[index - 1];
    if (!support::parse_double(f[4], row.complete_seconds)) return std::nullopt;
    row.complete_status = f[5];
    if (!support::parse_double(f[6], row.complete_gap)) return std::nullopt;
    if (!support::parse_double(f[7], row.global_seconds)) return std::nullopt;
    row.global_status = f[8];
    row.parity = f[9];
    support::parse_int(f[10], row.complete_vars);
    support::parse_int(f[11], row.global_vars);
    if (!support::parse_int(f[12], row.global_nodes) ||
        !support::parse_int(f[13], row.global_pivots) ||
        !support::parse_int(f[14], row.global_refactorizations)) {
      return std::nullopt;
    }
    rows.push_back(row);
  }
  return rows.empty() ? std::nullopt : std::make_optional(rows);
}

void store_cache(const std::vector<Table3Row>& rows) {
  std::ofstream out(kCachePath);
  out << cache_header() << "\n";
  out << "point,segments,banks_ports,configs,complete_s,complete_status,"
         "complete_gap,global_s,global_status,parity,complete_vars,"
         "global_vars,global_nodes,global_pivots,global_refactorizations\n";
  for (const Table3Row& row : rows) {
    out << row.point.index << "," << row.point.segments << ","
        << row.point.totals.banks << "/" << row.point.totals.ports << ","
        << row.point.totals.configs << "," << row.complete_seconds << ","
        << row.complete_status << "," << row.complete_gap << ","
        << row.global_seconds << "," << row.global_status << ","
        << row.parity << "," << row.complete_vars
        << "," << row.global_vars << "," << row.global_nodes << ","
        << row.global_pivots << "," << row.global_refactorizations << "\n";
  }
}

}  // namespace

std::vector<Table3Row> run_or_load_table3_sweep() {
  if (auto cached = load_cache()) {
    std::fprintf(stderr,
                 "[bench] reusing %s (same seed/limit/points)\n",
                 kCachePath);
    return *cached;
  }

  std::vector<Table3Row> rows;
  const int max_point = env_max_point();
  for (const workload::Table3Point& point : workload::table3_points()) {
    if (point.index > max_point) break;
    std::fprintf(stderr, "[bench] table3 point %d (%lld segments)...\n",
                 point.index, static_cast<long long>(point.segments));
    const workload::Table3Instance instance =
        workload::build_instance(point, env_seed());

    Table3Row row;
    row.point = point;

    // Global/detailed pipeline (includes pre-processing, as the paper's
    // timing does).
    support::WallTimer timer;
    mapping::PipelineOptions pipeline_options;
    pipeline_options.global.mip.time_limit_seconds = env_time_limit();
    const mapping::PipelineResult pipeline =
        mapping::map_pipeline(instance.design, instance.board,
                              pipeline_options);
    row.global_seconds = timer.seconds();
    row.global_status = lp::to_string(pipeline.status);
    row.global_vars = pipeline.model_size.variables;
    row.global_rows = pipeline.model_size.rows;
    row.global_nodes = pipeline.effort.bnb_nodes;
    row.global_pivots = pipeline.effort.lp_iterations;
    row.global_refactorizations = pipeline.effort.lp_refactorizations;

    // Complete (flat) approach, same cost table.
    timer.reset();
    const mapping::CostTable table(instance.design, instance.board);
    mapping::CompleteOptions complete_options;
    complete_options.mip.time_limit_seconds = env_time_limit();
    const mapping::CompleteResult complete = mapping::map_complete(
        instance.design, instance.board, table, complete_options);
    row.complete_seconds = timer.seconds();
    row.complete_status = lp::to_string(complete.status);
    row.complete_gap = complete.mip.has_incumbent() ? complete.mip.gap() : -1;
    row.complete_vars = complete.model_size.variables;
    row.complete_rows = complete.model_size.rows;

    // Parity is claimed only between two proofs.  Both solvers run at the
    // CPLEX-like 1e-4 relative gap, so it holds up to twice that.
    if (pipeline.status == lp::SolveStatus::kOptimal &&
        complete.status == lp::SolveStatus::kOptimal) {
      row.parity =
          std::abs(pipeline.assignment.objective - complete.mip.objective) <=
                  2e-4 * std::max(1.0, pipeline.assignment.objective)
              ? "yes"
              : "NO";
    }
    rows.push_back(row);
  }
  store_cache(rows);
  return rows;
}

}  // namespace gmm::bench
