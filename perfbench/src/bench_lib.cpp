#include "bench_lib.hpp"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#include "mapping/validate.hpp"
#include "service/json.hpp"
#include "support/rng.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

using gmm::service::Json;
using gmm::service::JsonObject;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

std::uint64_t mix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

Percentile percentile(std::vector<double> values, double q) {
  Percentile p;
  p.samples = values.size();
  if (values.empty()) return p;
  std::sort(values.begin(), values.end());
  const double n = static_cast<double>(values.size());
  auto rank = static_cast<std::size_t>(std::ceil(q * n - 1e-9));
  rank = std::clamp<std::size_t>(rank, 1, values.size());
  p.value = values[rank - 1];
  p.beyond = values.size() - rank;
  return p;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : 0.5 * (values[mid - 1] + values[mid]);
}

const char* to_string(RequestClass c) {
  switch (c) {
    case RequestClass::kHit:
      return "hit";
    case RequestClass::kNear:
      return "near";
    case RequestClass::kCold:
      return "cold";
  }
  return "?";
}

std::vector<Arrival> open_loop_schedule(std::uint64_t seed, double rate_rps,
                                        double duration_s, double hit_share,
                                        double near_share) {
  std::vector<Arrival> schedule;
  if (rate_rps <= 0.0 || duration_s <= 0.0) return schedule;
  gmm::support::Rng rng(seed);
  double t = 0.0;
  for (;;) {
    // Exponential inter-arrival gap by inversion; 1 - u keeps log finite.
    t += -std::log(1.0 - rng.uniform_real()) / rate_rps;
    if (t >= duration_s) break;
    const double u = rng.uniform_real();
    const RequestClass cls = u < hit_share                ? RequestClass::kHit
                             : u < hit_share + near_share ? RequestClass::kNear
                                                          : RequestClass::kCold;
    schedule.push_back({t, cls});
  }
  return schedule;
}

namespace {

std::optional<gmm::mapping::FragmentKind> parse_kind(const std::string& s) {
  using gmm::mapping::FragmentKind;
  for (const FragmentKind k :
       {FragmentKind::kFull, FragmentKind::kWidthColumn,
        FragmentKind::kDepthRow, FragmentKind::kCorner}) {
    if (s == gmm::mapping::to_string(k)) return k;
  }
  return std::nullopt;
}

}  // namespace

std::vector<gmm::service::PlacementEntry> to_wire(
    const gmm::design::Design& design, const gmm::arch::Board& board,
    const gmm::mapping::DetailedMapping& detailed) {
  std::vector<gmm::service::PlacementEntry> wire;
  for (const gmm::mapping::PlacedFragment& f : detailed.fragments) {
    const gmm::arch::BankType& type = board.type(f.type);
    gmm::service::PlacementEntry e;
    e.segment = design.at(f.ds).name;
    e.type = type.name;
    e.instance = f.instance;
    e.first_port = f.first_port;
    e.ports = f.ports;
    if (f.config_index >= 0) {
      e.config =
          type.configs[static_cast<std::size_t>(f.config_index)].to_string();
    }
    e.offset_bits = f.offset_bits;
    e.block_bits = f.block_bits;
    e.kind = gmm::mapping::to_string(f.kind);
    wire.push_back(std::move(e));
  }
  return wire;
}

std::string decode_placements(
    const gmm::design::Design& design, const gmm::arch::Board& board,
    const gmm::mapping::CostTable& table,
    const std::vector<gmm::service::PlacementEntry>& placements,
    gmm::mapping::GlobalAssignment& assignment,
    gmm::mapping::DetailedMapping& detailed) {
  std::map<std::string, std::size_t> ds_index;
  for (std::size_t d = 0; d < design.size(); ++d) {
    ds_index.emplace(design.at(d).name, d);
  }
  std::map<std::string, std::size_t> type_index;
  for (std::size_t t = 0; t < board.num_types(); ++t) {
    type_index.emplace(board.type(t).name, t);
  }
  assignment = {};
  assignment.type_of.assign(design.size(), -1);
  detailed = {};
  for (const gmm::service::PlacementEntry& p : placements) {
    const auto ds = ds_index.find(p.segment);
    if (ds == ds_index.end()) return "unknown segment '" + p.segment + "'";
    const auto type = type_index.find(p.type);
    if (type == type_index.end()) return "unknown bank type '" + p.type + "'";
    const std::size_t d = ds->second;
    const std::size_t t = type->second;
    if (assignment.type_of[d] >= 0 &&
        assignment.type_of[d] != static_cast<int>(t)) {
      return p.segment + " placed on two bank types";
    }
    assignment.type_of[d] = static_cast<int>(t);
    const auto kind = parse_kind(p.kind);
    if (!kind.has_value()) return "unknown fragment kind '" + p.kind + "'";
    const gmm::arch::BankType& bank = board.type(t);
    int config = -1;
    for (std::size_t c = 0; c < bank.configs.size(); ++c) {
      if (bank.configs[c].to_string() == p.config) {
        config = static_cast<int>(c);
        break;
      }
    }
    if (config < 0) return p.segment + ": unknown configuration " + p.config;
    if (!table.feasible(d, t)) return p.segment + ": infeasible bank type";
    const gmm::mapping::FragmentGroup* group = nullptr;
    for (const gmm::mapping::FragmentGroup& g : table.plan(d, t).groups) {
      if (g.kind == *kind && g.config_index == config) {
        group = &g;
        break;
      }
    }
    if (group == nullptr) {
      return p.segment + ": fragment matches no group of its plan";
    }
    gmm::mapping::PlacedFragment f;
    f.ds = d;
    f.type = t;
    f.instance = p.instance;
    f.config_index = config;
    f.kind = *kind;
    f.ports = p.ports;
    f.first_port = p.first_port;
    f.offset_bits = p.offset_bits;
    f.block_bits = p.block_bits;
    f.words_covered = group->words_covered;
    f.bits_covered = group->bits_covered;
    detailed.fragments.push_back(f);
  }
  detailed.success = true;
  return "";
}

std::string check_answer(const gmm::design::Design& design,
                         const gmm::arch::Board& board,
                         const gmm::mapping::CostTable& table,
                         const gmm::mapping::GlobalAssignment& assignment,
                         const gmm::mapping::DetailedMapping& detailed,
                         double objective) {
  if (assignment.type_of.size() != design.size() || !assignment.complete()) {
    return "incomplete assignment";
  }
  const std::vector<std::string> violations =
      gmm::mapping::validate_mapping(design, board, assignment, detailed);
  if (!violations.empty()) return "illegal mapping: " + violations.front();
  const double recomputed = table.assignment_objective(assignment.type_of);
  if (std::abs(recomputed - objective) >
      1e-6 * std::max(1.0, std::abs(objective))) {
    std::ostringstream out;
    out << "objective " << objective << " but the mapping costs "
        << recomputed;
    return out.str();
  }
  return "";
}

double paper_reference_objective(int point) {
  static constexpr double kReference[] = {148260,  358955, 432491,
                                          415198,  389128, 470167,
                                          464466,  1118952, 1535541};
  return point >= 1 && point <= 9 ? kReference[point - 1] : 0.0;
}

bool within_gap(double a, double b, double gap) {
  return std::abs(a - b) <= gap * std::max(std::abs(a), std::abs(b)) + 1e-6;
}

std::vector<std::size_t> mutate_traffic(const gmm::design::Design& design,
                                        std::uint64_t seed, int changed,
                                        gmm::design::Design& out) {
  gmm::support::Rng rng(seed);
  std::vector<std::size_t> picked;
  const std::size_t n = design.size();
  while (picked.size() < std::min<std::size_t>(changed, n)) {
    const std::size_t d = rng.next_u64() % n;
    if (std::find(picked.begin(), picked.end(), d) == picked.end()) {
      picked.push_back(d);
    }
  }
  out = gmm::design::Design(design.name());
  std::vector<std::size_t> unchanged;
  for (std::size_t d = 0; d < n; ++d) {
    gmm::design::DataStructure ds = design.at(d);
    if (std::find(picked.begin(), picked.end(), d) != picked.end()) {
      // 2x..5x the reads, 1x..3x the writes: always a real change.
      ds.reads = ds.effective_reads() *
                 static_cast<std::int64_t>(2 + rng.next_u64() % 4);
      ds.writes = ds.effective_writes() *
                  static_cast<std::int64_t>(1 + rng.next_u64() % 3) + 1;
    } else {
      unchanged.push_back(d);
    }
    out.add(std::move(ds));
  }
  // Design::add_conflict scans the pair list, so an all-conflicting design
  // takes the bulk path.
  if (design.num_conflicts() == n * (n - 1) / 2) {
    out.set_all_conflicting();
  } else {
    for (const auto& [a, b] : design.conflict_pairs()) out.add_conflict(a, b);
  }
  return unchanged;
}

int Trace::begin(const char* name, std::int64_t request) {
  if (!enabled_) return -1;
  Span span;
  span.name = name;
  span.request = request;
  span.parent = open_.empty() ? -1 : open_.back();
  span.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      Clock::now() - origin_)
                      .count();
  spans_.push_back(span);
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void Trace::end(int span) {
  if (!enabled_ || span < 0) return;
  spans_[static_cast<std::size_t>(span)].end_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           origin_)
          .count();
  if (!open_.empty() && open_.back() == span) open_.pop_back();
}

void Trace::count(const std::string& name, double value) {
  if (enabled_) counts_[name] += value;
}

std::map<std::string, std::pair<double, std::int64_t>> Trace::totals() const {
  std::map<std::string, std::pair<double, std::int64_t>> out;
  for (const Span& s : spans_) {
    auto& [seconds, calls] = out[s.name];
    seconds += static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
    ++calls;
  }
  return out;
}

std::map<std::string, double> Trace::self_seconds() const {
  std::vector<double> child(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child[static_cast<std::size_t>(s.parent)] +=
          static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
    }
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    out[spans_[i].name] +=
        static_cast<double>(spans_[i].end_ns - spans_[i].start_ns) * 1e-9 -
        child[i];
  }
  return out;
}

bool Trace::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  for (const Span& s : spans_) {
    JsonObject o;
    o["span"] = std::string(s.name);
    o["request"] = s.request;
    o["parent"] = s.parent;
    o["start_ns"] = s.start_ns;
    o["end_ns"] = s.end_ns;
    out << Json(std::move(o)).dump() << "\n";
  }
  for (const auto& [name, value] : counts_) {
    JsonObject o;
    o["count"] = name;
    o["value"] = value;
    out << Json(std::move(o)).dump() << "\n";
  }
  for (const auto& [name, seconds] : self_seconds()) {
    JsonObject o;
    o["self"] = name;
    o["seconds"] = seconds;
    out << Json(std::move(o)).dump() << "\n";
  }
  return static_cast<bool>(out);
}

namespace {

std::string proc_path(long pid, const char* file) {
  return "/proc/" + (pid > 0 ? std::to_string(pid) : std::string("self")) +
         "/" + file;
}

double status_kb(long pid, const std::string& key) {
  std::ifstream in(proc_path(pid, "status"));
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key + ":", 0) == 0) {
      return std::strtod(line.c_str() + key.size() + 1, nullptr);
    }
  }
  return 0.0;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

}  // namespace

double peak_rss_mb(long pid) { return status_kb(pid, "VmHWM") / 1024.0; }

double cpu_seconds(long pid) {
  std::ifstream in(proc_path(pid, "stat"));
  std::string content;
  std::getline(in, content);
  // Fields after the parenthesized command name; utime and stime are the
  // 14th and 15th fields of the whole line.
  const std::size_t close = content.rfind(')');
  if (close == std::string::npos) return 0.0;
  std::istringstream fields(content.substr(close + 2));
  std::string field;
  double utime = 0.0, stime = 0.0;
  for (int i = 3; i <= 15 && fields >> field; ++i) {
    if (i == 14) utime = std::strtod(field.c_str(), nullptr);
    if (i == 15) stime = std::strtod(field.c_str(), nullptr);
  }
  return (utime + stime) / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

double probe_ms() {
  // Row operations on a small dense tableau, as a simplex pivot does them;
  // 96 x 256 doubles stay in the L2 cache.
  constexpr int kRows = 96, kCols = 256;
  thread_local std::vector<double> t(kRows * kCols);
  for (int i = 0; i < kRows * kCols; ++i) t[i] = 1.0 + (i % 97) * 1e-3;
  const Clock::time_point start = Clock::now();
  for (int p = 0; p < kRows; ++p) {
    const double* pivot = &t[static_cast<std::size_t>(p) * kCols];
    for (int r = 0; r < kRows; ++r) {
      if (r == p) continue;
      double* row = &t[static_cast<std::size_t>(r) * kCols];
      const double f = row[p] / pivot[p] * 1e-3;
      for (int c = 0; c < kCols; ++c) row[c] -= f * pivot[c];
    }
  }
  const double ms = seconds_since(start) * 1e3;
  static volatile double sink = 0.0;
  sink = sink + t[kCols + 1];
  return ms;
}

double HostSpeed::probe_p10_ms() const { return percentile(ms_, 0.10).value; }

double HostSpeed::scale() const {
  const double p10 = probe_p10_ms();
  return p10 > 0 ? kReferenceMs / p10 : 1.0;
}

int thread_count() {
  return static_cast<int>(status_kb(0, "Threads"));
}

std::string format_percentile(const Percentile& p) {
  char buffer[96];
  std::snprintf(buffer, sizeof buffer, "%.4f (n=%zu, %zu beyond)", p.value,
                p.samples, p.beyond);
  return buffer;
}

void emit(const Header& header, const Result& result,
          const std::string& out_path) {
  JsonObject head;
  head["workload"] = header.workload;
  head["seed"] = static_cast<std::int64_t>(header.seed);
  head["commit"] = header.commit;
  head["nproc"] = static_cast<std::int64_t>(std::thread::hardware_concurrency());
  head["cpu"] = cpu_model();
  head["compiler"] = std::string("g++ ") + __VERSION__;
  head["build_type"] = std::string(PERFBENCH_BUILD_TYPE);
  for (const auto& [key, value] : header.extra) head[key] = value;

  std::printf("# perfbench %s seed=%llu\n", header.workload.c_str(),
              static_cast<unsigned long long>(header.seed));
  for (const auto& [key, value] : head) {
    if (key == "workload" || key == "seed") continue;
    std::printf("#   %-20s %s\n", key.c_str(), value.dump().c_str());
  }
  for (const auto& [name, text] : result.notes) {
    std::printf("#   %-28s %s\n", name.c_str(), text.c_str());
  }
  std::printf("# %-30s %16s  %s\n", "metric", "value", "unit");
  JsonObject metrics;
  for (const auto& [name, metric] : result.metrics) {
    std::printf("# %-30s %16.6f  %s\n", name.c_str(), metric.value,
                metric.unit.c_str());
    JsonObject m;
    m["value"] = metric.value;
    m["unit"] = metric.unit;
    metrics[name] = std::move(m);
  }
  std::printf("# correct=%s attempted=%lld failed=%lld\n",
              result.correct ? "true" : "false",
              static_cast<long long>(result.attempted),
              static_cast<long long>(result.failed));

  JsonObject line;
  line["correct"] = result.correct;
  line["attempted"] = result.attempted;
  line["failed"] = result.failed;
  line["metrics"] = metrics;
  if (!out_path.empty()) {
    JsonObject record;
    record["header"] = head;
    record["result"] = line;
    JsonObject notes;
    for (const auto& [name, text] : result.notes) notes[name] = text;
    record["notes"] = std::move(notes);
    std::ofstream out(out_path);
    out << Json(std::move(record)).dump() << "\n";
  }
  std::printf("%s\n", Json(std::move(line)).dump().c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
