// Shared pieces of the repository benchmark: percentiles with sample
// counts, the open-loop arrival schedule, the wire-placement decoder and
// answer checker, an in-memory span recorder, /proc probes, and the
// result line the runner prints last.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "arch/board.hpp"
#include "design/design.hpp"
#include "mapping/cost_model.hpp"
#include "mapping/types.hpp"
#include "service/protocol.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start);

/// splitmix64 finalizer: derives independent seeds from one.
std::uint64_t mix(std::uint64_t x);

// ---- percentiles -----------------------------------------------------------

/// One percentile with the sample count it was taken over and how many
/// samples lie strictly beyond its rank (the "at least ten beyond" rule).
struct Percentile {
  double value = 0.0;
  std::size_t samples = 0;
  std::size_t beyond = 0;
};

/// Nearest-rank percentile: the smallest sample with at least q * n
/// samples at or below it.  `q` in (0, 1]; an empty input gives value 0.
Percentile percentile(std::vector<double> values, double q);

/// Median of a non-empty set (mean of the middle pair for even sizes).
double median(std::vector<double> values);

// ---- open-loop schedule ----------------------------------------------------

enum class RequestClass : std::uint8_t { kHit, kNear, kCold };
const char* to_string(RequestClass c);

struct Arrival {
  double due_s = 0.0;  // seconds after the window start
  RequestClass cls = RequestClass::kHit;
};

/// Poisson arrivals at `rate_rps` over `duration_s`, each drawn into a
/// class with the given shares (hit, near; cold takes the rest).  The same
/// seed gives the same schedule.
std::vector<Arrival> open_loop_schedule(std::uint64_t seed, double rate_rps,
                                        double duration_s, double hit_share,
                                        double near_share);

// ---- answer checking -------------------------------------------------------

/// A mapping's fragments as the service puts them on the wire.
std::vector<gmm::service::PlacementEntry> to_wire(
    const gmm::design::Design& design, const gmm::arch::Board& board,
    const gmm::mapping::DetailedMapping& detailed);

/// Rebuild a response's wire placements into the mapper's own types.  The
/// covered words/bits per fragment, which the wire omits, come from the
/// structure's placement plan on its type.  Returns "" on success.
std::string decode_placements(const gmm::design::Design& design,
                              const gmm::arch::Board& board,
                              const gmm::mapping::CostTable& table,
                              const std::vector<gmm::service::PlacementEntry>&
                                  placements,
                              gmm::mapping::GlobalAssignment& assignment,
                              gmm::mapping::DetailedMapping& detailed);

/// validate_mapping plus an assignment_objective recompute that must match
/// `objective`.  Returns "" when the answer is legal and consistent.
std::string check_answer(const gmm::design::Design& design,
                         const gmm::arch::Board& board,
                         const gmm::mapping::CostTable& table,
                         const gmm::mapping::GlobalAssignment& assignment,
                         const gmm::mapping::DetailedMapping& detailed,
                         double objective);

/// Proved objectives of the paper instances (seed 2001), Table-3 points
/// 1-9, as recorded for this mapper.
double paper_reference_objective(int point);

/// True when `a` and `b` agree within the relative gap `gap`.
bool within_gap(double a, double b, double gap);

/// A traffic-only mutant: `changed` structures (chosen by `seed`) get
/// explicit read/write counts different from the originals, everything
/// else (shapes, conflicts) is kept.  Returns the indices of the
/// unchanged structures, the ones a near-miss remap pins.
std::vector<std::size_t> mutate_traffic(const gmm::design::Design& design,
                                        std::uint64_t seed, int changed,
                                        gmm::design::Design& out);

// ---- tracing ---------------------------------------------------------------

/// Spans and counts kept in memory and written out when the run ends.  A
/// disabled trace records nothing and costs one branch per call.
class Trace {
 public:
  struct Span {
    const char* name = "";
    std::int64_t request = -1;  // spans of one request share it
    int parent = -1;            // index of the enclosing span, -1 = none
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
  };

  explicit Trace(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  /// Open a span; returns its index (or -1 when disabled).
  int begin(const char* name, std::int64_t request);
  void end(int span);
  void count(const std::string& name, double value);

  /// Sum of span durations per name, in seconds, and how many spans.
  [[nodiscard]] std::map<std::string, std::pair<double, std::int64_t>>
  totals() const;
  /// Per name: span duration minus the time covered by its child spans.
  [[nodiscard]] std::map<std::string, double> self_seconds() const;

  /// One JSON object per line: spans, then the counts, then each span
  /// name's self time.
  bool write(const std::string& path) const;

 private:
  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;  // stack of open span indices
  std::map<std::string, double> counts_;
};

/// RAII span.
class Scope {
 public:
  Scope(Trace& trace, const char* name, std::int64_t request = -1)
      : trace_(trace), span_(trace.begin(name, request)) {}
  ~Scope() { trace_.end(span_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Trace& trace_;
  int span_;
};

// ---- process probes --------------------------------------------------------

/// VmHWM of a process in MiB (0 when unreadable); pid 0 = this process.
double peak_rss_mb(long pid = 0);
/// utime + stime of a process in seconds (0 when unreadable).
double cpu_seconds(long pid = 0);
/// Threads of this process right now.
int thread_count();
/// Wall time in ms of a fixed slice of arithmetic shaped like the solver's
/// inner loop (row operations on a small dense tableau in cache).
double probe_ms();

/// How fast the host ran over one run.  On a shared host the speed of a
/// whole 45 s run moves by 10-30% with the other tenants' load, and every
/// timing of the run moves with it; probe_ms() samples taken while the
/// benchmark would otherwise wait move the same way.  End-to-end timings
/// are reported scaled to a host on which the probe's 10th percentile
/// reads kReferenceMs.
class HostSpeed {
 public:
  static constexpr double kReferenceMs = 0.8;

  void sample() { ms_.push_back(probe_ms()); }
  [[nodiscard]] std::size_t samples() const { return ms_.size(); }
  [[nodiscard]] double probe_p10_ms() const;
  /// Factor that takes a wall time of this run to the reference host.
  [[nodiscard]] double scale() const;

 private:
  std::vector<double> ms_;
};

// ---- result ----------------------------------------------------------------

/// The header every result carries, so a comparison can refuse pairs run
/// on different machines, builds or inputs.
struct Header {
  std::string workload;
  std::uint64_t seed = 0;
  std::string commit;
  std::map<std::string, std::string> extra;  // budgets and caps
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

struct Result {
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::pair<std::string, Metric>> metrics;
  /// Sample counts and side numbers printed with the result, not in it.
  std::vector<std::pair<std::string, std::string>> notes;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.emplace_back(name, Metric{value, unit});
  }
  void note(const std::string& name, const std::string& text) {
    notes.emplace_back(name, text);
  }
};

/// Human-readable header and metric table on stdout, the header plus the
/// result as JSON into `out_path`, then the one-line result last.
void emit(const Header& header, const Result& result,
          const std::string& out_path);

std::string format_percentile(const Percentile& p);

}  // namespace perfbench
