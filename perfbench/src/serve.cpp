// serve_mix: open-loop traffic from independent CAD users against a real
// `mapper_serve --listen` over a Unix socket.
//
// Set-up spawns the server (2 workers, default cache) with the boards of
// Table-3 points 2-5 and 8, proves a small hot pool into its cache and
// checks that every hot design replays from it.  The measured part is a
// fixed-rate window (the latency metrics) and idle-server solve passes; a
// traced run also searches a rate ladder for the highest step that meets
// the latency limit (max_rate_rps).  Arrivals
// follow a seeded Poisson schedule; each request is timed from its due
// time, so a late sender or a stalled server counts against latency.
//   hit  ~60%  exact resubmissions of hot designs (cache replays)
//   near ~20%  traffic-only mutants of hot designs (remap from the cache)
//   cold ~20%  designs never seen before, at the points' segment counts
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <span>
#include <thread>

#include "arch/arch_io.hpp"
#include "design/design_io.hpp"
#include "mapping/pipeline.hpp"
#include "mapping/remap.hpp"
#include "service/json.hpp"
#include "service/process_client.hpp"
#include "support/rng.hpp"
#include "workload/table3_suite.hpp"
#include "workload/workload_gen.hpp"
#include "workloads.hpp"

extern char** environ;

namespace perfbench {

namespace {

using gmm::service::ProcessClient;
using gmm::service::Response;
using gmm::service::ResponseStatus;

constexpr int kWorkers = 2;
constexpr int kConnections = 2;     // load-generator cap
constexpr int kThreadCap = 4;       // load-generator cap (nproc here)
constexpr double kDeadlineMs = 2000.0;
constexpr std::int64_t kMaxNodes = 500;  // cold-solve node budget
constexpr int kPoints[] = {2, 3, 4, 5, 8};
constexpr int kHotPerPoint = 4;     // 20 hot designs, well under the cache
constexpr int kHotCandidates = 12;  // per point, all solved at set-up
constexpr double kHitShare = 0.6;
constexpr double kNearShare = 0.2;
constexpr int kNearChanged = 2;
constexpr double kMigrationPenalty = 1e-3;  // the service's default
constexpr int kSetupRepeats = 9;
// Latency metrics run at one fixed rate, about a fifth of the max_rate_rps
// measured when this benchmark was defined (~1150-1400 rps): at half of it
// the per-class tails were set by chance bursts of slow cold solves and
// spread by up to half their median from run to run.
constexpr double kNominalRate = 250.0;
// Admission bound: deep enough that the latency limit, not a full queue,
// decides where the rate ladder stops.
constexpr int kQueue = 4096;
// The rate ladder: kLadderBase * kLadderStep^k, steps 5% apart.
constexpr double kLadderBase = 300.0;
constexpr double kLadderStep = 1.05;
constexpr int kLadderSteps = 42;  // up to ~2300 rps
constexpr double kLatencyLimitMs = 500.0;
constexpr int kInProcessSample = 60;  // requests replayed in-process (trace)
// The fixed-rate window is cut into this many consecutive parts; each
// figure taken from it is the median of its per-part values, so one burst
// of slow cold solves moves one part, not the figure.
constexpr int kParts = 3;
// A host-speed probe takes about 1 ms; the sender only runs one when the
// next request is due later than this.
constexpr auto kProbeSlack = std::chrono::milliseconds(3);

/// The spawned server: pid (for /proc), stdout pipe (for the listening
/// event), shut down over the socket and reaped on destruction.
class Server {
 public:
  Server() = default;
  ~Server() { stop(); }
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  bool start(const std::string& exe, const std::vector<std::string>& args,
             const std::string& socket) {
    socket_ = socket;
    std::filesystem::remove(socket_);
    int fds[2];
    if (::pipe(fds) != 0) return false;
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_addopen(&actions, 0, "/dev/null", O_RDONLY, 0);
    posix_spawn_file_actions_adddup2(&actions, fds[1], 1);
    posix_spawn_file_actions_addclose(&actions, fds[0]);
    posix_spawn_file_actions_addclose(&actions, fds[1]);
    std::vector<std::string> storage{exe};
    storage.insert(storage.end(), args.begin(), args.end());
    std::vector<char*> argv;
    for (std::string& s : storage) argv.push_back(s.data());
    argv.push_back(nullptr);
    pid_t pid = -1;
    const int rc = posix_spawn(&pid, exe.c_str(), &actions, nullptr,
                               argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    ::close(fds[1]);
    if (rc != 0) {
      ::close(fds[0]);
      return false;
    }
    pid_ = pid;
    stdout_ = fds[0];
    // The server announces itself with one "listening" event line.
    std::string line;
    const Clock::time_point start = Clock::now();
    while (seconds_since(start) < 30.0) {
      pollfd p{stdout_, POLLIN, 0};
      if (::poll(&p, 1, 100) <= 0) continue;
      char c = 0;
      if (::read(stdout_, &c, 1) != 1) return false;
      if (c == '\n') return line.find("listening") != std::string::npos;
      line.push_back(c);
    }
    return false;
  }

  /// Graceful shutdown over the socket, then reap (SIGKILL after 30 s).
  /// Returns 0 for a clean exit.
  int stop() {
    if (pid_ <= 0) return 0;
    {
      ProcessClient closer;
      if (closer.connect(socket_, 2.0)) {
        closer.send_line(R"({"method":"shutdown"})");
        closer.read_line(10.0);
      }
    }
    int status = 0;
    const Clock::time_point start = Clock::now();
    for (;;) {
      const pid_t r = ::waitpid(static_cast<pid_t>(pid_), &status, WNOHANG);
      if (r == static_cast<pid_t>(pid_)) break;
      if (seconds_since(start) > 30.0) {
        ::kill(static_cast<pid_t>(pid_), SIGKILL);
        ::waitpid(static_cast<pid_t>(pid_), &status, 0);
        status = -1;
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    pid_ = -1;
    if (stdout_ >= 0) ::close(stdout_);
    stdout_ = -1;
    std::filesystem::remove(socket_);
    return status == 0 ? 0 : 1;
  }

  [[nodiscard]] long pid() const { return pid_; }

 private:
  long pid_ = -1;
  int stdout_ = -1;
  std::string socket_;
};

struct Point {
  int index = 0;
  std::int64_t segments = 0;
  const gmm::arch::Board* board = nullptr;
};

/// A design the load generator sends, with what is needed to check the
/// answer that comes back.
struct Sent {
  const Point* point = nullptr;
  gmm::design::Design design;
  std::string text;
  std::unique_ptr<gmm::mapping::CostTable> table;
  std::vector<std::size_t> pinned;  // near misses: unchanged structures
};

struct Hot {
  Sent d;
  double objective = 0.0;
  std::vector<int> type_of;  // the cached answer (near-miss prior)
};

/// A hot-pool candidate as the idle-server solve probes resend it: cache
/// bypassed, so the server solves it afresh each time.
struct Candidate {
  std::string line;
  double objective = -1.0;  // < 0: the set-up solve returned no mapping
};

/// One request of a window and what came back.
struct Sample {
  RequestClass cls = RequestClass::kHit;
  double due_s = 0.0;
  double sent_s = 0.0;
  double recv_s = -1.0;  // < 0: no response
  int conn = 0;
  std::string line;    // request
  std::string reply;   // response
  const Sent* design = nullptr;  // what the answer must map
  const Hot* hot = nullptr;      // hits and near misses: their hot design
};

struct Window {
  std::vector<Sample> samples;
  int max_threads = 0;
};

struct Checked {
  std::int64_t attempted = 0, failed = 0, wrong = 0, hot_missed = 0;
  std::int64_t cold_proved = 0, cold_ok = 0;
  std::int64_t unmapped = 0;  // cold, no mapping within the budget, verified
  std::vector<double> hit_ms, near_ms, cold_ms;  // latency by class
  std::vector<double> all_ms;
  std::vector<double> outside_ms;
  std::vector<double> lag_ms;
};

std::optional<Response> parse_response(const std::string& line) {
  const gmm::service::JsonParseResult parsed =
      gmm::service::parse_json(line);
  Response r;
  if (!parsed.ok || !Response::from_json(parsed.value, r)) return std::nullopt;
  return r;
}

/// Open-loop replay of `samples` over `conns`: the calling thread sends
/// each request at its due time; one reader thread per connection
/// timestamps the replies.  With `speed`, the sender samples it while the
/// next request is at least kProbeSlack away.
Window run_window(std::vector<Sample> samples,
                  std::vector<std::unique_ptr<ProcessClient>>& conns,
                  HostSpeed* speed = nullptr) {
  Window w;
  std::vector<std::int64_t> expected(conns.size(), 0);
  for (std::size_t i = 0; i < samples.size(); ++i) {
    samples[i].conn = static_cast<int>(i % conns.size());
    ++expected[static_cast<std::size_t>(samples[i].conn)];
  }
  std::vector<std::vector<std::pair<double, std::string>>> got(conns.size());
  const Clock::time_point start = Clock::now();
  const double last_due = samples.empty() ? 0.0 : samples.back().due_s;
  std::vector<std::thread> readers;
  for (std::size_t c = 0; c < conns.size(); ++c) {
    // Readers only timestamp and stash lines; parsing waits until the end.
    readers.emplace_back([&, c] {
      for (std::int64_t left = expected[c]; left > 0; --left) {
        const double budget = std::max(0.0, last_due - seconds_since(start)) +
                              kDeadlineMs / 1e3 + 5.0;
        auto line = conns[c]->read_line(budget);
        if (!line.has_value()) return;
        got[c].emplace_back(seconds_since(start), std::move(*line));
      }
    });
  }
  for (std::size_t i = 0; i < samples.size(); ++i) {
    Sample& s = samples[i];
    const Clock::time_point due =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(s.due_s));
    if (speed != nullptr && due - Clock::now() > kProbeSlack) speed->sample();
    std::this_thread::sleep_until(due);
    s.sent_s = seconds_since(start);
    conns[static_cast<std::size_t>(s.conn)]->send_line(s.line);
    if (i % 64 == 0) w.max_threads = std::max(w.max_threads, thread_count());
  }
  for (std::thread& t : readers) t.join();
  for (auto& per_conn : got) {
    for (auto& [t, line] : per_conn) {
      const std::size_t at = line.find("\"id\":\"w");
      if (at == std::string::npos) continue;
      const std::size_t index =
          std::strtoull(line.c_str() + at + 7, nullptr, 10);
      if (index < samples.size() && samples[index].recv_s < 0) {
        samples[index].recv_s = t;
        samples[index].reply = std::move(line);
      }
    }
  }
  w.samples = std::move(samples);
  return w;
}

/// A cold design can exhaust its node budget before the search finds any
/// mapping; the server then answers "solver failed: node-limit".  That is
/// the request's contract, not a failure, when an in-process solve of the
/// same design under the same budget (deterministic at 1 thread) also
/// ends without a mapping.
bool unmapped_within_budget(const Sample& s, const Response& r) {
  if (s.cls != RequestClass::kCold || r.status != ResponseStatus::kError ||
      r.error != "solver failed: node-limit") {
    return false;
  }
  gmm::mapping::PipelineOptions options;
  options.global.mip.num_threads = 1;
  options.global.mip.node_limit = kMaxNodes;
  const gmm::mapping::PipelineResult again = gmm::mapping::map_pipeline(
      s.design->design, *s.design->point->board, options);
  return !again.detailed.success &&
         again.status == gmm::lp::SolveStatus::kNodeLimit;
}

/// Check every answer of some samples and collect latencies.  Failures
/// are lost responses, non-ok statuses and wrong answers.
Checked check_samples(std::span<const Sample> samples) {
  Checked c;
  for (const Sample& s : samples) {
    ++c.attempted;
    c.lag_ms.push_back((s.sent_s - s.due_s) * 1e3);
    if (s.recv_s < 0) {
      ++c.failed;
      continue;
    }
    const double latency_ms = (s.recv_s - s.due_s) * 1e3;
    const std::optional<Response> r = parse_response(s.reply);
    if (r.has_value() && unmapped_within_budget(s, *r)) {
      ++c.unmapped;
      c.cold_ms.push_back(latency_ms);
      c.all_ms.push_back(latency_ms);
      continue;
    }
    if (!r.has_value() || r->status != ResponseStatus::kOk ||
        !r->has_result) {
      if (++c.failed <= 3) {
        std::fprintf(stderr, "%s request not ok: %s\n", to_string(s.cls),
                     s.reply.substr(0, 300).c_str());
      }
      continue;
    }
    gmm::mapping::GlobalAssignment assignment;
    gmm::mapping::DetailedMapping detailed;
    const Sent& d = *s.design;
    std::string error =
        decode_placements(d.design, *d.point->board, *d.table, r->placements,
                          assignment, detailed);
    if (error.empty()) {
      error = check_answer(d.design, *d.point->board, *d.table, assignment,
                           detailed, r->objective);
    }
    if (error.empty() && s.cls == RequestClass::kHit) {
      if (!r->cached) {
        ++c.hot_missed;  // the hot entry was evicted: the run is invalid
        error = "hit not served from the cache";
      } else if (!within_gap(r->objective, s.hot->objective, 1e-9)) {
        error = "hit objective differs from the cold proof";
      }
    }
    if (!error.empty()) {
      ++c.failed;
      ++c.wrong;
      std::fprintf(stderr, "FAIL %s request: %s\n", to_string(s.cls),
                   error.c_str());
      continue;
    }
    (s.cls == RequestClass::kHit    ? c.hit_ms
     : s.cls == RequestClass::kNear ? c.near_ms
                                    : c.cold_ms)
        .push_back(latency_ms);
    c.all_ms.push_back(latency_ms);
    c.outside_ms.push_back(latency_ms - r->seconds * 1e3);
    if (s.cls == RequestClass::kCold) {
      ++c.cold_ok;
      if (r->solve_status == "optimal" && r->stop_reason.empty()) {
        ++c.cold_proved;
      }
    }
  }
  return c;
}

/// The window's samples in kParts consecutive slices of equal duration.
std::vector<std::span<const Sample>> parts_of(const Window& w,
                                              double duration_s) {
  std::vector<std::span<const Sample>> parts;
  std::span<const Sample> all(w.samples);
  std::size_t begin = 0;
  for (int k = 1; k <= kParts; ++k) {
    std::size_t end = begin;
    while (end < all.size() && all[end].due_s < duration_s * k / kParts) {
      ++end;
    }
    if (k == kParts) end = all.size();
    parts.push_back(all.subspan(begin, end - begin));
    begin = end;
  }
  return parts;
}

/// The median over parts of one per-part percentile; the sample counts
/// are the smallest part's.
Percentile median_of_parts(const std::vector<Checked>& parts,
                           const std::vector<double> Checked::*values,
                           double q) {
  std::vector<double> v;
  Percentile out;
  out.samples = out.beyond = SIZE_MAX;
  for (const Checked& c : parts) {
    const Percentile p = percentile(c.*values, q);
    v.push_back(p.value);
    out.samples = std::min(out.samples, p.samples);
    out.beyond = std::min(out.beyond, p.beyond);
  }
  out.value = median(v);
  return out;
}

/// Per hot design, the fastest server-reported time of its answered
/// requests of one class; the percentile is over the hot designs.  A hot
/// design is hit or remapped dozens of times over a window, and on a
/// shared host a request can only be slowed by other tenants.
Percentile fastest_per_hot(const Window& w, RequestClass cls, double q) {
  std::map<const Hot*, double> best;
  for (const Sample& s : w.samples) {
    if (s.cls != cls || s.recv_s < 0) continue;
    const std::optional<Response> r = parse_response(s.reply);
    if (!r.has_value() || r->status != ResponseStatus::kOk) continue;
    const double ms = r->seconds * 1e3;
    const auto [it, fresh] = best.emplace(s.hot, ms);
    if (!fresh) it->second = std::min(it->second, ms);
  }
  std::vector<double> values;
  for (const auto& [hot, ms] : best) values.push_back(ms);
  return percentile(std::move(values), q);
}

/// All parts' checks as one.
Checked merged(const std::vector<Checked>& parts) {
  Checked all;
  const auto append = [](std::vector<double>& to,
                         const std::vector<double>& from) {
    to.insert(to.end(), from.begin(), from.end());
  };
  for (const Checked& c : parts) {
    all.attempted += c.attempted;
    all.failed += c.failed;
    all.wrong += c.wrong;
    all.hot_missed += c.hot_missed;
    all.cold_proved += c.cold_proved;
    all.cold_ok += c.cold_ok;
    all.unmapped += c.unmapped;
    append(all.hit_ms, c.hit_ms);
    append(all.near_ms, c.near_ms);
    append(all.cold_ms, c.cold_ms);
    append(all.all_ms, c.all_ms);
    append(all.outside_ms, c.outside_ms);
    append(all.lag_ms, c.lag_ms);
  }
  return all;
}

/// The server's counters, over a fresh connection.
std::optional<gmm::service::ServiceStats> fetch_stats(
    const std::string& socket) {
  ProcessClient conn;
  if (!conn.connect(socket, 2.0)) return std::nullopt;
  conn.send_line(R"({"id":"stats","method":"stats"})");
  const auto line = conn.read_line(10.0);
  if (!line.has_value()) return std::nullopt;
  const std::optional<Response> r = parse_response(*line);
  if (!r.has_value() || !r->has_stats) return std::nullopt;
  return r->stats;
}

std::unique_ptr<Sent> make_sent(const Point& p, gmm::design::Design design) {
  auto s = std::make_unique<Sent>();
  s->point = &p;
  s->design = std::move(design);
  s->text = gmm::design::design_to_string(s->design);
  s->table = std::make_unique<gmm::mapping::CostTable>(s->design, *p.board);
  return s;
}

gmm::design::Design fresh_design(const Point& p, std::uint64_t seed) {
  gmm::workload::DesignGenOptions gen;
  gen.num_segments = p.segments;
  gen.seed = seed % 1'000'000'000ULL + 1;
  return gmm::workload::generate_design(*p.board, gen);
}

/// The traffic of seeded windows: hot resubmissions, fresh mutants of
/// hot designs, and fresh cold designs, built before the clock starts.
/// The workload seed draws arrival times, classes, targets and mutants;
/// the cold designs come from one fixed sequence, as the hot pool does,
/// because cold-solve effort is heavy-tailed and designs drawn afresh per
/// seed moved the cold p90 by a third from seed to seed.
class Traffic {
 public:
  Traffic(const std::vector<Point>& points, const std::vector<Hot>& hot,
          std::uint64_t seed)
      : points_(points), hot_(hot), seed_(seed) {}

  std::vector<Sample> build(const std::vector<Arrival>& schedule,
                            std::uint64_t salt) {
    std::vector<Sample> samples;
    gmm::support::Rng rng(mix(seed_ ^ mix(salt)));
    for (std::size_t i = 0; i < schedule.size(); ++i) {
      Sample s;
      s.cls = schedule[i].cls;
      s.due_s = schedule[i].due_s;
      const Hot& h = hot_[rng.next_u64() % hot_.size()];
      s.design = &h.d;
      if (s.cls != RequestClass::kCold) s.hot = &h;
      if (s.cls == RequestClass::kNear) {
        gmm::design::Design mutant;
        std::vector<std::size_t> pinned =
            mutate_traffic(h.d.design, rng.next_u64(), kNearChanged, mutant);
        owned_.push_back(make_sent(*h.d.point, std::move(mutant)));
        owned_.back()->pinned = std::move(pinned);
        s.design = owned_.back().get();
      } else if (s.cls == RequestClass::kCold) {
        const Point& p = points_[cold_sent_ % points_.size()];
        owned_.push_back(make_sent(p, fresh_design(p, mix(cold_sent_))));
        ++cold_sent_;
        s.design = owned_.back().get();
      }
      s.line = map_request_line("w" + std::to_string(i), s.design->text,
                                s.design->point->board->name(), false,
                                kMaxNodes, kDeadlineMs);
      samples.push_back(std::move(s));
    }
    return samples;
  }

 private:
  const std::vector<Point>& points_;
  const std::vector<Hot>& hot_;
  std::uint64_t seed_;
  std::uint64_t cold_sent_ = 0;  // position in the cold-design sequence
  std::vector<std::unique_ptr<Sent>> owned_;
};

bool connect_all(const std::string& socket,
                 std::vector<std::unique_ptr<ProcessClient>>& conns) {
  conns.clear();
  for (int c = 0; c < kConnections; ++c) {
    conns.push_back(std::make_unique<ProcessClient>());
    if (!conns.back()->connect(socket, 5.0)) return false;
  }
  return true;
}

/// Spawn the server and prove the hot pool into its cache.  Returns the
/// seconds from spawn to a verified-resident pool, or < 0 on failure.
/// Every candidate is solved and checked, one request at a time on the
/// otherwise idle server; `solve_ms` gets each one's server-reported time
/// (-1 when it returned no mapping).
double set_up(Server& server, const Options& options,
              const std::vector<std::string>& board_files,
              const std::string& socket, const std::vector<Point>& points,
              std::vector<Hot>& hot, std::vector<Candidate>& candidates,
              std::vector<double>& solve_ms) {
  const Clock::time_point start = Clock::now();
  std::vector<std::string> args = board_files;
  args.insert(args.end(),
              {"--workers", std::to_string(kWorkers), "--queue",
               std::to_string(kQueue), "--listen", socket});
  if (!server.start(options.server, args, socket)) return -1.0;
  ProcessClient conn;
  if (!conn.connect(socket, 5.0)) return -1.0;
  const auto ask = [&](const Sent& d, const std::string& id) {
    if (!conn.send_line(map_request_line(id, d.text, d.point->board->name(),
                                         false, kMaxNodes, -1.0))) {
      return std::optional<Response>{};
    }
    const auto reply = conn.read_line(60.0);
    return reply.has_value() ? parse_response(*reply)
                             : std::optional<Response>{};
  };

  // Per point, candidates in seed order; the first kHotPerPoint that prove
  // within the node budget form the pool.  No solve queues and no deadline
  // applies.
  hot.clear();
  candidates.clear();
  solve_ms.clear();
  for (const Point& p : points) {
    int taken = 0;
    for (int k = 0; k < kHotCandidates; ++k) {
      // Hot candidates never collide with the cold sequence's mix(0..).
      std::unique_ptr<Sent> d = make_sent(
          p, fresh_design(p, mix(~static_cast<std::uint64_t>(p.index * 100 +
                                                             k))));
      const std::optional<Response> r =
          ask(*d, "h" + std::to_string(p.index) + "." + std::to_string(k));
      const bool mapped = r.has_value() &&
                          r->status == ResponseStatus::kOk && r->has_result;
      solve_ms.push_back(mapped ? r->seconds * 1e3 : -1.0);
      candidates.push_back(
          {map_request_line("i" + std::to_string(candidates.size()), d->text,
                            p.board->name(), false, kMaxNodes, -1.0, true),
           mapped ? r->objective : -1.0});
      if (!mapped) continue;
      gmm::mapping::GlobalAssignment assignment;
      gmm::mapping::DetailedMapping detailed;
      std::string error =
          decode_placements(d->design, *p.board, *d->table, r->placements,
                            assignment, detailed);
      if (error.empty()) {
        error = check_answer(d->design, *p.board, *d->table, assignment,
                             detailed, r->objective);
      }
      if (!error.empty()) {
        std::fprintf(stderr, "FAIL hot pool: %s\n", error.c_str());
        return -1.0;
      }
      if (r->solve_status != "optimal" || !r->stop_reason.empty() ||
          taken == kHotPerPoint) {
        continue;
      }
      Hot h;
      h.objective = r->objective;
      h.type_of = assignment.type_of;
      h.d = std::move(*d);
      hot.push_back(std::move(h));
      ++taken;
    }
    if (taken < kHotPerPoint) return -1.0;
  }
  // Resident check: every hot design now replays from the cache with its
  // cold proof's objective.
  for (std::size_t i = 0; i < hot.size(); ++i) {
    const std::optional<Response> again =
        ask(hot[i].d, "v" + std::to_string(i));
    if (!again.has_value() || !again->cached ||
        !within_gap(again->objective, hot[i].objective, 1e-9)) {
      return -1.0;
    }
  }
  return seconds_since(start);
}

/// Resend every candidate with the cache bypassed, one at a time on the
/// otherwise idle server; each answer must repeat its set-up objective.
/// Returns the server-reported solve times (-1 for a candidate the set-up
/// could not map); `error` is set when an answer differs.
std::vector<double> idle_pass(ProcessClient& conn,
                              const std::vector<Candidate>& candidates,
                              HostSpeed& speed, std::string& error) {
  std::vector<double> ms;
  for (const Candidate& c : candidates) {
    if (c.objective < 0) {
      ms.push_back(-1.0);
      continue;
    }
    speed.sample();
    std::optional<Response> r;
    if (conn.send_line(c.line)) {
      if (const auto reply = conn.read_line(60.0); reply.has_value()) {
        r = parse_response(*reply);
      }
    }
    if (!r.has_value() || r->status != ResponseStatus::kOk ||
        !r->has_result || !within_gap(r->objective, c.objective, 1e-9)) {
      error = "an idle-server solve did not repeat its set-up answer";
      ms.push_back(-1.0);
      continue;
    }
    ms.push_back(r->seconds * 1e3);
  }
  return ms;
}

/// One ladder step passes when every request succeeded, the p99 latency
/// meets the limit, and the queue did not grow over the step (the last
/// quarter's median latency within 50 ms of the first quarter's).
bool ladder_step_passes(const Checked& c, const Window& w) {
  if (c.failed > 0 || c.all_ms.empty()) return false;
  if (percentile(c.all_ms, 0.99).value > kLatencyLimitMs) return false;
  std::vector<double> first, last;
  const std::size_t n = w.samples.size();
  for (std::size_t i = 0; i < n; ++i) {
    const Sample& s = w.samples[i];
    const double ms = (s.recv_s - s.due_s) * 1e3;
    if (i < n / 4) first.push_back(ms);
    if (i >= n - n / 4) last.push_back(ms);
  }
  return median(last) <= median(first) + 50.0;
}

}  // namespace

Result run_serve_mix(const Options& options, Header& header) {
  Result result;
  header.extra["workers"] = std::to_string(kWorkers);
  header.extra["connections"] = std::to_string(kConnections);
  header.extra["thread_cap"] = std::to_string(kThreadCap);
  header.extra["deadline_ms"] = std::to_string(kDeadlineMs);
  header.extra["queue"] = std::to_string(kQueue);
  header.extra["node_budget"] = std::to_string(kMaxNodes);
  header.extra["threads"] = "1";
  header.extra["nominal_rate_rps"] = std::to_string(kNominalRate);
  header.extra["hot_pool"] =
      std::to_string(kHotPerPoint * static_cast<int>(std::size(kPoints)));
  const auto give_up = [&](const char* why) {
    std::fprintf(stderr, "serve_mix: %s\n", why);
    result.correct = false;
    result.attempted = std::max<std::int64_t>(result.attempted, 1);
    result.failed = std::max<std::int64_t>(result.failed, 1);
    return result;
  };
  if (options.server.empty()) return give_up("no --server given");

  // Boards of points 2-5 and 8 (3 and 4 share one), one file each.
  std::vector<gmm::arch::Board> boards;
  std::vector<std::string> board_files;
  std::vector<Point> points;
  boards.reserve(std::size(kPoints));
  for (const int index : kPoints) {
    const gmm::workload::Table3Point& tp =
        gmm::workload::table3_points()[static_cast<std::size_t>(index - 1)];
    std::optional<gmm::arch::Board> board =
        gmm::workload::board_from_totals(tp.totals);
    const gmm::arch::Board* found = nullptr;
    for (const gmm::arch::Board& b : boards) {
      if (b.name() == board->name()) found = &b;
    }
    if (found == nullptr) {
      boards.push_back(std::move(*board));
      found = &boards.back();
      const std::string file =
          options.out_dir + "/board-" + found->name() + ".txt";
      std::ofstream out(file);
      gmm::arch::write_board(out, *found);
      board_files.push_back(file);
    }
    points.push_back({index, tp.segments, found});
  }
  const std::string socket = options.out_dir + "/serve-" +
                             std::to_string(::getpid()) + ".sock";

  // ---- set-up; repeated later in the run (see the idle passes) ----------
  std::vector<double> setup_s;
  std::vector<Hot> hot;
  std::vector<Candidate> candidates;
  std::vector<std::vector<double>> candidate_ms;  // per idle pass
  HostSpeed speed;  // sampled in the window's and the idle passes' waits
  auto server = std::make_unique<Server>();
  {
    std::vector<double> solve_ms;
    const double s = set_up(*server, options, board_files, socket, points,
                            hot, candidates, solve_ms);
    if (s < 0) return give_up("set-up failed");
    setup_s.push_back(s);
    candidate_ms.push_back(std::move(solve_ms));
  }
  std::vector<std::unique_ptr<ProcessClient>> conns;
  if (!connect_all(socket, conns)) return give_up("cannot connect");
  // Replace the server by a freshly set-up one.  The hot pool and the
  // candidates stay the first set-up's; every candidate's answer must
  // repeat.
  const auto set_up_again = [&] {
    conns.clear();
    if (server->stop() != 0) {
      std::fprintf(stderr, "serve_mix: server did not shut down cleanly\n");
      result.correct = false;
    }
    server = std::make_unique<Server>();
    std::vector<Hot> again_hot;
    std::vector<Candidate> again;
    std::vector<double> solve_ms;
    const double s = set_up(*server, options, board_files, socket, points,
                            again_hot, again, solve_ms);
    if (s < 0 || !connect_all(socket, conns)) return false;
    for (std::size_t i = 0; i < again.size(); ++i) {
      if (!within_gap(again[i].objective, candidates[i].objective, 1e-9)) {
        std::fprintf(stderr, "FAIL a set-up solve did not repeat\n");
        ++result.failed;
        result.correct = false;
      }
    }
    setup_s.push_back(s);
    candidate_ms.push_back(std::move(solve_ms));
    return true;
  };

  Traffic traffic(points, hot, options.seed);
  bool valid = true;
  const auto audit = [&](const Checked& c, const Window& w) {
    if (c.wrong > 0) result.correct = false;
    if (c.hot_missed > 0 || w.max_threads > kThreadCap) valid = false;
  };

  // ---- fixed-rate window -------------------------------------------------
  const double window_s = (options.trace ? 0.35 : 0.5) * options.seconds;
  struct Measured {
    Window w;
    std::vector<Checked> parts;
    Checked c;  // all parts
    gmm::service::ServiceStats::Cache cache;  // stats delta
    double server_cpu_s = 0.0;
  };
  const auto measure_window = [&](std::uint64_t salt, Trace& trace) {
    Measured m;
    const std::vector<Arrival> schedule =
        open_loop_schedule(mix(options.seed + salt), kNominalRate, window_s,
                           kHitShare, kNearShare);
    std::vector<Sample> samples = traffic.build(schedule, salt);
    const auto before = fetch_stats(socket);
    const double cpu_before = cpu_seconds(server->pid());
    {
      Scope span(trace, "bench.window");
      m.w = run_window(std::move(samples), conns, &speed);
    }
    m.server_cpu_s = cpu_seconds(server->pid()) - cpu_before;
    const auto after = fetch_stats(socket);
    {
      Scope span(trace, "bench.check");
      for (const std::span<const Sample> part : parts_of(m.w, window_s)) {
        m.parts.push_back(check_samples(part));
      }
    }
    m.c = merged(m.parts);
    audit(m.c, m.w);
    result.attempted += m.c.attempted;
    result.failed += m.c.failed;
    if (before.has_value() && after.has_value()) {
      m.cache.hits = after->cache.hits - before->cache.hits;
      m.cache.misses = after->cache.misses - before->cache.misses;
      m.cache.evictions = after->cache.evictions - before->cache.evictions;
      m.cache.near_misses =
          after->cache.near_misses - before->cache.near_misses;
    }
    return m;
  };
  const auto idle_pass_checked = [&] {
    std::string idle_error;
    candidate_ms.push_back(
        idle_pass(*conns[0], candidates, speed, idle_error));
    if (!idle_error.empty()) {
      std::fprintf(stderr, "FAIL %s\n", idle_error.c_str());
      ++result.failed;
      result.correct = false;
    }
  };
  // Each candidate's solve time: its fastest pass over the set-ups and the
  // idle passes.
  const auto solve_times = [&] {
    std::vector<double> ms;
    for (std::size_t i = 0; i < candidate_ms.front().size(); ++i) {
      double best = -1.0;
      for (const std::vector<double>& one : candidate_ms) {
        if (one[i] >= 0 && (best < 0 || one[i] < best)) best = one[i];
      }
      if (best >= 0) ms.push_back(best);
    }
    return ms;
  };

  // ---- rate ladder: binary search for the highest passing step ----------
  // Requests refused or late past a failing step are the point of the
  // search, not failures; only wrong answers count against the run.
  // Returns the offered rate (arrivals / duration, as the seeded schedule
  // realized it) of the highest passing step.
  const auto search_ladder = [&](double probe_s) {
    int lo = -1, hi = kLadderSteps;  // lo passes (or none), hi fails
    double offered_rps = 0.0;
    while (hi - lo > 1) {
      const int k = (lo + hi) / 2;
      const double rate = kLadderBase * std::pow(kLadderStep, k);
      const std::vector<Arrival> schedule = open_loop_schedule(
          mix(options.seed * 31 + static_cast<std::uint64_t>(k)), rate,
          probe_s, kHitShare, kNearShare);
      const Window w = run_window(
          traffic.build(schedule, 1000 + static_cast<std::uint64_t>(k)),
          conns);
      const Checked c = check_samples(w.samples);
      audit(c, w);
      const bool pass = ladder_step_passes(c, w);
      char buffer[160];
      std::snprintf(buffer, sizeof buffer,
                    "%.1f rps: %s (n=%lld, failed=%lld, p99=%.1f ms)", rate,
                    pass ? "pass" : "fail",
                    static_cast<long long>(c.attempted),
                    static_cast<long long>(c.failed),
                    percentile(c.all_ms, 0.99).value);
      result.note("ladder.step" + std::to_string(k), buffer);
      (pass ? lo : hi) = k;
      if (pass) offered_rps = static_cast<double>(w.samples.size()) / probe_s;
    }
    return offered_rps;
  };

  const Clock::time_point measure_start = Clock::now();
  Trace untraced(false);
  const Measured base = measure_window(1, untraced);
  // The server's memory high-water mark under the nominal load, before
  // the ladder's overloaded steps fill its queue.
  const double server_peak_mb = peak_rss_mb(server->pid());

  if (options.trace) {
    // A second window of the same shape with client-side spans; the
    // untraced window above is the overhead baseline.
    Trace trace(true);
    const Measured traced = measure_window(2, trace);
    Layers layers;
    const double cacheable =
        static_cast<double>(traced.cache.hits + traced.cache.misses);
    layers.service_cache_hit_ratio =
        cacheable > 0 ? static_cast<double>(traced.cache.hits) / cacheable
                      : 0.0;
    layers.service_cache_evictions =
        static_cast<double>(traced.cache.evictions);
    layers.service_near_misses =
        static_cast<double>(traced.cache.near_misses);
    layers.service_outside_ms_p50 =
        percentile(traced.c.outside_ms, 0.50).value;
    layers.service_outside_ms_p99 =
        percentile(traced.c.outside_ms, 0.99).value;
    layers.service_cpu_ms_per_request =
        traced.server_cpu_s * 1e3 /
        std::max(1.0, static_cast<double>(traced.w.samples.size()));
    layers.bench_sender_lag_ms_p99 = percentile(traced.c.lag_ms, 0.99).value;
    // Latency from due time by class, from the untraced window's parts.
    const std::vector<Checked>& parts = base.parts;
    layers.client.p99_ms = median_of_parts(parts, &Checked::all_ms, 0.99);
    layers.client.cold_p50_ms = median_of_parts(parts, &Checked::cold_ms, 0.5);
    layers.client.cold_p90_ms = median_of_parts(parts, &Checked::cold_ms, 0.9);
    layers.client.hit_p50_ms = median_of_parts(parts, &Checked::hit_ms, 0.5);
    layers.client.hit_p99_ms = median_of_parts(parts, &Checked::hit_ms, 0.99);
    layers.client.near_p50_ms = median_of_parts(parts, &Checked::near_ms, 0.5);
    layers.client.near_p90_ms = median_of_parts(parts, &Checked::near_ms, 0.9);
    const double base_p50 = percentile(base.c.all_ms, 0.50).value;
    layers.bench_tracing_overhead =
        base_p50 > 0 ? percentile(traced.c.all_ms, 0.50).value / base_p50 - 1.0
                     : 0.0;
    for (int k = 0; k < 3; ++k) {
      const auto cls = static_cast<RequestClass>(k);
      std::vector<double> outside;
      for (const Sample& s : traced.w.samples) {
        if (s.cls != cls || s.recv_s < 0) continue;
        if (const auto r = parse_response(s.reply); r.has_value()) {
          outside.push_back((s.recv_s - s.due_s) * 1e3 - r->seconds * 1e3);
        }
      }
      result.note(std::string("outside_ms_p50.") + to_string(cls),
                  format_percentile(percentile(outside, 0.50)));
    }

    // The same request stream through the layers in-process, without the
    // cache; near misses also through mapping::remap from their hot
    // design's answer with the unchanged structures pinned, as the
    // service does.
    LayerSums sums;
    gmm::ilp::MipOptions mip;
    mip.num_threads = 1;
    mip.node_limit = kMaxNodes;
    int replayed = 0;
    for (const Sample& s : traced.w.samples) {
      if (replayed >= kInProcessSample) break;
      const TracedAnswer a = trace_request(
          trace, sums, replayed, *s.design->point->board, s.line, false, mip);
      // A cold design may exhaust the budget without a mapping (checked
      // against the server's answer in the window already).
      if (!a.error.empty() &&
          !(s.cls == RequestClass::kCold && a.error == "no mapping")) {
        ++result.failed;
        result.correct = false;
      }
      if (s.cls == RequestClass::kNear) {
        gmm::mapping::RemapOptions remap;
        remap.pipeline.global.mip = mip;
        remap.migration_penalty = kMigrationPenalty;
        remap.pinned_structures = s.design->pinned;
        Scope span(trace, "mapping.remap", replayed);
        const gmm::mapping::RemapResult nr = gmm::mapping::remap(
            s.design->design, *s.design->point->board, s.hot->type_of, remap);
        if (!nr.result.detailed.success) {
          ++result.failed;
          result.correct = false;
        }
      }
      ++replayed;
    }
    fill_layers(trace, sums, layers);
    const std::vector<double> idle_ms = solve_times();
    layers.tails.solve_p90_ms = percentile(idle_ms, 0.90);
    layers.tails.near_p90_ms =
        fastest_per_hot(base.w, RequestClass::kNear, 0.90);
    // Ladder steps of 5% of the run; the latency metrics above ran first.
    layers.tails.max_rate_rps = search_ladder(0.05 * options.seconds);
    trace.write(options.out_dir + "/trace-" + options.workload + "-" +
                std::to_string(options.seed) + ".jsonl");
    conns.clear();
    if (server->stop() != 0) result.correct = false;
    if (!valid) result.correct = false;
    add_layers(result, layers);
    return result;
  }

  // The window's figures, before a set-up below replaces the server.
  const Checked& c = base.c;
  EndToEnd m;
  m.proved_share =
      c.cold_ok > 0 ? static_cast<double>(c.cold_proved) /
                          static_cast<double>(c.cold_ok + c.unmapped)
                    : 0.0;
  m.peak_rss_mb = server_peak_mb;
  m.hit_p50_ms = fastest_per_hot(base.w, RequestClass::kHit, 0.50);
  m.near_p50_ms = fastest_per_hot(base.w, RequestClass::kNear, 0.50);

  // ---- idle-server solve passes and set-ups until the time is up --------
  // The host's speed drifts by tens of percent within seconds: each
  // candidate's fastest pass is its solve time, and the remaining set-ups
  // are spread over the rest of the run, so their median does not hang on
  // the host's speed in its first seconds.
  const int late_setups = kSetupRepeats - 1;
  const double rest_s = options.seconds - window_s;
  for (int k = 0;
       seconds_since(measure_start) < options.seconds || k < late_setups;) {
    if (k < late_setups &&
        seconds_since(measure_start) >= window_s + k * rest_s / late_setups) {
      if (!set_up_again()) return give_up("set-up failed");
      ++k;
    } else {
      idle_pass_checked();
    }
  }
  conns.clear();
  if (server->stop() != 0) {
    std::fprintf(stderr, "serve_mix: server did not shut down cleanly\n");
    result.correct = false;
  }
  if (!valid) {
    std::fprintf(stderr,
                 "serve_mix: invalid run (hot entry evicted or caps "
                 "exceeded)\n");
    result.correct = false;
  }

  // ---- end-to-end metrics --------------------------------------------------
  m.setup_s = median(setup_s);
  // Solve time as the server reports it with no other request in flight.
  // Under the window's load the same figure moved with the host's
  // contention by half its median.
  const std::vector<double> idle_ms = solve_times();
  for (const double ms : idle_ms) m.solve_s += ms / 1e3;
  m.solve_p50_ms = percentile(idle_ms, 0.50);

  result.note("window", std::to_string(base.w.samples.size()) +
                            " requests at " + std::to_string(kNominalRate) +
                            " rps over " + std::to_string(window_s) + " s");
  result.note("sender_lag_ms_p99",
              format_percentile(percentile(c.lag_ms, 0.99)));
  result.note("max_client_threads", std::to_string(base.w.max_threads));
  result.note("cache_delta",
              "hits " + std::to_string(base.cache.hits) + ", misses " +
                  std::to_string(base.cache.misses) + ", near " +
                  std::to_string(base.cache.near_misses) + ", evictions " +
                  std::to_string(base.cache.evictions));
  result.note("server_cpu_s", std::to_string(base.server_cpu_s));
  result.note("cold_unmapped", std::to_string(c.unmapped) +
                                   " (no mapping within the budget, "
                                   "verified in-process)");
  result.note("solve_p50_ms", format_percentile(m.solve_p50_ms));
  result.note("hit_p50_ms", format_percentile(m.hit_p50_ms));
  result.note("near_p50_ms", format_percentile(m.near_p50_ms));
  result.note("idle_passes", std::to_string(candidate_ms.size()));
  result.note("failed_share",
              std::to_string(static_cast<double>(result.failed) /
                             static_cast<double>(
                                 std::max<std::int64_t>(result.attempted, 1))));
  add_end_to_end(result, m, speed);
  return result;
}

}  // namespace perfbench
