// Serving-path load bench: spawns a real `mapper_serve --listen` and
// replays an OPEN-LOOP workload against it — request i arrives at the
// fixed time i/rate whether or not earlier requests have finished, so
// the measured latencies include queueing delay instead of hiding it the
// way closed-loop (send-after-receive) replay does.  Per arrival rate it
// reports p50/p95/p99 latency, sustained throughput, and the shed /
// timeout rates of the bounded admission queue.  JSON mirror:
// BENCH_serving.json (one record per rate).
//
// Environment knobs (on top of bench_common's):
//   GMM_BENCH_SERVE_RATES        comma-separated arrival rates in req/s
//                                (default "20,50,100")
//   GMM_BENCH_SERVE_REQUESTS     requests per rate point (default 120)
//   GMM_BENCH_SERVE_CLIENTS      concurrent connections (default 4)
//   GMM_BENCH_SERVE_WORKERS      server mapping workers (default 4)
//   GMM_BENCH_SERVE_QUEUE        server admission bound (default 32)
//   GMM_BENCH_SERVE_DEADLINE_MS  per-request deadline (default 2000)
//   GMM_BENCH_SERVE_SEGMENTS    segments per generated design (default 8)
//
// After the rate sweep an OVERLOAD point runs against a second server
// with the degradation plane armed (--shed-delay-ms, --watchdog-ms) and
// a benign fault schedule, at an arrival rate far above capacity; the
// "overload" record captures shed_rate, p99_under_faults_ms, and
// retry-after honesty (did a retry that waited out the hint get in?).
//   GMM_BENCH_SERVE_OVERLOAD_RATE      arrival rate (default 300 req/s)
//   GMM_BENCH_SERVE_OVERLOAD_REQUESTS  requests (default 150)
//   GMM_BENCH_SERVE_OVERLOAD_SEGMENTS  segments per design (default 24,
//                                      solved with formulation=complete)
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#ifndef _WIN32
#include <unistd.h>
#endif

#include "arch/arch_io.hpp"
#include "bench_common.hpp"
#include "design/design_io.hpp"
#include "service/json.hpp"
#include "service/process_client.hpp"
#include "service/protocol.hpp"
#include "support/string_util.hpp"
#include "workload/workload_gen.hpp"

#ifndef GMM_MAPPER_SERVE_PATH
#define GMM_MAPPER_SERVE_PATH ""
#endif

namespace {

using namespace gmm;
using Clock = std::chrono::steady_clock;

std::int64_t env_int(const char* name, std::int64_t lo, std::int64_t hi,
                     std::int64_t fallback) {
  const char* raw = std::getenv(name);
  std::int64_t value = 0;
  if (raw != nullptr && support::parse_int(raw, value) && value >= lo &&
      value <= hi) {
    return value;
  }
  return fallback;
}

std::vector<double> env_rates() {
  const char* raw = std::getenv("GMM_BENCH_SERVE_RATES");
  std::vector<double> rates;
  for (const std::string& token :
       support::split(raw != nullptr ? raw : "20,50,100", ',')) {
    std::int64_t value = 0;
    if (support::parse_int(support::trim(token), value) && value >= 1 &&
        value <= 100000) {
      rates.push_back(static_cast<double>(value));
    }
  }
  if (rates.empty()) rates = {20.0, 50.0, 100.0};
  return rates;
}

/// Latency + terminal status of one replayed request.
struct Outcome {
  double latency_ms = 0.0;
  service::ResponseStatus status = service::ResponseStatus::kError;
  bool received = false;
};

double percentile(std::vector<double> sorted, double q) {
  if (sorted.empty()) return 0.0;
  const std::size_t index = std::min(
      sorted.size() - 1,
      static_cast<std::size_t>(q * static_cast<double>(sorted.size())));
  return sorted[index];
}

}  // namespace

int main() {
  if (std::string(GMM_MAPPER_SERVE_PATH).empty()) {
    std::fprintf(stderr, "mapper_serve path not configured; skipping\n");
    return 0;
  }
  const int requests = static_cast<int>(
      env_int("GMM_BENCH_SERVE_REQUESTS", 1, 1'000'000, 120));
  const int clients =
      static_cast<int>(env_int("GMM_BENCH_SERVE_CLIENTS", 1, 256, 4));
  const int workers =
      static_cast<int>(env_int("GMM_BENCH_SERVE_WORKERS", 1, 256, 4));
  const int queue =
      static_cast<int>(env_int("GMM_BENCH_SERVE_QUEUE", 1, 100000, 32));
  const int deadline_ms = static_cast<int>(
      env_int("GMM_BENCH_SERVE_DEADLINE_MS", 1, 3'600'000, 2000));
  const std::vector<double> rates = env_rates();

  // A pool of 16 small distinct designs on the bundled synthetic board,
  // sent round-robin: one solve is milliseconds, so the signal is
  // QUEUEING, not solving.  The server keeps its default solution cache,
  // so after a design's first proved solve its repeats are cache replays;
  // perfbench's serve_mix workload is the one that measures cold solves.
  const arch::Board board = *workload::board_from_totals(
      {.banks = 23, .ports = 45, .configs = 100});
  std::vector<std::string> designs;
  for (int i = 0; i < 16; ++i) {
    workload::DesignGenOptions gen;
    gen.num_segments =
        env_int("GMM_BENCH_SERVE_SEGMENTS", 2, 64, 8);
    gen.seed = bench::env_seed() + static_cast<std::uint64_t>(i);
    designs.push_back(design::design_to_string(
        workload::generate_design(board, gen)));
  }
  const std::string board_file = "bench_serving_board.txt";
  {
    std::ofstream out(board_file);
    arch::write_board(out, board);
  }
  long pid = 0;
#ifndef _WIN32
  pid = static_cast<long>(::getpid());
#endif
  const std::string socket_path =
      "/tmp/gmm_bench_serving_" + std::to_string(pid) + ".sock";

  service::ProcessClient server;
  if (!server.start(GMM_MAPPER_SERVE_PATH,
                    {board_file, "--workers", std::to_string(workers),
                     "--queue", std::to_string(queue), "--listen",
                     socket_path})) {
    std::fprintf(stderr, "cannot spawn mapper_serve; skipping\n");
    return 0;
  }
  if (!server.read_line(60.0).has_value()) {
    std::fprintf(stderr, "server printed no listening event\n");
    return 1;
  }

  bench::BenchJson json("serving");
  std::printf("open-loop serving bench: %d requests/rate, %d clients, "
              "%d workers, queue %d, deadline %d ms\n\n",
              requests, clients, workers, queue, deadline_ms);
  std::printf("%8s %9s %9s %9s %9s %8s %7s %7s %7s %7s\n", "rate",
              "p50_ms", "p95_ms", "p99_ms", "thruput", "wall_s", "ok",
              "timeout", "shed", "error");

  for (const double rate : rates) {
    // One socket connection per client; a dedicated reader thread each,
    // so slow responses never block the open-loop sender.  (Sender and
    // reader touch disjoint fds of the connection.)
    std::vector<std::unique_ptr<service::ProcessClient>> conns;
    for (int c = 0; c < clients; ++c) {
      conns.push_back(std::make_unique<service::ProcessClient>());
      if (!conns.back()->connect(socket_path)) {
        std::fprintf(stderr, "client %d cannot connect\n", c);
        return 1;
      }
    }
    std::vector<Outcome> outcomes(static_cast<std::size_t>(requests));
    std::vector<int> per_conn_count(static_cast<std::size_t>(clients), 0);
    for (int i = 0; i < requests; ++i) {
      ++per_conn_count[static_cast<std::size_t>(i % clients)];
    }
    const Clock::time_point start = Clock::now();
    std::vector<std::thread> readers;
    for (int c = 0; c < clients; ++c) {
      readers.emplace_back([&, c] {
        service::ProcessClient& conn = *conns[static_cast<std::size_t>(c)];
        for (int remaining = per_conn_count[static_cast<std::size_t>(c)];
             remaining > 0;) {
          const auto line = conn.read_line(120.0);
          if (!line.has_value()) return;  // server gone: counted as lost
          const service::JsonParseResult parsed =
              service::parse_json(*line);
          if (!parsed.ok) continue;
          service::Response response;
          if (!service::Response::from_json(parsed.value, response) ||
              response.method != "map") {
            continue;
          }
          std::int64_t index = -1;
          if (!support::parse_int(response.id.substr(1), index)) continue;
          const double arrival_s = static_cast<double>(index) / rate;
          Outcome& outcome = outcomes[static_cast<std::size_t>(index)];
          // Latency from the SCHEDULED arrival, not the actual send:
          // sender backlog must count (no coordinated omission).
          outcome.latency_ms =
              std::chrono::duration<double, std::milli>(Clock::now() -
                                                        start)
                  .count() -
              arrival_s * 1000.0;
          outcome.status = response.status;
          outcome.received = true;
          --remaining;
        }
      });
    }
    // The open-loop sender: request i goes on the wire at i/rate from
    // `start`, on connection i % clients, round-robin over the designs.
    for (int i = 0; i < requests; ++i) {
      const double arrival_s = static_cast<double>(i) / rate;
      std::this_thread::sleep_until(
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(arrival_s)));
      service::JsonObject request;
      request["v"] = 2;
      request["id"] = "r" + std::to_string(i);
      request["method"] = std::string("map");
      request["design_text"] =
          designs[static_cast<std::size_t>(i) % designs.size()];
      request["deadline_ms"] = deadline_ms;
      if (!conns[static_cast<std::size_t>(i % clients)]->send_line(
              service::Json(std::move(request)).dump())) {
        std::fprintf(stderr, "send failed at request %d\n", i);
        break;
      }
    }
    for (std::thread& t : readers) t.join();
    const double wall_s =
        std::chrono::duration<double>(Clock::now() - start).count();

    std::vector<double> latencies;
    std::int64_t ok = 0, timeout = 0, shed = 0, error = 0, lost = 0;
    for (const Outcome& outcome : outcomes) {
      if (!outcome.received) {
        ++lost;
        continue;
      }
      latencies.push_back(outcome.latency_ms);
      switch (outcome.status) {
        case service::ResponseStatus::kOk:
          ++ok;
          break;
        case service::ResponseStatus::kTimeout:
          ++timeout;
          break;
        case service::ResponseStatus::kRejected:
          ++shed;
          break;
        default:
          ++error;
          break;
      }
    }
    std::sort(latencies.begin(), latencies.end());
    const double p50 = percentile(latencies, 0.50);
    const double p95 = percentile(latencies, 0.95);
    const double p99 = percentile(latencies, 0.99);
    const double throughput = static_cast<double>(ok) / wall_s;
    const double n = static_cast<double>(requests);
    std::printf("%8.0f %9.2f %9.2f %9.2f %9.1f %8.2f %7lld %7lld %7lld "
                "%7lld\n",
                rate, p50, p95, p99, throughput, wall_s,
                static_cast<long long>(ok), static_cast<long long>(timeout),
                static_cast<long long>(shed), static_cast<long long>(error));
    json.write("open_loop",
               {bench::jnum("rate_rps", rate),
                bench::jint("requests", requests),
                bench::jint("clients", clients),
                bench::jint("workers", workers),
                bench::jint("queue", queue),
                bench::jint("deadline_ms", deadline_ms),
                bench::jnum("p50_ms", p50), bench::jnum("p95_ms", p95),
                bench::jnum("p99_ms", p99),
                bench::jnum("throughput_rps", throughput),
                bench::jnum("wall_seconds", wall_s),
                bench::jint("ok", ok), bench::jint("timeout", timeout),
                bench::jint("shed", shed), bench::jint("error", error),
                bench::jint("lost", lost),
                bench::jnum("shed_rate", static_cast<double>(shed) / n),
                bench::jnum("timeout_rate",
                            static_cast<double>(timeout) / n)});
    if (lost > 0) {
      std::fprintf(stderr, "rate %.0f: %lld request(s) lost\n", rate,
                   static_cast<long long>(lost));
    }
  }

  service::ProcessClient closer;
  if (closer.connect(socket_path)) {
    closer.send_line(R"({"method":"shutdown"})");
    closer.read_line(30.0);
  }
  int exit_code = server.wait_exit(30.0);

  // ---- overload point ------------------------------------------------
  // A second server with the degradation plane armed (delay-keyed
  // shedding, stall watchdog) and a BENIGN fault schedule (partial
  // writes, LU sabotage — absorbed internally, no connection kills),
  // driven far past capacity.  Reported: shed rate, p99 under faults,
  // and retry-after HONESTY — after waiting out the hint on a shed
  // response, does a retry get accepted?
  const int over_rate = static_cast<int>(
      env_int("GMM_BENCH_SERVE_OVERLOAD_RATE", 1, 100000, 300));
  const int over_requests = static_cast<int>(
      env_int("GMM_BENCH_SERVE_OVERLOAD_REQUESTS", 1, 1'000'000, 150));
  // Heavier designs than the latency phases: the point is a server whose
  // capacity is far BELOW the arrival rate, so queue delay builds and the
  // shedding plane engages.
  std::vector<std::string> over_designs;
  for (int i = 0; i < 8; ++i) {
    workload::DesignGenOptions gen;
    gen.num_segments = env_int("GMM_BENCH_SERVE_OVERLOAD_SEGMENTS", 2, 64, 24);
    gen.seed = bench::env_seed() + 1000 + static_cast<std::uint64_t>(i);
    over_designs.push_back(design::design_to_string(
        workload::generate_design(board, gen)));
  }
  const std::string over_socket = socket_path + ".overload";
  service::ProcessClient over_server;
  if (!over_server.start(
          GMM_MAPPER_SERVE_PATH,
          {board_file, "--workers", "2", "--queue", "16", "--listen",
           over_socket, "--shed-delay-ms", "25", "--watchdog-ms", "2000",
           "--faults",
           "seed=5,socket.write:partial@0.05,lu.refactor:singular@0.01"})) {
    std::fprintf(stderr, "cannot spawn overload server; skipping phase\n");
    std::remove(board_file.c_str());
    std::printf("\nJSON mirror: %s\n", json.path().c_str());
    return exit_code == 0 ? 0 : 1;
  }
  if (!over_server.read_line(60.0).has_value()) {
    std::fprintf(stderr, "overload server printed no listening event\n");
    return 1;
  }
  {
    constexpr int kOverClients = 4;
    std::vector<std::unique_ptr<service::ProcessClient>> conns;
    for (int c = 0; c < kOverClients; ++c) {
      conns.push_back(std::make_unique<service::ProcessClient>());
      if (!conns.back()->connect(over_socket)) {
        std::fprintf(stderr, "overload client %d cannot connect\n", c);
        return 1;
      }
    }
    struct OverOutcome {
      double latency_ms = 0.0;
      service::ResponseStatus status = service::ResponseStatus::kError;
      std::int64_t retry_after_ms = 0;
      bool received = false;
    };
    std::vector<OverOutcome> outcomes(
        static_cast<std::size_t>(over_requests));
    std::vector<int> per_conn(kOverClients, 0);
    for (int i = 0; i < over_requests; ++i) ++per_conn[i % kOverClients];
    const Clock::time_point start = Clock::now();
    std::vector<std::thread> readers;
    for (int c = 0; c < kOverClients; ++c) {
      readers.emplace_back([&, c] {
        service::ProcessClient& conn = *conns[static_cast<std::size_t>(c)];
        for (int remaining = per_conn[static_cast<std::size_t>(c)];
             remaining > 0;) {
          const auto line = conn.read_line(120.0);
          if (!line.has_value()) return;
          const service::JsonParseResult parsed = service::parse_json(*line);
          if (!parsed.ok) continue;
          service::Response response;
          if (!service::Response::from_json(parsed.value, response) ||
              response.method != "map") {
            continue;
          }
          std::int64_t index = -1;
          if (!support::parse_int(response.id.substr(1), index)) continue;
          OverOutcome& outcome = outcomes[static_cast<std::size_t>(index)];
          outcome.latency_ms =
              std::chrono::duration<double, std::milli>(Clock::now() - start)
                  .count() -
              static_cast<double>(index) / over_rate * 1000.0;
          outcome.status = response.status;
          outcome.retry_after_ms = response.retry_after_ms;
          outcome.received = true;
          --remaining;
        }
      });
    }
    for (int i = 0; i < over_requests; ++i) {
      const double arrival_s =
          static_cast<double>(i) / static_cast<double>(over_rate);
      std::this_thread::sleep_until(
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(arrival_s)));
      service::JsonObject request;
      request["v"] = 2;
      request["id"] = "o" + std::to_string(i);
      request["method"] = std::string("map");
      request["design_text"] =
          over_designs[static_cast<std::size_t>(i) % over_designs.size()];
      // The flat one-ILP formulation: orders of magnitude slower than the
      // pipeline on the same design, which is the point — capacity must
      // sit far below the arrival rate for shedding to engage.
      request["formulation"] = std::string("complete");
      request["deadline_ms"] = deadline_ms;
      if (!conns[static_cast<std::size_t>(i % kOverClients)]->send_line(
              service::Json(std::move(request)).dump())) {
        std::fprintf(stderr, "overload send failed at request %d\n", i);
        break;
      }
    }
    for (std::thread& t : readers) t.join();

    std::vector<double> latencies;
    std::int64_t ok = 0, shed = 0, timeout = 0, error = 0;
    std::vector<std::int64_t> shed_hints;
    for (const OverOutcome& outcome : outcomes) {
      if (!outcome.received) continue;
      latencies.push_back(outcome.latency_ms);
      switch (outcome.status) {
        case service::ResponseStatus::kOk:
          ++ok;
          break;
        case service::ResponseStatus::kRejected:
          ++shed;
          shed_hints.push_back(outcome.retry_after_ms);
          break;
        case service::ResponseStatus::kTimeout:
          ++timeout;
          break;
        default:
          ++error;
          break;
      }
    }
    // Retry-after honesty: wait out the LARGEST hint the storm produced,
    // then retry one request per shed response (fresh ids, sequential).
    // An honest hint means the backlog has drained by then and retries
    // are accepted.
    std::int64_t retried = 0, retry_accepted = 0;
    if (!shed_hints.empty()) {
      std::int64_t max_hint = 0;
      for (const std::int64_t hint : shed_hints) {
        max_hint = std::max(max_hint, hint);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(max_hint));
      service::ProcessClient& conn = *conns[0];
      const std::size_t retries = std::min<std::size_t>(shed_hints.size(), 20);
      for (std::size_t i = 0; i < retries; ++i) {
        service::JsonObject request;
        request["v"] = 2;
        request["id"] = "y" + std::to_string(i);
        request["method"] = std::string("map");
        request["design_text"] = over_designs[i % over_designs.size()];
        request["formulation"] = std::string("complete");
        request["deadline_ms"] = deadline_ms;
        if (!conn.send_line(service::Json(std::move(request)).dump())) break;
        const auto line = conn.read_line(60.0);
        if (!line.has_value()) break;
        ++retried;
        service::Response response;
        const service::JsonParseResult parsed = service::parse_json(*line);
        if (parsed.ok && service::Response::from_json(parsed.value, response) &&
            response.status != service::ResponseStatus::kRejected) {
          ++retry_accepted;
        }
      }
    }

    std::sort(latencies.begin(), latencies.end());
    const double p99 = percentile(latencies, 0.99);
    const double n = static_cast<double>(over_requests);
    const double shed_rate = static_cast<double>(shed) / n;
    const double retry_success =
        retried > 0 ? static_cast<double>(retry_accepted) /
                          static_cast<double>(retried)
                    : 0.0;
    std::printf("\noverload point: rate %d rps, %d requests, shed %.1f%%, "
                "p99 %.2f ms (under faults), retry-after honesty %lld/%lld\n",
                over_rate, over_requests, 100.0 * shed_rate, p99,
                static_cast<long long>(retry_accepted),
                static_cast<long long>(retried));
    json.write("overload",
               {bench::jnum("rate_rps", static_cast<double>(over_rate)),
                bench::jint("requests", over_requests),
                bench::jint("ok", ok), bench::jint("shed", shed),
                bench::jint("timeout", timeout), bench::jint("error", error),
                bench::jnum("shed_rate", shed_rate),
                bench::jnum("p99_under_faults_ms", p99),
                bench::jint("retry_attempts", retried),
                bench::jint("retry_accepted", retry_accepted),
                bench::jnum("retry_success_rate", retry_success)});
  }
  service::ProcessClient over_closer;
  if (over_closer.connect(over_socket)) {
    over_closer.send_line(R"({"method":"shutdown"})");
    over_closer.read_line(30.0);
  }
  if (over_server.wait_exit(30.0) != 0) exit_code = 1;

  std::remove(board_file.c_str());
  std::printf("\nJSON mirror: %s\n", json.path().c_str());
  return exit_code == 0 ? 0 : 1;
}
