// Chaos lane (CTest label "stress"; the sanitizer CI lane runs it):
// spawn one real `mapper_serve --listen` with the fault injector armed
// across EVERY instrumented site — LU refactorization sabotage, basis
// corruption, injected solve stalls, allocation failures, json parse
// failures, admission rejects, cache corruption, failed answer
// certifications, and the full socket fault family (accept failures,
// short/EINTR/ECONNRESET reads and writes) — then hammer it with client
// storms.  Under that weather the
// server must still honor the hard contracts:
//
//   * every map id answered on a surviving connection is answered
//     EXACTLY once, and never cross-wired to a foreign client;
//   * the books converge to accepted == completed once idle — every
//     admitted request reached exactly one terminal status, whatever
//     faults its solve or its connection absorbed;
//   * the process survives (no crash, no wedge) and exits 0 on
//     shutdown, ASan+UBSan-clean in CI.
//
// Connections the server deliberately kills (ECONNRESET injections,
// accept faults, write failures) may cost their clients responses —
// that is degradation, not breakage, and the harness tolerates it.
// Three fixed fault-schedule seeds so a failure reproduces bit-exactly.
#include <gtest/gtest.h>

#ifndef _WIN32
#include <unistd.h>
#endif

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "arch/arch_io.hpp"
#include "design/design_io.hpp"
#include "service/json.hpp"
#include "service/process_client.hpp"
#include "service/protocol.hpp"
#include "support/fault.hpp"
#include "support/rng.hpp"
#include "workload/workload_gen.hpp"

namespace gmm::service {
namespace {

#ifndef GMM_MAPPER_SERVE_PATH
#define GMM_MAPPER_SERVE_PATH ""
#endif

constexpr double kReadTimeout = 60.0;

arch::Board chaos_board() {
  return *workload::board_from_totals(
      {.banks = 23, .ports = 45, .configs = 100});
}

std::string random_design_text(support::Rng& rng) {
  workload::DesignGenOptions gen;
  gen.num_segments = rng.uniform_int(3, 8);
  gen.seed = rng.next_u64();
  return design::design_to_string(
      workload::generate_design(chaos_board(), gen));
}

/// The full armed surface: every known site, mostly low-probability
/// schedules so sessions mix clean and faulted behavior.  ilp.node:stall
/// stays rare — each fire parks a worker for a watchdog window.
/// lu.refactor fires on every refactorization: only the complete-
/// formulation requests' LPs grow large enough to refactorize at all,
/// about twenty times across the three schedules.
std::string chaos_fault_spec(std::uint64_t seed) {
  return "seed=" + std::to_string(seed) +
         ",lu.refactor:singular@always"
         ",lp.basis_load:corrupt@0.02"
         ",ilp.node:stall@0.005"
         ",ilp.alloc:fail@0.02"
         ",service.json:fail@0.02"
         ",service.admission:reject@0.03"
         ",cache.verify:corrupt@0.05"
         ",mapping.certify:corrupt@0.05"
         ",socket.accept:fail@0.05"
         ",socket.read:short@0.02"
         ",socket.read:eintr@0.02"
         ",socket.read:econnreset@0.01"
         ",socket.write:partial@0.05"
         ",socket.write:eintr@0.02"
         ",socket.write:econnreset@0.005";
}

/// One storm session.  Returns via `violations` only for real contract
/// breaks (duplicate or cross-wired responses); everything a fault can
/// legitimately cost a client — a refused connect, a dropped connection,
/// missing responses — is tolerated silently.
void run_chaos_session(const std::string& endpoint, std::uint64_t seed,
                       bool deserter, std::atomic<int>& violations) {
  support::Rng rng(seed);
  ProcessClient client;
  if (!client.connect(endpoint, 10.0)) return;  // accept fault weather
  const int requests = static_cast<int>(rng.uniform_int(1, 8));
  std::set<std::string> mine;
  for (int i = 0; i < requests; ++i) {
    const std::string id =
        "c" + std::to_string(seed) + "-" + std::to_string(i);
    JsonObject request;
    request["id"] = id;
    request["method"] = std::string("map");
    request["design_text"] = random_design_text(rng);
    if (rng.bernoulli(0.25)) request["formulation"] = std::string("complete");
    if (rng.bernoulli(0.25)) {
      request["deadline_ms"] = rng.uniform_int(5, 200);
    }
    if (!client.send_line(Json(std::move(request)).dump())) return;
    mine.insert(id);
  }
  if (deserter) {
    if (rng.bernoulli(0.5)) client.close_stdin();
    std::this_thread::sleep_for(
        std::chrono::microseconds(rng.uniform_int(0, 3000)));
    return;  // destructor slams the socket mid-flight
  }
  if (rng.bernoulli(0.5)) client.close_stdin();
  std::set<std::string> answered;
  std::size_t eaten = 0;  // requests the json fault swallowed before the
                          // id was parsed: the error response has no id
  while (answered.size() + eaten < mine.size()) {
    const auto line = client.read_line(kReadTimeout);
    if (!line.has_value()) return;  // dropped/killed connection: tolerated
    const JsonParseResult parsed = parse_json(*line);
    Response response;
    if (!parsed.ok || !Response::from_json(parsed.value, response)) {
      ++violations;
      ADD_FAILURE() << "seed " << seed << ": unparseable response " << *line;
      return;
    }
    if (response.id.empty()) {
      // Every line on this connection is one of our maps, so an id-less
      // error response accounts for exactly one outstanding request.
      ++eaten;
      continue;
    }
    if (response.method != "map") continue;
    if (answered.count(response.id) != 0) {
      ++violations;
      ADD_FAILURE() << "seed " << seed << ": duplicate terminal response "
                    << response.id;
      return;
    }
    if (mine.count(response.id) == 0) {
      ++violations;
      ADD_FAILURE() << "seed " << seed << ": cross-wired response "
                    << response.id;
      return;
    }
    // Rejections must carry the taxonomy the README promises: a shed /
    // quota / admission-fault rejection is retryable with a backoff hint.
    if (response.status == ResponseStatus::kRejected && response.retryable &&
        response.retry_after_ms <= 0) {
      ++violations;
      ADD_FAILURE() << "seed " << seed
                    << ": retryable rejection without retry_after_ms";
      return;
    }
    answered.insert(response.id);
  }
}

/// Fetch stats until accepted == completed (the idle books), resilient
/// to audit connections the fault schedule itself eats.
bool converge_stats(const std::string& endpoint, ServiceStats& out) {
  int fetched = 0;
  for (int attempt = 0; attempt < 120; ++attempt) {
    ProcessClient audit;
    if (!audit.connect(endpoint, 5.0)) continue;
    for (int i = 0; i < 100; ++i) {
      const std::string id =
          "audit-" + std::to_string(attempt) + "-" + std::to_string(i);
      if (!audit.send_line(R"({"id":")" + id + R"(","method":"stats"})")) {
        break;  // connection died: reconnect
      }
      const auto line = audit.read_line(kReadTimeout);
      if (!line.has_value()) break;
      const JsonParseResult parsed = parse_json(*line);
      Response response;
      if (!parsed.ok || !Response::from_json(parsed.value, response) ||
          !response.has_stats) {
        continue;  // the json fault ate this audit request: resend
      }
      out = response.stats;
      ++fetched;
      if (out.accepted == out.completed && fetched > 1) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  }
  return false;
}

/// Ask the server to shut down, retrying across fault-killed connections
/// and json-fault-eaten requests until the ack lands or the process dies.
void request_shutdown(const std::string& endpoint) {
  for (int attempt = 0; attempt < 40; ++attempt) {
    ProcessClient c;
    if (!c.connect(endpoint, 2.0)) return;  // server already gone
    if (!c.send_line(R"({"method":"shutdown"})")) continue;
    const auto ack = c.read_line(10.0);
    if (ack.has_value() && ack->find("\"shutdown\"") != std::string::npos) {
      return;
    }
  }
}

void run_chaos_round(std::uint64_t fault_seed) {
  SCOPED_TRACE("fault seed " + std::to_string(fault_seed));
  const std::string board_file =
      "chaos_board_" + std::to_string(fault_seed) + ".txt";
  {
    std::ofstream out(board_file);
    ASSERT_TRUE(out.good());
    arch::write_board(out, chaos_board());
  }
  long pid = 0;
#ifndef _WIN32
  pid = static_cast<long>(::getpid());
#endif
  const std::string socket_path = "/tmp/gmm_chaos_" + std::to_string(pid) +
                                  "_" + std::to_string(fault_seed) + ".sock";
  ProcessClient server;
  if (!server.start(GMM_MAPPER_SERVE_PATH,
                    {board_file, "--workers", "4", "--queue", "32",
                     "--listen", socket_path, "--watchdog-ms", "400",
                     "--shed-delay-ms", "2000", "--max-inflight", "6",
                     "--faults", chaos_fault_spec(fault_seed)})) {
    GTEST_SKIP() << "cannot spawn subprocesses on this platform";
  }
  ASSERT_TRUE(server.read_line(kReadTimeout).has_value())
      << "no listening event";

  constexpr int kWaves = 2;
  constexpr int kClientsPerWave = 10;
  std::atomic<int> violations{0};
  support::Rng seeder(fault_seed * 1000003 + 17);
  for (int wave = 0; wave < kWaves; ++wave) {
    std::vector<std::thread> threads;
    threads.reserve(kClientsPerWave);
    for (int c = 0; c < kClientsPerWave; ++c) {
      const std::uint64_t seed = seeder.next_u64() % 1'000'000;
      const bool deserter = c % 4 == 0;
      threads.emplace_back([&, seed, deserter] {
        run_chaos_session(socket_path, seed, deserter, violations);
      });
    }
    for (std::thread& t : threads) t.join();
  }
  EXPECT_EQ(violations.load(), 0);

  // Exact accounting through the chaos: every admitted request reached
  // exactly one terminal status.
  ServiceStats stats;
  ASSERT_TRUE(converge_stats(socket_path, stats))
      << "books never converged: server lost or double-counted requests";
  EXPECT_EQ(stats.accepted, stats.completed);
  EXPECT_GT(stats.transport.requests, 0);

  request_shutdown(socket_path);
  EXPECT_EQ(server.wait_exit(60.0), 0) << "server crashed or wedged";
  std::remove(board_file.c_str());
}

TEST(ChaosStress, FaultScheduleSeed1) {
  if (std::string(GMM_MAPPER_SERVE_PATH).empty()) {
    GTEST_SKIP() << "mapper_serve path not configured";
  }
  run_chaos_round(1);
}

TEST(ChaosStress, FaultScheduleSeed2) {
  if (std::string(GMM_MAPPER_SERVE_PATH).empty()) {
    GTEST_SKIP() << "mapper_serve path not configured";
  }
  run_chaos_round(2);
}

TEST(ChaosStress, FaultScheduleSeed3) {
  if (std::string(GMM_MAPPER_SERVE_PATH).empty()) {
    GTEST_SKIP() << "mapper_serve path not configured";
  }
  run_chaos_round(3);
}

}  // namespace
}  // namespace gmm::service
