// In-process MappingService behavior: admission control, deadlines,
// cancellation (queued and in-flight), drain, and error paths.  The
// subprocess/jsonl path is covered by tests/integration; randomized
// schedules by tests/stress.
#include "service/mapping_service.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <mutex>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "arch/arch_io.hpp"
#include "arch/device_catalog.hpp"
#include "design/design_io.hpp"
#include "support/fault.hpp"
#include "workload/workload_gen.hpp"

namespace gmm::service {
namespace {

/// Thread-safe response collector used as the service sink.
class Collector {
 public:
  MappingService::ResponseSink sink() {
    return [this](const Response& r) {
      const std::scoped_lock lock(mutex_);
      responses_.push_back(r);
    };
  }

  [[nodiscard]] std::vector<Response> snapshot() const {
    const std::scoped_lock lock(mutex_);
    return responses_;
  }

  /// The single terminal response for a map id (fails the test if the
  /// exactly-once contract broke).
  [[nodiscard]] Response only(const std::string& id) const {
    const std::scoped_lock lock(mutex_);
    const Response* found = nullptr;
    int count = 0;
    for (const Response& r : responses_) {
      if (r.id == id && r.method == "map") {
        found = &r;
        ++count;
      }
    }
    EXPECT_EQ(count, 1) << "id " << id << " got " << count << " responses";
    return found != nullptr ? *found : Response{};
  }

 private:
  mutable std::mutex mutex_;
  std::vector<Response> responses_;
};

arch::Board test_board() {
  // The paper's largest Table-3 board shape: big enough that the slow
  // designs below solve for a while, harmless for the quick ones.
  const auto board = workload::board_from_totals(
      {.banks = 180, .ports = 265, .configs = 375});
  EXPECT_TRUE(board.has_value());
  return *board;
}

/// A design whose COMPLETE-formulation ILP on test_board() runs for
/// seconds (the global pipeline solves even 250-segment designs in tens
/// of milliseconds — too fast to be caught in flight by a cancel or a
/// deadline, which is exactly the paper's Table-3 point about the flat
/// formulation's size).
std::string slow_design_text(std::uint64_t seed = 5) {
  const arch::Board board = test_board();
  workload::DesignGenOptions gen;
  gen.num_segments = 64;
  gen.seed = seed;
  return design::design_to_string(workload::generate_design(board, gen));
}

std::string quick_design_text() {
  return "design quick\n"
         "segment coeffs depth 64 width 8\n"
         "segment window depth 128 width 8\n"
         "conflicts all\n";
}

Request map_request(const std::string& id, std::string design_text,
                    double deadline_ms = -1.0) {
  Request r;
  r.method = Method::kMap;
  r.id = id;
  r.map.design_text = std::move(design_text);
  r.map.deadline_ms = deadline_ms;
  return r;
}

/// A request that will keep its worker busy for seconds unless stopped.
Request slow_request(const std::string& id, double deadline_ms = -1.0) {
  Request r = map_request(id, slow_design_text(), deadline_ms);
  r.map.formulation = mapping::Formulation::kComplete;
  return r;
}

Request cancel_request(const std::string& target) {
  Request r;
  r.method = Method::kCancel;
  r.id = "cancel-" + target;
  r.target = target;
  return r;
}

TEST(MappingService, MapsAndPlacesEverySegment) {
  Collector out;
  MappingService service({test_board()}, {.workers = 2}, out.sink());
  service.handle(map_request("a", quick_design_text()));
  service.handle(map_request("b", quick_design_text()));
  service.drain();

  for (const char* id : {"a", "b"}) {
    const Response r = out.only(id);
    EXPECT_EQ(r.status, ResponseStatus::kOk) << r.error;
    EXPECT_EQ(r.solve_status, "optimal");
    std::set<std::string> placed;
    for (const PlacementEntry& p : r.placements) placed.insert(p.segment);
    EXPECT_EQ(placed, (std::set<std::string>{"coeffs", "window"}));
  }
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.accepted, 2);
  EXPECT_EQ(stats.completed, 2);
  EXPECT_EQ(stats.rejected, 0);
}

TEST(MappingService, InlineBoardOverridesCatalog) {
  Collector out;
  MappingService service({}, {.workers = 1}, out.sink());  // empty catalog
  Request r = map_request("inline", quick_design_text());
  r.map.board_text = arch::board_to_string(test_board());
  service.handle(r);
  service.drain();
  EXPECT_EQ(out.only("inline").status, ResponseStatus::kOk);
}

TEST(MappingService, ErrorPaths) {
  Collector out;
  MappingService service({test_board()}, {.workers = 1}, out.sink());
  Request unknown_board = map_request("ub", quick_design_text());
  unknown_board.map.board_name = "nonexistent";
  service.handle(unknown_board);

  Request bad_design = map_request("bd", "segment broken\n");
  service.handle(bad_design);

  Request empty_design = map_request("ed", "design hollow\n");
  service.handle(empty_design);

  Request bad_path = map_request("bp", "");
  bad_path.map.design_path = "/nonexistent/path/design.txt";
  service.handle(bad_path);

  Request bad_board_text = map_request("bb", quick_design_text());
  bad_board_text.map.board_text = "banktype oops\n";
  service.handle(bad_board_text);

  service.drain();
  for (const char* id : {"ub", "bd", "ed", "bp", "bb"}) {
    const Response r = out.only(id);
    EXPECT_EQ(r.status, ResponseStatus::kError) << id;
    EXPECT_FALSE(r.error.empty()) << id;
  }
}

TEST(MappingService, DuplicateActiveIdIsRejected) {
  Collector out;
  MappingService service({test_board()}, {.workers = 1}, out.sink());
  service.handle(slow_request("dup"));
  service.handle(map_request("dup", quick_design_text()));
  // Unblock the slow original so drain returns promptly.
  service.handle(cancel_request("dup"));
  service.drain();

  // The duplicate submission bounces with "rejected" — distinguishable
  // from the original's terminal response, which still arrives.
  int rejected = 0, terminal = 0;
  for (const Response& r : out.snapshot()) {
    if (r.id != "dup" || r.method != "map") continue;
    ++terminal;
    if (r.status == ResponseStatus::kRejected) ++rejected;
  }
  EXPECT_EQ(terminal, 2);
  EXPECT_EQ(rejected, 1);
  EXPECT_EQ(service.stats().rejected, 1);
}

TEST(MappingService, BoundedQueueRejectsOverflow) {
  Collector out;
  // One worker, admission bound 1: the slow request occupies the only
  // slot, so everything submitted behind it bounces with "rejected".
  MappingService service({test_board()}, {.workers = 1, .max_pending = 1},
                         out.sink());
  service.handle(slow_request("slow"));
  service.handle(map_request("r1", quick_design_text()));
  service.handle(map_request("r2", quick_design_text()));
  const Response r1 = out.only("r1");
  const Response r2 = out.only("r2");
  EXPECT_EQ(r1.status, ResponseStatus::kRejected);
  EXPECT_EQ(r2.status, ResponseStatus::kRejected);
  service.handle(cancel_request("slow"));  // shorten the tail
  service.drain();
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.accepted, 1);
  EXPECT_EQ(stats.rejected, 2);
  // `completed` counts terminal responses of ADMITTED requests; the two
  // rejections were answered synchronously at admission.
  EXPECT_EQ(stats.completed, 1);
}

TEST(MappingService, CancelQueuedRequestNeverStarts) {
  Collector out;
  MappingService service({test_board()}, {.workers = 1}, out.sink());
  service.handle(slow_request("running"));
  service.handle(map_request("queued", quick_design_text()));
  service.handle(cancel_request("queued"));
  service.handle(cancel_request("running"));
  service.drain();

  const Response queued = out.only("queued");
  EXPECT_EQ(queued.status, ResponseStatus::kCancelled);
  EXPECT_FALSE(queued.has_result);  // never reached the solver
  EXPECT_EQ(out.only("running").status, ResponseStatus::kCancelled);
}

TEST(MappingService, CancelInFlightStopsTheSolve) {
  Collector out;
  MappingService service({test_board()}, {.workers = 1}, out.sink());
  service.handle(slow_request("victim"));
  service.handle(cancel_request("victim"));
  service.drain();

  const Response r = out.only("victim");
  EXPECT_EQ(r.status, ResponseStatus::kCancelled);
  // The ack for the cancel itself reported the target as active.
  bool acked = false;
  for (const Response& resp : out.snapshot()) {
    if (resp.method == "cancel" && resp.target == "victim") {
      acked = true;
      EXPECT_TRUE(resp.found);
    }
  }
  EXPECT_TRUE(acked);
  EXPECT_EQ(service.stats().cancelled, 1);
}

TEST(MappingService, CancelUnknownTargetAcksNotFound) {
  Collector out;
  MappingService service({test_board()}, {.workers = 1}, out.sink());
  service.handle(cancel_request("ghost"));
  const std::vector<Response> responses = out.snapshot();
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].status, ResponseStatus::kOk);
  EXPECT_FALSE(responses[0].found);
}

TEST(MappingService, ExpiredDeadlineTimesOutWithoutSolving) {
  Collector out;
  MappingService service({test_board()}, {.workers = 1}, out.sink());
  service.handle(map_request("late", quick_design_text(), 0.0));
  service.drain();
  const Response r = out.only("late");
  EXPECT_EQ(r.status, ResponseStatus::kTimeout);
  EXPECT_FALSE(r.has_result);
  EXPECT_EQ(service.stats().timed_out, 1);
}

TEST(MappingService, DeadlineInterruptsInFlightSolve) {
  Collector out;
  MappingService service({test_board()}, {.workers = 1}, out.sink());
  // Long enough to reach the solver, far shorter than the solve.
  service.handle(slow_request("tight", 100.0));
  service.drain();
  EXPECT_EQ(out.only("tight").status, ResponseStatus::kTimeout);
}

TEST(MappingService, StatsMethodReportsRequestAndSolverCounters) {
  Collector out;
  MappingService service({test_board()}, {.workers = 2}, out.sink());

  // A fresh service reports zeros (and still answers synchronously).
  Request stats_request;
  stats_request.method = Method::kStats;
  stats_request.id = "s0";
  service.handle(stats_request);
  {
    const std::vector<Response> responses = out.snapshot();
    ASSERT_EQ(responses.size(), 1u);
    EXPECT_EQ(responses[0].method, "stats");
    EXPECT_EQ(responses[0].status, ResponseStatus::kOk);
    ASSERT_TRUE(responses[0].has_stats);
    EXPECT_EQ(responses[0].stats.accepted, 0);
    EXPECT_EQ(responses[0].stats.solves, 0);
    EXPECT_EQ(responses[0].stats.nodes, 0);
  }

  // One cold solve, one exact resubmission (a cache replay, not a
  // solve), and one pre-expired deadline (never reaches the solver).
  // Drain between the cold solve and the resubmission: with 2 workers
  // the service runs back-to-back submissions concurrently, and "b"
  // would race "a"'s cache insert — this test pins the stats contract,
  // not in-flight dedup (which the service deliberately does not do).
  service.handle(map_request("a", quick_design_text()));
  service.drain();
  service.handle(map_request("b", quick_design_text()));
  service.handle(map_request("late", quick_design_text(), 0.0));
  service.drain();
  EXPECT_EQ(out.only("a").status, ResponseStatus::kOk);
  EXPECT_EQ(out.only("b").status, ResponseStatus::kOk);
  EXPECT_TRUE(out.only("b").cached);
  EXPECT_EQ(out.only("late").status, ResponseStatus::kTimeout);

  stats_request.id = "s1";
  service.handle(stats_request);
  const std::vector<Response> responses = out.snapshot();
  const Response& stats = responses.back();
  EXPECT_EQ(stats.id, "s1");
  ASSERT_TRUE(stats.has_stats);
  EXPECT_EQ(stats.stats.accepted, 3);
  EXPECT_EQ(stats.stats.completed, 3);
  EXPECT_EQ(stats.stats.timed_out, 1);
  // Solver totals count only the requests that actually solved: the
  // replayed resubmission never touches the solver counters.
  EXPECT_EQ(stats.stats.solves, 1);
  EXPECT_GE(stats.stats.nodes, 1);
  EXPECT_GT(stats.stats.lp_iterations, 0);
  // Every admitted map request lands in exactly one cache bucket.
  EXPECT_EQ(stats.stats.cache.hits, 1);
  EXPECT_EQ(stats.stats.cache.misses, 1);
  EXPECT_EQ(stats.stats.cache.bypasses, 1);  // the pre-expired deadline
  EXPECT_LE(stats.stats.basis.loaded + stats.stats.basis.evicted,
            stats.stats.basis.stored);
  // Matches the programmatic accessor the serve loop logs from.
  const ServiceStats direct = service.stats();
  EXPECT_EQ(direct.solves, stats.stats.solves);
  EXPECT_EQ(direct.nodes, stats.stats.nodes);
  EXPECT_EQ(direct.lp_iterations, stats.stats.lp_iterations);
}

TEST(MappingService, ShardedFormulationMapsMultiDeviceBoards) {
  // A dual-device board via inline board_text: the sharded formulation
  // must succeed, report its shard count and stitch cost, and bump the
  // sharded solver counters; the same request against the single-device
  // catalog board degenerates to the pipeline (shards == 1,
  // stitch_cost == 0).
  const arch::Board dual =
      arch::split_across_devices(arch::single_fpga_board("XCV300", 4), 2);
  Collector out;
  MappingService service({test_board()}, {.workers = 1}, out.sink());

  Request sharded = map_request("sh", quick_design_text());
  sharded.map.formulation = mapping::Formulation::kSharded;
  sharded.map.board_text = arch::board_to_string(dual);
  service.handle(sharded);

  Request degenerate = map_request("deg", quick_design_text());
  degenerate.map.formulation = mapping::Formulation::kSharded;
  service.handle(degenerate);
  service.drain();

  const Response multi = out.only("sh");
  EXPECT_EQ(multi.status, ResponseStatus::kOk);
  ASSERT_TRUE(multi.has_result);
  EXPECT_GE(multi.shards, 1);
  EXPECT_GT(multi.stitch_cost, 0.0);
  EXPECT_FALSE(multi.placements.empty());

  const Response single = out.only("deg");
  EXPECT_EQ(single.status, ResponseStatus::kOk);
  ASSERT_TRUE(single.has_result);
  EXPECT_EQ(single.shards, 1);
  EXPECT_DOUBLE_EQ(single.stitch_cost, 0.0);

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.sharded_requests, 2);
  EXPECT_GE(stats.shard_solves, 2);

  // The degenerate sharded solve costs the same objective as global.
  Request global = map_request("glob", quick_design_text());
  service.handle(global);
  service.drain();
  EXPECT_DOUBLE_EQ(out.only("glob").objective, single.objective);
}

TEST(MappingService, RemovedPortfolioFormulationAndLanesKnobNeverSolve) {
  Collector out;
  MappingService service({test_board()}, {.workers = 1}, out.sink());
  JsonObject base;
  base["v"] = 2;
  base["method"] = std::string("map");
  base["design_text"] = quick_design_text();
  JsonObject race = base;
  race["id"] = std::string("race");
  race["formulation"] = std::string("portfolio");
  JsonObject lanes = base;
  lanes["id"] = std::string("lanes");
  JsonObject knobs;
  knobs["lanes"] = 2;
  lanes["options"] = std::move(knobs);
  for (const JsonObject& line : {race, lanes}) {
    service.handle(parse_request_line(Json(line).dump()));
  }
  service.drain();

  for (const auto& [id, status] :
       {std::pair{"race", ResponseStatus::kError},
        std::pair{"lanes", ResponseStatus::kRejected}}) {
    std::vector<Response> terminal;
    for (const Response& r : out.snapshot()) {
      if (r.id == id) terminal.push_back(r);
    }
    ASSERT_EQ(terminal.size(), 1u) << id;
    EXPECT_EQ(terminal[0].status, status) << id;
    EXPECT_NE(terminal[0].to_line().find("\"retryable\":false"),
              std::string::npos)
        << terminal[0].to_line();
  }
  EXPECT_EQ(service.stats().solves, 0);
}

TEST(MappingService, ProtocolErrorsEchoTheirMethodAndAreCounted) {
  Collector out;
  MappingService service({test_board()}, {.workers = 1}, out.sink());
  // A map line that fails validation answers as a map: a client matching
  // terminal responses by id and method finds it.
  service.handle(parse_request_line(
      R"({"v":2,"id":"p1","method":"map","design_text":"d",)"
      R"("formulation":"portfolio"})"));
  const Response error = out.only("p1");
  EXPECT_EQ(error.status, ResponseStatus::kError);
  EXPECT_EQ(error.v, 2);
  EXPECT_FALSE(error.error.empty());
  EXPECT_NE(error.to_line().find("\"method\":\"map\""), std::string::npos)
      << error.to_line();
  EXPECT_EQ(service.stats().protocol_errors, 1);

  // A line that is not JSON names no method, and counts all the same.
  service.handle(parse_request_line("not json"));
  const std::vector<Response> responses = out.snapshot();
  ASSERT_EQ(responses.size(), 2u);
  EXPECT_EQ(responses[1].status, ResponseStatus::kError);
  EXPECT_TRUE(responses[1].method.empty());
  EXPECT_EQ(responses[1].to_line().find("\"method\""), std::string::npos)
      << responses[1].to_line();

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.protocol_errors, 2);
  // Neither line was a request the service admitted or refused.
  EXPECT_EQ(stats.accepted, 0);
  EXPECT_EQ(stats.rejected, 0);
  EXPECT_EQ(stats.solves, 0);
  Request snapshot;
  snapshot.method = Method::kStats;
  snapshot.id = "s1";
  service.handle(snapshot);
  EXPECT_NE(out.snapshot().back().to_line().find("\"protocol_errors\":2"),
            std::string::npos)
      << out.snapshot().back().to_line();
}

class MappingServiceFault : public ::testing::Test {
 protected:
  void TearDown() override { support::global_faults().disarm(); }
};

TEST_F(MappingServiceFault, FailedCertificationIsARetryableErrorNeverCached) {
  std::string error;
  ASSERT_TRUE(support::global_faults().arm(
      "seed=1,mapping.certify:corrupt@once", error))
      << error;
  Collector out;
  MappingService service({test_board()}, {.workers = 1}, out.sink());
  service.handle(map_request("bad", quick_design_text()));
  service.drain();
  service.handle(map_request("good", quick_design_text()));
  service.drain();

  const Response bad = out.only("bad");
  EXPECT_EQ(bad.status, ResponseStatus::kError);
  EXPECT_TRUE(bad.retryable);
  EXPECT_FALSE(bad.has_result);
  EXPECT_TRUE(bad.placements.empty());
  EXPECT_NE(bad.error.find("certification"), std::string::npos) << bad.error;

  // Nothing was cached, so the resubmission solves (and certifies) anew.
  const Response good = out.only("good");
  ASSERT_EQ(good.status, ResponseStatus::kOk) << good.error;
  EXPECT_FALSE(good.cached);
  EXPECT_FALSE(good.placements.empty());

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.certify_fails, 1);
  EXPECT_EQ(stats.cache.hits, 0);
  EXPECT_EQ(stats.cache.misses, 2);
  EXPECT_EQ(stats.cache.insertions, 1);
}

TEST(MappingService, PingAndInvalidRespondSynchronously) {
  Collector out;
  MappingService service({test_board()}, {.workers = 1}, out.sink());
  Request ping;
  ping.method = Method::kPing;
  ping.id = "p1";
  service.handle(ping);
  Request invalid;
  invalid.method = Method::kInvalid;
  invalid.id = "junk";
  invalid.error = "unparseable";
  service.handle(invalid);
  const std::vector<Response> responses = out.snapshot();
  ASSERT_EQ(responses.size(), 2u);
  EXPECT_EQ(responses[0].method, "ping");
  EXPECT_EQ(responses[0].status, ResponseStatus::kOk);
  EXPECT_EQ(responses[1].status, ResponseStatus::kError);
  EXPECT_EQ(responses[1].error, "unparseable");
}

}  // namespace
}  // namespace gmm::service
