#include "service/protocol.hpp"

#include <gtest/gtest.h>

#include <string>

namespace gmm::service {
namespace {

TEST(Protocol, ParsesMapRequest) {
  const Request r = parse_request_line(
      R"({"id":"r1","method":"map","design_text":"design d\n","board":"xcv",)"
      R"("threads":4,"deadline_ms":2500})");
  ASSERT_EQ(r.method, Method::kMap);
  EXPECT_EQ(r.id, "r1");
  EXPECT_EQ(r.version, 0);  // no explicit "v": legacy, response omits it
  EXPECT_EQ(r.map.board_name, "xcv");
  EXPECT_EQ(r.map.design_text, "design d\n");
  EXPECT_EQ(r.map.knobs.threads, 4);
  EXPECT_DOUBLE_EQ(r.map.deadline_ms, 2500.0);
  EXPECT_TRUE(r.reject_reason.empty());
}

TEST(Protocol, MapDefaults) {
  const Request r = parse_request_line(
      R"({"id":"r","method":"map","design_path":"/tmp/x.txt"})");
  ASSERT_EQ(r.method, Method::kMap);
  EXPECT_EQ(r.map.knobs.threads, 1);
  EXPECT_LT(r.map.knobs.gap, 0.0);             // unset
  EXPECT_LT(r.map.knobs.max_nodes, 0);         // unset
  EXPECT_LT(r.map.knobs.time_limit_ms, 0.0);   // unset
  EXPECT_LT(r.map.deadline_ms, 0.0);           // no deadline
  EXPECT_TRUE(r.map.board_name.empty());
}

TEST(Protocol, RejectsBadMapRequests) {
  // Structural failures: missing id, missing design, both design forms,
  // bad deadline.  These are kInvalid (wire status "error").
  for (const char* line : {
           R"({"method":"map","design_text":"d"})",
           R"({"id":"r","method":"map"})",
           R"({"id":"r","method":"map","design_text":"d","design_path":"p"})",
           R"({"id":"r","method":"map","design_text":"d","deadline_ms":-5})",
       }) {
    const Request r = parse_request_line(line);
    EXPECT_EQ(r.method, Method::kInvalid) << line;
    EXPECT_FALSE(r.error.empty()) << line;
  }
}

TEST(Protocol, OutOfRangeKnobsRejectNotError) {
  // Structurally valid requests whose solver knobs are out of range stay
  // kMap with a reject_reason — the service answers status "rejected",
  // never solves under a contract the client didn't ask for.
  for (const char* line : {
           R"({"id":"r","method":"map","design_text":"d","threads":-1})",
           R"({"id":"r","method":"map","design_text":"d","threads":"four"})",
           R"({"v":2,"id":"r","method":"map","design_text":"d",)"
           R"("options":{"gap":1.5}})",
           R"({"v":2,"id":"r","method":"map","design_text":"d",)"
           R"("options":{"max_nodes":0}})",
           R"({"v":2,"id":"r","method":"map","design_text":"d",)"
           R"("options":{"time_limit_ms":-3}})",
           R"({"v":2,"id":"r","method":"map","design_text":"d",)"
           R"("options":{"max_stored_bases":-1}})",
           // Unknown keys INSIDE options reject: a silently dropped knob
           // would change the quality contract.
           R"({"v":2,"id":"r","method":"map","design_text":"d",)"
           R"("options":{"gapp":0.1}})",
           R"({"v":2,"id":"r","method":"map","design_text":"d",)"
           R"("options":"fast"})",
       }) {
    const Request r = parse_request_line(line);
    EXPECT_EQ(r.method, Method::kMap) << line;
    EXPECT_FALSE(r.reject_reason.empty()) << line;
    EXPECT_EQ(r.id, "r") << line;
  }
}

TEST(Protocol, ParsesV2Options) {
  const Request r = parse_request_line(
      R"({"v":2,"id":"r1","method":"map","design_text":"d","options":)"
      R"({"gap":0.05,"max_nodes":1000,"time_limit_ms":2500,"threads":3,)"
      R"("max_stored_bases":64}})");
  ASSERT_EQ(r.method, Method::kMap);
  EXPECT_EQ(r.version, 2);
  EXPECT_TRUE(r.reject_reason.empty()) << r.reject_reason;
  EXPECT_DOUBLE_EQ(r.map.knobs.gap, 0.05);
  EXPECT_EQ(r.map.knobs.max_nodes, 1000);
  EXPECT_DOUBLE_EQ(r.map.knobs.time_limit_ms, 2500.0);
  EXPECT_EQ(r.map.knobs.threads, 3);
  EXPECT_EQ(r.map.knobs.max_stored_bases, 64);
}

TEST(Protocol, OptionsWinOverLegacyThreads) {
  const Request r = parse_request_line(
      R"({"v":2,"id":"r1","method":"map","design_text":"d","threads":7,)"
      R"("options":{"threads":2}})");
  ASSERT_EQ(r.method, Method::kMap);
  EXPECT_EQ(r.map.knobs.threads, 2);
}

TEST(Protocol, VersionValidation) {
  EXPECT_EQ(parse_request_line(R"({"v":1,"method":"ping"})").version, 1);
  EXPECT_EQ(parse_request_line(R"({"v":2,"method":"ping"})").version, 2);
  // Unknown or malformed versions are structural errors, not silently
  // reinterpreted requests.
  EXPECT_EQ(parse_request_line(R"({"v":3,"method":"ping"})").method,
            Method::kInvalid);
  EXPECT_EQ(parse_request_line(R"({"v":0,"method":"ping"})").method,
            Method::kInvalid);
  EXPECT_EQ(parse_request_line(R"({"v":"two","method":"ping"})").method,
            Method::kInvalid);
}

TEST(Protocol, UnknownTopLevelFieldsIgnoredButCounted) {
  const Request r = parse_request_line(
      R"({"id":"r1","method":"map","design_text":"d","thraeds":4,)"
      R"("color":"blue"})");
  ASSERT_EQ(r.method, Method::kMap);  // still a valid request
  EXPECT_EQ(r.unknown_fields, 2);
  EXPECT_EQ(r.map.knobs.threads, 1);  // the typo did NOT set threads

  const Request clean = parse_request_line(
      R"({"id":"r2","method":"map","design_text":"d","threads":4})");
  EXPECT_EQ(clean.unknown_fields, 0);
}

TEST(Protocol, ResponseEchoesExplicitVersionOnly) {
  Response r;
  r.id = "r1";
  r.method = "ping";
  r.status = ResponseStatus::kOk;
  // Unversioned request (version 0): the wire stays byte-identical to
  // the v1 protocol — no "v" key at all.
  EXPECT_EQ(r.to_line().find("\"v\""), std::string::npos);
  r.v = 2;
  EXPECT_NE(r.to_line().find("\"v\":2"), std::string::npos);

  const JsonParseResult parsed = parse_json(r.to_line());
  ASSERT_TRUE(parsed.ok);
  Response back;
  ASSERT_TRUE(Response::from_json(parsed.value, back));
  EXPECT_EQ(back.v, 2);
}

TEST(Protocol, ErrorKeepsIdForCorrelation) {
  const Request r = parse_request_line(R"({"id":"r9","method":"frobnicate"})");
  EXPECT_EQ(r.method, Method::kInvalid);
  EXPECT_EQ(r.id, "r9");
  // Not a protocol method: nothing to echo.
  EXPECT_EQ(r.named_method, "");
}

TEST(Protocol, InvalidLinesKeepTheMethodTheyNamed) {
  // A line that names a protocol method keeps it through any validation
  // failure, so its error response can echo "method" beside "id".
  for (const auto& [line, method] : {
           std::pair{R"({"v":2,"id":"p1","method":"map","design_text":"d",)"
                     R"("formulation":"portfolio"})",
                     "map"},
           std::pair{R"({"id":"p2","method":"map"})", "map"},
           std::pair{R"({"v":7,"id":"p3","method":"map","design_text":"d"})",
                     "map"},
           std::pair{R"({"id":"p4","method":"map","design_text":"d",)"
                     R"("deadline_ms":-1})",
                     "map"},
           std::pair{R"({"id":"c1","method":"cancel"})", "cancel"},
           std::pair{R"({"v":"x","id":"s1","method":"stats"})", "stats"},
       }) {
    const Request r = parse_request_line(line);
    EXPECT_EQ(r.method, Method::kInvalid) << line;
    EXPECT_FALSE(r.error.empty()) << line;
    EXPECT_EQ(r.named_method, method) << line;
  }
  for (const char* line : {"not json", "[1,2]", "{}", R"({"method":7})"}) {
    const Request r = parse_request_line(line);
    EXPECT_EQ(r.method, Method::kInvalid) << line;
    EXPECT_EQ(r.named_method, "") << line;
  }
  EXPECT_EQ(parse_request_line(R"({"id":"p","method":"ping"})").named_method,
            "ping");
}

TEST(Protocol, ParsesControlMethods) {
  const Request cancel =
      parse_request_line(R"({"id":"c1","method":"cancel","target":"r1"})");
  ASSERT_EQ(cancel.method, Method::kCancel);
  EXPECT_EQ(cancel.target, "r1");
  EXPECT_EQ(parse_request_line(R"({"method":"cancel"})").method,
            Method::kInvalid);  // no target
  EXPECT_EQ(parse_request_line(R"({"method":"ping"})").method, Method::kPing);
  EXPECT_EQ(parse_request_line(R"({"method":"shutdown"})").method,
            Method::kShutdown);
  EXPECT_EQ(parse_request_line("not json").method, Method::kInvalid);
  EXPECT_EQ(parse_request_line("[1,2]").method, Method::kInvalid);
  EXPECT_EQ(parse_request_line("{}").method, Method::kInvalid);
}

TEST(Protocol, ParsesStatsRequest) {
  const Request stats =
      parse_request_line(R"({"id":"s1","method":"stats"})");
  ASSERT_EQ(stats.method, Method::kStats);
  EXPECT_EQ(stats.id, "s1");
  // Like ping, the id is optional (the response is synchronous anyway).
  EXPECT_EQ(parse_request_line(R"({"method":"stats"})").method,
            Method::kStats);
}

TEST(Protocol, ParsesShardedFormulation) {
  const Request r = parse_request_line(
      R"({"id":"r1","method":"map","design_text":"d","formulation":"sharded"})");
  ASSERT_EQ(r.method, Method::kMap);
  EXPECT_EQ(r.map.formulation, mapping::Formulation::kSharded);
  EXPECT_NE(r.map.formulation, mapping::Formulation::kComplete);

  const Request global = parse_request_line(
      R"({"id":"r2","method":"map","design_text":"d"})");
  ASSERT_EQ(global.method, Method::kMap);
  EXPECT_NE(global.map.formulation, mapping::Formulation::kSharded);

  const Request bad = parse_request_line(
      R"({"id":"r3","method":"map","design_text":"d","formulation":"mystery"})");
  EXPECT_EQ(bad.method, Method::kInvalid);
  EXPECT_NE(bad.error.find("sharded"), std::string::npos) << bad.error;
}

TEST(Protocol, RemovedPortfolioFormulationAndLanesKnobAreRefused) {
  // "portfolio" is not a formulation: the unknown-formulation error, which
  // names the three there are, never a silent "global".
  const Request race = parse_request_line(
      R"({"v":2,"id":"p1","method":"map","design_text":"d",)"
      R"("formulation":"portfolio"})");
  EXPECT_EQ(race.method, Method::kInvalid);
  EXPECT_EQ(race.id, "p1");
  for (const char* name : {"'global'", "'complete'", "'sharded'"}) {
    EXPECT_NE(race.error.find(name), std::string::npos) << race.error;
  }
  EXPECT_EQ(race.error.find("portfolio"), std::string::npos) << race.error;

  // "lanes" is not a knob: a rejection that names it.
  const Request lanes = parse_request_line(
      R"({"v":2,"id":"p2","method":"map","design_text":"d",)"
      R"("options":{"lanes":2}})");
  ASSERT_EQ(lanes.method, Method::kMap);
  EXPECT_NE(lanes.reject_reason.find("'lanes'"), std::string::npos)
      << lanes.reject_reason;
}

TEST(Protocol, ShardFieldsRoundTripOnMapResponses) {
  Response r;
  r.id = "m1";
  r.method = "map";
  r.status = ResponseStatus::kOk;
  r.has_result = true;
  r.solve_status = "optimal";
  r.objective = 1234.0;
  r.shards = 3;
  r.stitch_cost = 98765.0;

  const JsonParseResult parsed = parse_json(r.to_line());
  ASSERT_TRUE(parsed.ok) << parsed.error;
  Response back;
  ASSERT_TRUE(Response::from_json(parsed.value, back));
  ASSERT_TRUE(back.has_result);
  EXPECT_EQ(back.shards, 3);
  EXPECT_DOUBLE_EQ(back.stitch_cost, 98765.0);

  // Non-sharded responses keep the legacy wire shape: no shard keys.
  Response plain = r;
  plain.shards = 0;
  plain.stitch_cost = 0.0;
  EXPECT_EQ(plain.to_line().find("shards"), std::string::npos);
  EXPECT_EQ(plain.to_line().find("stitch_cost"), std::string::npos);
}

TEST(Protocol, StatsResponseRoundTrips) {
  Response r;
  r.id = "s1";
  r.method = "stats";
  r.status = ResponseStatus::kOk;
  r.has_stats = true;
  r.stats.sharded_requests = 4;
  r.stats.shard_solves = 17;
  r.stats.accepted = 9;
  r.stats.rejected = 2;
  r.stats.completed = 8;
  r.stats.cancelled = 1;
  r.stats.timed_out = 3;
  r.stats.solves = 7;
  r.stats.nodes = 1234;
  r.stats.lp_iterations = 56789;
  r.stats.basis.stored = 400;
  r.stats.basis.loaded = 350;
  r.stats.basis.evicted = 25;
  r.stats.basis.cold_pops = 60;
  r.stats.basis.warm_pop_pivots = 700;
  r.stats.basis.cold_pop_pivots = 5000;

  const JsonParseResult parsed = parse_json(r.to_line());
  ASSERT_TRUE(parsed.ok) << parsed.error;
  Response back;
  ASSERT_TRUE(Response::from_json(parsed.value, back));
  EXPECT_EQ(back.method, "stats");
  EXPECT_EQ(back.status, ResponseStatus::kOk);
  ASSERT_TRUE(back.has_stats);
  EXPECT_FALSE(back.has_result);
  EXPECT_EQ(back.stats.accepted, 9);
  EXPECT_EQ(back.stats.rejected, 2);
  EXPECT_EQ(back.stats.completed, 8);
  EXPECT_EQ(back.stats.cancelled, 1);
  EXPECT_EQ(back.stats.timed_out, 3);
  EXPECT_EQ(back.stats.solves, 7);
  EXPECT_EQ(back.stats.nodes, 1234);
  EXPECT_EQ(back.stats.lp_iterations, 56789);
  EXPECT_EQ(back.stats.sharded_requests, 4);
  EXPECT_EQ(back.stats.shard_solves, 17);
  EXPECT_EQ(back.stats.basis.stored, 400);
  EXPECT_EQ(back.stats.basis.loaded, 350);
  EXPECT_EQ(back.stats.basis.evicted, 25);
  EXPECT_EQ(back.stats.basis.cold_pops, 60);
  EXPECT_EQ(back.stats.basis.warm_pop_pivots, 700);
  EXPECT_EQ(back.stats.basis.cold_pop_pivots, 5000);
  // The wire also carries the derived hit rate for humans/dashboards.
  EXPECT_NE(r.to_line().find("\"basis_hit_rate\""), std::string::npos);
  // Pipe-mode stats never grew a transport section: the object appears
  // only once a socket front end recorded a connection.
  EXPECT_EQ(r.to_line().find("\"transport\""), std::string::npos);
}

TEST(Protocol, TransportStatsRoundTrip) {
  Response r;
  r.id = "s1";
  r.method = "stats";
  r.status = ResponseStatus::kOk;
  r.has_stats = true;
  r.stats.unknown_field_requests = 5;
  r.stats.protocol_errors = 3;
  r.stats.transport.connections_opened = 9;
  r.stats.transport.connections_closed = 4;
  r.stats.transport.requests = 120;
  r.stats.transport.bytes_received = 48213;
  r.stats.transport.bytes_sent = 391245;
  r.stats.transport.responses_dropped = 2;
  r.stats.transport.shed = 7;

  const JsonParseResult parsed = parse_json(r.to_line());
  ASSERT_TRUE(parsed.ok) << parsed.error;
  Response back;
  ASSERT_TRUE(Response::from_json(parsed.value, back));
  ASSERT_TRUE(back.has_stats);
  EXPECT_EQ(back.stats.unknown_field_requests, 5);
  EXPECT_EQ(back.stats.protocol_errors, 3);
  EXPECT_EQ(back.stats.transport.connections_opened, 9);
  EXPECT_EQ(back.stats.transport.connections_closed, 4);
  EXPECT_EQ(back.stats.transport.requests, 120);
  EXPECT_EQ(back.stats.transport.bytes_received, 48213);
  EXPECT_EQ(back.stats.transport.bytes_sent, 391245);
  EXPECT_EQ(back.stats.transport.responses_dropped, 2);
  EXPECT_EQ(back.stats.transport.shed, 7);
}

TEST(Protocol, ResponseRoundTrips) {
  Response r;
  r.id = "r1";
  r.method = "map";
  r.status = ResponseStatus::kTimeout;
  r.has_result = true;
  r.solve_status = "feasible";
  r.stop_reason = "time-limit";
  r.objective = 1234.0;
  r.nodes = 77;
  r.seconds = 0.125;
  r.retries = 1;
  PlacementEntry p;
  p.segment = "coeffs";
  p.type = "blockram";
  p.instance = 3;
  p.first_port = 1;
  p.ports = 1;
  p.config = "256x16";
  p.offset_bits = 1024;
  p.block_bits = 2048;
  p.kind = "full";
  r.placements.push_back(p);

  const JsonParseResult parsed = parse_json(r.to_line());
  ASSERT_TRUE(parsed.ok) << parsed.error;
  Response back;
  ASSERT_TRUE(Response::from_json(parsed.value, back));
  EXPECT_EQ(back.id, r.id);
  EXPECT_EQ(back.status, ResponseStatus::kTimeout);
  EXPECT_EQ(back.solve_status, "feasible");
  EXPECT_EQ(back.stop_reason, "time-limit");
  EXPECT_DOUBLE_EQ(back.objective, 1234.0);
  EXPECT_EQ(back.nodes, 77);
  EXPECT_EQ(back.retries, 1);
  ASSERT_EQ(back.placements.size(), 1u);
  EXPECT_EQ(back.placements[0].segment, "coeffs");
  EXPECT_EQ(back.placements[0].config, "256x16");
  EXPECT_EQ(back.placements[0].block_bits, 2048);
  EXPECT_EQ(back.placements[0].kind, "full");
}

TEST(Protocol, CancelAckRoundTrips) {
  Response ack;
  ack.id = "c1";
  ack.method = "cancel";
  ack.status = ResponseStatus::kOk;
  ack.target = "r1";
  ack.found = true;
  const JsonParseResult parsed = parse_json(ack.to_line());
  ASSERT_TRUE(parsed.ok);
  Response back;
  ASSERT_TRUE(Response::from_json(parsed.value, back));
  EXPECT_EQ(back.target, "r1");
  EXPECT_TRUE(back.found);
  EXPECT_FALSE(back.has_result);
}

TEST(Protocol, FromJsonRejectsGarbage) {
  Response out;
  EXPECT_FALSE(Response::from_json(Json(1.0), out));
  const JsonParseResult no_status = parse_json(R"({"id":"x"})");
  ASSERT_TRUE(no_status.ok);
  EXPECT_FALSE(Response::from_json(no_status.value, out));
  const JsonParseResult bad_status =
      parse_json(R"({"id":"x","status":"sideways"})");
  ASSERT_TRUE(bad_status.ok);
  EXPECT_FALSE(Response::from_json(bad_status.value, out));
}

}  // namespace
}  // namespace gmm::service
