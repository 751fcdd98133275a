#include "service/protocol.hpp"

#include <array>
#include <optional>
#include <string_view>

#include "support/fault.hpp"

namespace gmm::service {

namespace {

/// Count the top-level fields of `object` that are not in `known`.
/// Unknown fields are tolerated (forward compatibility: a v3 client
/// talking to a v2 server should degrade, not break) but surfaced
/// through the `unknown_field_requests` stat so drift is visible.
template <std::size_t N>
int count_unknown_fields(const Json& object,
                         const std::array<std::string_view, N>& known) {
  int unknown = 0;
  for (const auto& [key, value] : object.as_object()) {
    (void)value;
    bool found = false;
    for (const std::string_view k : known) {
      if (key == k) {
        found = true;
        break;
      }
    }
    if (!found) ++unknown;
  }
  return unknown;
}

}  // namespace

Request parse_request_line(const std::string& line) {
  Request request;
  if (GMM_FAULT("service.json", "fail")) {
    request.error = "injected fault: json parse failure";
    return request;
  }
  const JsonParseResult parsed = parse_json(line);
  if (!parsed.ok) {
    request.error = "bad json: " + parsed.error;
    return request;
  }
  const Json& object = parsed.value;
  if (!object.is_object()) {
    request.error = "request must be a json object";
    return request;
  }
  // Recover the id, method and version first so even a malformed request
  // gets a correlated, version-echoing error response.
  request.id = object.get_string("id");
  const std::string method = object.get_string("method");
  if (method == "map" || method == "cancel" || method == "ping" ||
      method == "stats" || method == "shutdown") {
    request.named_method = method;
  }
  const Json* version = object.find("v");
  if (version != nullptr) {
    if (!version->is_number() || version->as_number() < 1 ||
        version->as_number() > kProtocolVersionMax ||
        version->as_number() !=
            static_cast<double>(static_cast<int>(version->as_number()))) {
      request.error = "'v' must be an integer in [1, " +
                      std::to_string(kProtocolVersionMax) + "]";
      return request;
    }
    request.version = static_cast<int>(version->as_number());
  }

  if (method == "map") {
    static constexpr std::array<std::string_view, 12> kKnown = {
        "v",           "id",          "method",  "board",
        "board_text",  "design_text", "design_path", "formulation",
        "complete",    "threads",     "deadline_ms", "options"};
    request.unknown_fields = count_unknown_fields(object, kKnown);
    request.map.board_name = object.get_string("board");
    request.map.board_text = object.get_string("board_text");
    request.map.design_text = object.get_string("design_text");
    request.map.design_path = object.get_string("design_path");
    if (request.id.empty()) {
      request.error = "map requests need an 'id' to correlate the response";
      return request;
    }
    if (request.map.design_text.empty() == request.map.design_path.empty()) {
      request.error =
          "map requests need exactly one of 'design_text' or 'design_path'";
      return request;
    }
    // "formulation" wins over the oldest-style flat "complete":true flag.
    const std::optional<mapping::Formulation> formulation =
        mapping::parse_formulation(object.get_string(
            "formulation",
            object.get_bool("complete", false) ? "complete" : "global"));
    if (!formulation.has_value()) {
      request.error = "'formulation' must be 'global', 'complete' or 'sharded'";
      return request;
    }
    request.map.formulation = *formulation;
    const Json* deadline = object.find("deadline_ms");
    if (deadline != nullptr) {
      if (!deadline->is_number() || deadline->as_number() < 0) {
        request.error = "'deadline_ms' must be a non-negative number";
        return request;
      }
      request.map.deadline_ms = deadline->as_number();
    }
    // Solver knobs last: the request is structurally valid by now, so an
    // out-of-range knob is a REJECTION (kMap + reject_reason), not a
    // protocol error — the client spoke the protocol fine and asked for
    // a contract the server refuses.
    request.method = Method::kMap;
    std::string reject;
    if (!parse_solver_knobs(object, request.map.knobs, reject)) {
      request.reject_reason = std::move(reject);
    }
  } else if (method == "cancel") {
    static constexpr std::array<std::string_view, 4> kKnown = {
        "v", "id", "method", "target"};
    request.unknown_fields = count_unknown_fields(object, kKnown);
    request.target = object.get_string("target");
    if (request.target.empty()) {
      request.error = "cancel requests need a 'target' id";
      return request;
    }
    request.method = Method::kCancel;
  } else if (method == "ping" || method == "stats" || method == "shutdown") {
    static constexpr std::array<std::string_view, 3> kKnown = {"v", "id",
                                                              "method"};
    request.unknown_fields = count_unknown_fields(object, kKnown);
    request.method = method == "ping"    ? Method::kPing
                     : method == "stats" ? Method::kStats
                                         : Method::kShutdown;
  } else if (method.empty()) {
    request.error = "missing 'method'";
  } else {
    request.error = "unknown method '" + method + "'";
  }
  return request;
}

const char* to_string(ResponseStatus status) {
  switch (status) {
    case ResponseStatus::kOk:
      return "ok";
    case ResponseStatus::kTimeout:
      return "timeout";
    case ResponseStatus::kCancelled:
      return "cancelled";
    case ResponseStatus::kStalled:
      return "stalled";
    case ResponseStatus::kInfeasible:
      return "infeasible";
    case ResponseStatus::kRejected:
      return "rejected";
    case ResponseStatus::kError:
      return "error";
  }
  return "?";
}

Json Response::to_json() const {
  JsonObject object;
  if (!id.empty()) object["id"] = id;
  if (!method.empty()) object["method"] = method;
  if (v > 0) object["v"] = v;
  object["status"] = std::string(to_string(status));
  if (!error.empty()) object["error"] = error;
  // The taxonomy rides on every non-ok response; ok responses (and the
  // synchronous acks, which are always ok) keep their legacy shape.
  if (status != ResponseStatus::kOk) object["retryable"] = retryable;
  if (retry_after_ms > 0) object["retry_after_ms"] = retry_after_ms;
  if (degraded >= 0) object["degraded"] = degraded > 0;
  // Outside the has_result block: a stalled solve with no incumbent has
  // no result payload but still owes the client its stop reason.
  if (!stop_reason.empty()) object["stop_reason"] = stop_reason;
  if (!target.empty()) {
    object["target"] = target;
    object["found"] = found;
  }
  if (has_result) {
    object["solve_status"] = solve_status;
    object["objective"] = objective;
    object["nodes"] = nodes;
    object["seconds"] = seconds;
    object["retries"] = retries;
    if (cached) object["cached"] = true;
    if (shards > 0) {
      object["shards"] = static_cast<std::int64_t>(shards);
      object["stitch_cost"] = stitch_cost;
    }
    JsonArray rows;
    rows.reserve(placements.size());
    for (const PlacementEntry& p : placements) {
      JsonObject row;
      row["segment"] = p.segment;
      row["type"] = p.type;
      row["instance"] = p.instance;
      row["first_port"] = p.first_port;
      row["ports"] = p.ports;
      row["config"] = p.config;
      row["offset_bits"] = p.offset_bits;
      row["block_bits"] = p.block_bits;
      row["kind"] = p.kind;
      rows.emplace_back(std::move(row));
    }
    object["placements"] = std::move(rows);
  }
  if (has_stats) {
    object["accepted"] = stats.accepted;
    object["rejected"] = stats.rejected;
    object["completed"] = stats.completed;
    object["cancelled"] = stats.cancelled;
    object["timed_out"] = stats.timed_out;
    object["stalled"] = stats.stalled;
    object["shed_overload"] = stats.shed_overload;
    object["unknown_field_requests"] = stats.unknown_field_requests;
    object["protocol_errors"] = stats.protocol_errors;
    JsonObject solver;
    solver["solves"] = stats.solves;
    solver["nodes"] = stats.nodes;
    solver["lp_iterations"] = stats.lp_iterations;
    solver["refactorizations"] = stats.refactorizations;
    solver["sharded_requests"] = stats.sharded_requests;
    solver["shard_solves"] = stats.shard_solves;
    solver["certify_fails"] = stats.certify_fails;
    solver["bases_stored"] = stats.basis.stored;
    solver["bases_loaded"] = stats.basis.loaded;
    solver["bases_evicted"] = stats.basis.evicted;
    solver["cold_pops"] = stats.basis.cold_pops;
    solver["warm_pop_pivots"] = stats.basis.warm_pop_pivots;
    solver["cold_pop_pivots"] = stats.basis.cold_pop_pivots;
    solver["basis_hit_rate"] = stats.basis.hit_rate();
    object["solver"] = std::move(solver);
    JsonObject cache;
    cache["hits"] = stats.cache.hits;
    cache["misses"] = stats.cache.misses;
    cache["bypasses"] = stats.cache.bypasses;
    cache["near_misses"] = stats.cache.near_misses;
    cache["verify_fails"] = stats.cache.verify_fails;
    cache["insertions"] = stats.cache.insertions;
    cache["evictions"] = stats.cache.evictions;
    cache["entries"] = stats.cache.entries;
    object["cache"] = std::move(cache);
    // Only a socket-fronted server has transport traffic; the pipe mode
    // keeps its legacy wire shape.
    if (stats.transport.connections_opened > 0) {
      JsonObject transport;
      transport["connections_opened"] = stats.transport.connections_opened;
      transport["connections_closed"] = stats.transport.connections_closed;
      transport["requests"] = stats.transport.requests;
      transport["bytes_received"] = stats.transport.bytes_received;
      transport["bytes_sent"] = stats.transport.bytes_sent;
      transport["responses_dropped"] = stats.transport.responses_dropped;
      transport["shed"] = stats.transport.shed;
      object["transport"] = std::move(transport);
    }
  }
  return Json(std::move(object));
}

std::string Response::to_line() const { return to_json().dump(); }

bool Response::from_json(const Json& value, Response& out) {
  if (!value.is_object()) return false;
  out = Response{};
  out.id = value.get_string("id");
  out.method = value.get_string("method");
  out.v = static_cast<int>(value.get_number("v", 0.0));
  const std::string status = value.get_string("status");
  bool known = false;
  for (const ResponseStatus s :
       {ResponseStatus::kOk, ResponseStatus::kTimeout,
        ResponseStatus::kCancelled, ResponseStatus::kStalled,
        ResponseStatus::kInfeasible, ResponseStatus::kRejected,
        ResponseStatus::kError}) {
    if (status == to_string(s)) {
      out.status = s;
      known = true;
      break;
    }
  }
  if (!known) return false;
  out.error = value.get_string("error");
  out.target = value.get_string("target");
  out.found = value.get_bool("found", false);
  out.retryable = value.get_bool("retryable", false);
  out.retry_after_ms =
      static_cast<std::int64_t>(value.get_number("retry_after_ms", 0.0));
  const Json* degraded = value.find("degraded");
  if (degraded != nullptr && degraded->is_bool()) {
    out.degraded = degraded->as_bool() ? 1 : 0;
  }
  out.stop_reason = value.get_string("stop_reason");
  const Json* solve_status = value.find("solve_status");
  if (solve_status != nullptr && solve_status->is_string()) {
    out.has_result = true;
    out.solve_status = solve_status->as_string();
    out.stop_reason = value.get_string("stop_reason");
    out.objective = value.get_number("objective", 0.0);
    out.nodes = static_cast<std::int64_t>(value.get_number("nodes", 0.0));
    out.seconds = value.get_number("seconds", 0.0);
    out.retries = static_cast<int>(value.get_number("retries", 0.0));
    out.cached = value.get_bool("cached", false);
    out.shards = static_cast<int>(value.get_number("shards", 0.0));
    out.stitch_cost = value.get_number("stitch_cost", 0.0);
    const Json* rows = value.find("placements");
    if (rows != nullptr && rows->is_array()) {
      for (const Json& row : rows->as_array()) {
        if (!row.is_object()) return false;
        PlacementEntry p;
        p.segment = row.get_string("segment");
        p.type = row.get_string("type");
        p.instance =
            static_cast<std::int64_t>(row.get_number("instance", 0.0));
        p.first_port =
            static_cast<std::int64_t>(row.get_number("first_port", 0.0));
        p.ports = static_cast<std::int64_t>(row.get_number("ports", 0.0));
        p.config = row.get_string("config");
        p.offset_bits =
            static_cast<std::int64_t>(row.get_number("offset_bits", 0.0));
        p.block_bits =
            static_cast<std::int64_t>(row.get_number("block_bits", 0.0));
        p.kind = row.get_string("kind");
        out.placements.push_back(std::move(p));
      }
    }
  }
  if (out.method == "stats" && value.find("accepted") != nullptr) {
    out.has_stats = true;
    const auto count = [&value](const char* key) {
      return static_cast<std::int64_t>(value.get_number(key, 0.0));
    };
    out.stats.accepted = count("accepted");
    out.stats.rejected = count("rejected");
    out.stats.completed = count("completed");
    out.stats.cancelled = count("cancelled");
    out.stats.timed_out = count("timed_out");
    out.stats.stalled = count("stalled");
    out.stats.shed_overload = count("shed_overload");
    out.stats.unknown_field_requests = count("unknown_field_requests");
    out.stats.protocol_errors = count("protocol_errors");
    const Json* solver = value.find("solver");
    if (solver != nullptr && solver->is_object()) {
      const auto scount = [solver](const char* key) {
        return static_cast<std::int64_t>(solver->get_number(key, 0.0));
      };
      out.stats.solves = scount("solves");
      out.stats.nodes = scount("nodes");
      out.stats.lp_iterations = scount("lp_iterations");
      out.stats.refactorizations = scount("refactorizations");
      out.stats.sharded_requests = scount("sharded_requests");
      out.stats.shard_solves = scount("shard_solves");
      out.stats.certify_fails = scount("certify_fails");
      out.stats.basis.stored = scount("bases_stored");
      out.stats.basis.loaded = scount("bases_loaded");
      out.stats.basis.evicted = scount("bases_evicted");
      out.stats.basis.cold_pops = scount("cold_pops");
      out.stats.basis.warm_pop_pivots = scount("warm_pop_pivots");
      out.stats.basis.cold_pop_pivots = scount("cold_pop_pivots");
    }
    const Json* cache = value.find("cache");
    if (cache != nullptr && cache->is_object()) {
      const auto ccount = [cache](const char* key) {
        return static_cast<std::int64_t>(cache->get_number(key, 0.0));
      };
      out.stats.cache.hits = ccount("hits");
      out.stats.cache.misses = ccount("misses");
      out.stats.cache.bypasses = ccount("bypasses");
      out.stats.cache.near_misses = ccount("near_misses");
      out.stats.cache.verify_fails = ccount("verify_fails");
      out.stats.cache.insertions = ccount("insertions");
      out.stats.cache.evictions = ccount("evictions");
      out.stats.cache.entries = ccount("entries");
    }
    const Json* transport = value.find("transport");
    if (transport != nullptr && transport->is_object()) {
      const auto tcount = [transport](const char* key) {
        return static_cast<std::int64_t>(transport->get_number(key, 0.0));
      };
      out.stats.transport.connections_opened = tcount("connections_opened");
      out.stats.transport.connections_closed = tcount("connections_closed");
      out.stats.transport.requests = tcount("requests");
      out.stats.transport.bytes_received = tcount("bytes_received");
      out.stats.transport.bytes_sent = tcount("bytes_sent");
      out.stats.transport.responses_dropped = tcount("responses_dropped");
      out.stats.transport.shed = tcount("shed");
    }
  }
  return true;
}

}  // namespace gmm::service
