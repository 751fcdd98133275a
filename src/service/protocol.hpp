// The jsonl mapping-service wire protocol (one JSON object per line).
//
// Versioning: requests may carry "v" (1 or 2; absent means 1).  The v2
// envelope moves the solver knobs into a nested "options" object; v1
// flat requests keep working unchanged and are canonicalized onto the
// same internal form.  Responses echo the request's explicit "v" and
// omit it for unversioned requests, so legacy clients see byte-identical
// traffic.  Unknown request fields are ignored but COUNTED (the stats
// counter `unknown_field_requests`), so a misspelled field shows up in
// monitoring instead of vanishing; unknown keys INSIDE "options" are
// rejected outright — a silently dropped solver knob would return an
// answer under the wrong quality contract.  A line that fails to parse or
// validate is answered with status "error", echoing the "method" it named
// when that is a protocol method (none for a line that is not JSON), and
// counted in `protocol_errors`.
//
// Requests:
//   {"v":2,"id":"r1","method":"map","design_text":"...",
//    "options":{"gap":0.01,"max_nodes":100000,"time_limit_ms":5000,
//               "threads":2,"max_stored_bases":1024,"no_cache":true}, ...}
//     fields: "board" (catalog name; default = first loaded board),
//             "board_text" (inline board, overrides "board"),
//             "design_text" | "design_path" (exactly one required),
//             "formulation" ("global" — the paper's global/detailed
//             pipeline, default — "complete", the flat one-ILP
//             baseline; far slower on big boards — or "sharded", the
//             multi-device partition/fan-out/stitch mapper; on
//             single-device boards it degenerates to "global"),
//             "options" (per-request solver knobs, see
//             service/solver_knobs.hpp; out-of-range values terminate
//             the request with status "rejected"),
//             "deadline_ms" (request deadline incl. queue wait; absent =
//             none; 0 = already expired, i.e. reject unless trivial).
//     Legacy v1 flat fields, still accepted in any version:
//             "threads" (= options.threads; options wins when both
//             appear), "complete":true (= "formulation":"complete").
//   {"id":"c1","method":"cancel","target":"r1"}           cancel a request
//   {"id":"p1","method":"ping"}                           liveness probe
//   {"id":"s1","method":"stats"}                          service counters
//   {"method":"shutdown"}                                 drain and exit
//
// Responses (exactly one terminal response per map request, correlated by
// "id"; cancel/ping/shutdown are acknowledged synchronously):
//   {"id":"r1","method":"map","status":"ok","solve_status":"optimal",
//    "objective":123,"nodes":17,"seconds":0.04,"retries":0,
//    "placements":[{"segment":"s0","type":"blockram","instance":0,
//                   "first_port":0,"ports":1,"config":"256x16",
//                   "offset_bits":0,"block_bits":4096,"kind":"full"}, ...]}
//   status is one of: ok | timeout | cancelled | stalled | infeasible |
//   rejected | error.  timeout / cancelled responses still carry the
//   best-effort partial result when the stopped solve had an incumbent.
//   Every non-ok response carries "retryable" (true = transient
//   server-side condition, retrying may succeed; false = deterministic
//   outcome, retrying unchanged will fail again), and overload
//   rejections add "retry_after_ms", a backoff hint derived from the
//   observed queue delay.  "stalled" means the service watchdog
//   force-cancelled a solve that stopped making progress.  A "sharded"
//   map additionally reports "shards" (per-device sub-mappings stitched
//   together) and "stitch_cost" (the weighted inter-device transfer term
//   included in "objective").  A map answered from the solution cache
//   carries "cached":true (absent otherwise): the mapping replays a
//   previously PROVED solve of a fingerprint-identical request (same
//   formulation and gap), re-verified against this request's
//   design and board, so "objective" and "placements" are exactly what a
//   fresh solve would return while "nodes"/"seconds" report the
//   (near-zero) replay work.  Requests opt out with options.no_cache —
//   solve cold, insert nothing.
//
//   Every answer is certified first (mapping::certify_mapping: a legal
//   mapping whose "objective" is the cost recompute plus "stitch_cost").
//   A failed replay is evicted and solved cold (cache.verify_fails); a
//   failed fresh answer is a retryable "error" with no placements, never
//   cached (solver.certify_fails).
//
//   {"id":"s1","method":"stats","status":"ok","accepted":3,"rejected":0,
//    "completed":3,"cancelled":0,"timed_out":1,"stalled":0,
//    "shed_overload":0,"unknown_field_requests":0,"protocol_errors":0,
//    "solver":{"solves":3,"nodes":120,"lp_iterations":987,
//              "sharded_requests":1,"shard_solves":4,"certify_fails":0,
//              "bases_stored":64,"bases_loaded":60,"bases_evicted":0,
//              "cold_pops":4,"warm_pop_pivots":95,"cold_pop_pivots":310,
//              "basis_hit_rate":0.9375},
//    "cache":{"hits":9,"misses":3,"bypasses":1,"near_misses":2,
//             "verify_fails":0,"insertions":3,"evictions":0,"entries":3},
//    "transport":{"connections_opened":9,"connections_closed":1,
//                 "requests":120,"bytes_received":48213,
//                 "bytes_sent":391245,"responses_dropped":0,"shed":4}}
//   stats is answered synchronously: request accounting plus the solver
//   counters summed over every solve the service has completed.  The
//   "transport" object appears only when the server fronts socket
//   clients (see service/socket_server.hpp); the stdin/stdout pipe mode
//   never emits it.
//
// Deadline semantics: the clock starts when the request is accepted, so
// queue wait counts against it (options.time_limit_ms, by contrast,
// budgets the solve alone).  Cancel semantics: cancelling an in-flight
// request stops the branch & bound at its next node boundary; cancelling
// a queued request prevents it from starting.  Either way the request
// terminates with status "cancelled".  Cancelling an unknown or already
// finished id is acknowledged with "found":false.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "lp/basis.hpp"
#include "mapping/solve.hpp"
#include "service/json.hpp"
#include "service/solver_knobs.hpp"

namespace gmm::service {

enum class Method : std::uint8_t {
  kMap,
  kCancel,
  kPing,
  kStats,
  kShutdown,
  kInvalid,  // unparseable line or unknown method; `error` says why
};

/// Protocol versions the parser accepts ("v" absent parses as 1).
inline constexpr int kProtocolVersionMax = 2;

/// Monotonic counters for monitoring, the `stats` protocol method, and
/// the stress tests: request accounting plus the solver effort
/// aggregated over every completed solve (the `solver` wire object).
struct ServiceStats {
  std::int64_t accepted = 0;
  std::int64_t rejected = 0;
  std::int64_t completed = 0;  // terminal responses emitted, any status
  std::int64_t cancelled = 0;
  std::int64_t timed_out = 0;
  /// Solves the watchdog force-cancelled for making no progress; the
  /// request terminated with status "stalled".
  std::int64_t stalled = 0;
  /// Subset of `rejected`: requests shed by the adaptive overload control
  /// (observed queue delay above the shed threshold), not by a full
  /// queue or a bad request.  These all carried a retry_after_ms hint.
  std::int64_t shed_overload = 0;
  /// Requests (any method) that carried at least one unknown top-level
  /// field — ignored for compatibility, counted for monitoring.
  std::int64_t unknown_field_requests = 0;
  /// Lines answered with a protocol error (Method::kInvalid): not JSON,
  /// an unknown method, or a request that failed validation.
  std::int64_t protocol_errors = 0;

  // Aggregate solver counters, summed over completed solves (requests
  // that reached the solver; rejected/queue-cancelled ones never do).
  std::int64_t solves = 0;
  std::int64_t nodes = 0;          // branch & bound nodes
  std::int64_t lp_iterations = 0;  // dual-simplex pivots
  std::int64_t refactorizations = 0;  // LP basis (re)factorizations
  // Multi-device sharding: "sharded"-formulation requests solved, and
  // the per-device candidate pipelines they fanned out in total.
  std::int64_t sharded_requests = 0;
  std::int64_t shard_solves = 0;
  std::int64_t certify_fails = 0;  // fresh answers failing certification
  lp::BasisCacheStats basis;       // warm-start cache counters

  /// Solution-cache counters (the `cache` wire object).  Every ACCEPTED
  /// map request lands in exactly one of hits/misses/bypasses at its
  /// terminal response, so hits + misses + bypasses == completed map
  /// requests once the service is idle — the invariant the stress tests
  /// audit.
  struct Cache {
    std::int64_t hits = 0;    // exact replays served without a solve
    /// Cache consulted, no replay served: plain misses, near-miss warm
    /// re-solves, and verify failures all solve (warm or cold) and land
    /// here.
    std::int64_t misses = 0;
    /// Never consulted: options.no_cache, cache disabled (capacity 0),
    /// sharded formulation (its stitched objective cannot be re-verified
    /// by replay), or the request errored/cancelled before fingerprinting.
    std::int64_t bypasses = 0;
    std::int64_t near_misses = 0;   // subset of misses: warm remap ran
    std::int64_t verify_fails = 0;  // subset of misses: replay failed check
    std::int64_t insertions = 0;
    std::int64_t evictions = 0;
    std::int64_t entries = 0;       // gauge: entries currently stored
  };
  Cache cache;

  /// Socket-transport counters, folded in by the socket server (all zero
  /// in stdin/stdout mode; the wire omits the "transport" object then).
  struct Transport {
    std::int64_t connections_opened = 0;
    std::int64_t connections_closed = 0;
    std::int64_t requests = 0;        // protocol lines dispatched
    std::int64_t bytes_received = 0;
    std::int64_t bytes_sent = 0;
    /// Terminal responses whose client had already disconnected.
    std::int64_t responses_dropped = 0;
    /// Requests shed at admission (status "rejected") over sockets.
    std::int64_t shed = 0;
  };
  Transport transport;
};

/// A "map" request body.  Defaults chosen so an empty object is invalid
/// (no design) rather than accidentally expensive.
struct MapRequest {
  std::string board_name;   // catalog lookup; "" = first loaded board
  std::string board_text;   // inline board description; overrides the name
  std::string design_text;  // inline design description
  std::string design_path;  // or a file path the server reads
  mapping::Formulation formulation = mapping::Formulation::kGlobal;
  SolverKnobs knobs;        // per-request solver controls ("options")
  double deadline_ms = -1.0;  // < 0 = no deadline
};

struct Request {
  Method method = Method::kInvalid;
  /// Explicit protocol version: 0 when the request carried no "v"
  /// (semantically v1); responses echo it (and omit "v" for 0).
  int version = 0;
  std::string id;      // request correlation id ("" allowed except for map)
  std::string target;  // cancel: the id to cancel
  MapRequest map;      // valid when method == kMap
  std::string error;   // parse failure message when method == kInvalid
  /// The protocol method the line named ("map", "cancel", ...), kept
  /// when validation fails so the error response can echo it; "" when
  /// the line named none.
  std::string named_method;
  /// Structurally valid map request whose solver knobs were out of
  /// range: the service terminates it with status "rejected" and this
  /// message instead of solving under a contract the client never asked
  /// for.  Empty otherwise.
  std::string reject_reason;
  /// Unknown top-level fields seen (ignored-but-counted).
  int unknown_fields = 0;
};

/// Parse one protocol line.  Never throws; malformed input yields
/// Method::kInvalid with `error` set (and `id` and `named_method`
/// recovered when possible so the error response can still be
/// correlated).
Request parse_request_line(const std::string& line);

enum class ResponseStatus : std::uint8_t {
  kOk,
  kTimeout,
  kCancelled,
  /// The service watchdog force-cancelled the solve because it stopped
  /// making progress for the configured window (wedged worker, injected
  /// stall).  Retryable: the wedge is a server-side condition, not a
  /// property of the request.
  kStalled,
  kInfeasible,
  /// Admission refused — bounded queue full, overload shedding, a
  /// per-client quota, the id is still active (duplicate submission), or
  /// a solver knob was out of range.  Never a solve outcome: an in-flight
  /// request with the same id is unaffected and will still emit its own
  /// terminal response.  Overload rejections carry retry_after_ms.
  kRejected,
  kError,  // bad request, unknown board, parse failure, solver failure
};

const char* to_string(ResponseStatus status);

/// One placed fragment, the service-side mirror of mapping::PlacedFragment
/// with names resolved so clients need no board/design lookup tables.
struct PlacementEntry {
  std::string segment;
  std::string type;
  std::int64_t instance = 0;
  std::int64_t first_port = 0;
  std::int64_t ports = 0;
  std::string config;
  std::int64_t offset_bits = 0;
  std::int64_t block_bits = 0;
  std::string kind;
};

struct Response {
  std::string id;
  std::string method;  // echoes the request method
  /// Echo of the request's explicit "v"; 0 = omit from the wire (the
  /// request was unversioned, so the response stays byte-compatible).
  int v = 0;
  ResponseStatus status = ResponseStatus::kError;
  std::string error;   // set for error/rejected
  std::string target;  // cancel acks: the cancelled id
  bool found = false;  // cancel acks: target was active

  /// Error taxonomy, serialized on every non-ok response so clients can
  /// implement correct backoff without pattern-matching error strings:
  /// true = transient server-side condition (overload shed, queue full,
  /// quota, timeout, stall, internal solver failure) — retrying the same
  /// request may succeed; false = deterministic outcome (bad request,
  /// infeasible, cancelled, duplicate id, out-of-range knob) — retrying
  /// unchanged will fail again.
  bool retryable = false;
  /// Backoff hint on overload rejections, derived from the observed queue
  /// delay; serialized only when > 0.
  std::int64_t retry_after_ms = 0;
  /// Tri-state degradation marker: -1 = absent from the wire (the normal
  /// case), 0 = "degraded":false, 1 = "degraded":true.  A cache replay
  /// that failed re-verification answers with a fresh cold solve marked
  /// "degraded":false — corruption was detected and did NOT degrade the
  /// result.
  int degraded = -1;

  // Mapping payload (has_result == true when a solve produced a mapping;
  // timeout/cancelled responses may carry a partial incumbent's mapping).
  bool has_result = false;
  std::string solve_status;  // lp::to_string of the pipeline status
  std::string stop_reason;   // why the solve stopped early; "" when it ran out
  double objective = 0.0;
  std::int64_t nodes = 0;
  double seconds = 0.0;
  int retries = 0;
  /// True when the mapping was replayed from the solution cache instead
  /// of solved; serialized as "cached":true and omitted otherwise.
  bool cached = false;
  // Sharded-formulation extras (serialized only when shards > 0): number
  // of per-device sub-mappings stitched, and the inter-device transfer
  // cost already included in `objective`.
  int shards = 0;
  double stitch_cost = 0.0;
  std::vector<PlacementEntry> placements;

  // Stats payload (has_stats == true on a `stats` response).
  bool has_stats = false;
  ServiceStats stats;

  [[nodiscard]] Json to_json() const;
  /// Single protocol line (no trailing newline).
  [[nodiscard]] std::string to_line() const;
  /// Client-side decode; returns false on a structurally invalid response.
  static bool from_json(const Json& value, Response& out);
};

}  // namespace gmm::service
