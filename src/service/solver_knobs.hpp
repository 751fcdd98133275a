// Per-request solver knobs: the single place where the wire protocol's
// solver controls are defined, validated, and mapped onto ilp::MipOptions.
//
// The v2 request envelope carries them in a nested "options" object
// ({"gap":0.01,"max_nodes":100000,"time_limit_ms":5000,"threads":2,
//   "max_stored_bases":1024}); the legacy v1 flat field "threads" is
// canonicalized into the same struct, so protocol parsing and
// MipOptions construction never drift apart.  Every knob has a sentinel
// "unset" value meaning "keep the solver default" — an empty options
// object changes nothing.
//
// Validation REJECTS out-of-range values (the request terminates with
// wire status "rejected" and a message naming the knob) instead of
// silently clamping: a client asking for gap 5.0 or -3 threads has a
// bug, and a clamped solve would return an answer whose quality
// contract the client never agreed to.
#pragma once

#include <cstdint>
#include <string>

#include "ilp/mip_solver.hpp"
#include "service/json.hpp"

namespace gmm::service {

/// One request's solver controls.  Sentinels (< 0) mean "unset — keep
/// the MipOptions default"; `threads` uses 0 for "the server's per-solve
/// cap" to match the v1 wire contract.
struct SolverKnobs {
  /// Relative optimality gap, in [0, 1].  Unset keeps MipOptions'
  /// 1e-4 (the paper's CPLEX default).
  double gap = -1.0;
  /// Branch & bound node budget, in [1, kMaxNodes].
  std::int64_t max_nodes = -1;
  /// Solve wall-clock budget in milliseconds, in
  /// [kMinTimeLimitMs, kMaxTimeLimitMs].  Unlike the request-level
  /// "deadline_ms" (whose clock starts at admission, so queue wait
  /// counts), this budgets the SOLVE only.  The wire parser REJECTS
  /// values below kMinTimeLimitMs — 0 in particular is ambiguous
  /// ("no time" vs "no limit") and is never accepted.  Programmatic
  /// callers that set 0.0 directly get an already-expired budget
  /// (time_limit_seconds = 0.0 → the solver stops with kTimeLimit at
  /// its first check); only the unset sentinel (< 0) keeps MipOptions'
  /// infinite default.
  double time_limit_ms = -1.0;
  /// B&B workers for this solve, in [0, kMaxThreads]; 0 = the server's
  /// per-solve cap.  Always further clamped to that cap.
  int threads = 1;
  /// LP basis warm-start cache size, in [0, kMaxStoredBases]; 0 disables
  /// the cache.  Unset keeps MipOptions' 4096.
  std::int64_t max_stored_bases = -1;
  /// Bypass the service's solution cache for this request: always solve
  /// cold, never insert the result.  A service-layer knob — it does not
  /// touch MipOptions (apply_solver_knobs ignores it).
  bool no_cache = false;

  /// Accepted ranges (rejecting, not clamping, beyond them).
  static constexpr std::int64_t kMaxNodes = 50'000'000;
  static constexpr double kMinTimeLimitMs = 1.0;
  static constexpr double kMaxTimeLimitMs = 3'600'000.0;  // one hour
  static constexpr int kMaxThreads = 1024;
  static constexpr std::int64_t kMaxStoredBases = 1'048'576;
};

/// Parse the knobs a map request carries: the nested "options" object
/// when present, plus the legacy flat "threads" field (options wins when
/// both name the same knob).  Returns false with `reject_reason` naming
/// the offending knob on any out-of-range or mistyped value; unknown
/// keys INSIDE "options" are also rejected (a misspelled knob silently
/// ignored would hand back an answer under the wrong quality contract).
bool parse_solver_knobs(const Json& request, SolverKnobs& out,
                        std::string& reject_reason);

/// Map the knobs onto a solve's MipOptions.  `max_threads_per_solve` is
/// the server's per-solve parallelism cap (ServiceOptions): a thread ask
/// of 0 means "the cap", and any explicit ask is clamped to it — the cap
/// is operator policy, not a client error.
void apply_solver_knobs(const SolverKnobs& knobs, int max_threads_per_solve,
                        ilp::MipOptions& mip);

}  // namespace gmm::service
