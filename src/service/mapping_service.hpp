// Long-lived asynchronous mapping service.
//
// Boards are parsed once at startup (plus optional per-request inline
// boards) and shared read-only, while map requests fan out over a
// ThreadPool and solve through mapping::solve, which certifies every
// answer.  On top of that the service adds what a server needs:
//
//   * a BOUNDED admission queue — requests beyond `max_pending`
//     (queued + in-flight) are rejected immediately instead of building
//     unbounded memory pressure under overload;
//   * per-request DEADLINES — "deadline_ms" arms a CancelToken deadline
//     at admission, so queue wait counts against the budget and the
//     branch & bound's LP time limits are clamped to what remains;
//   * cooperative CANCELLATION — a cancel request flips the token, which
//     aborts an in-flight solve at its next node boundary and keeps a
//     queued request from ever starting;
//   * a fingerprint-keyed SOLUTION CACHE — an exact resubmission replays
//     a previously PROVED mapping (re-verified against this request)
//     instead of solving, and a traffic-only mutation re-solves
//     incrementally from the cached assignment (a near-miss prior)
//     (see service/solution_cache.hpp; per-request opt-out with
//     options.no_cache, disable with cache_capacity = 0);
//   * adaptive OVERLOAD SHEDDING — when the smoothed OBSERVED queue
//     delay (admission to worker pickup) exceeds shed_queue_delay_ms,
//     new requests are rejected at admission with a retry_after_ms
//     backoff hint instead of silently queuing toward their deadlines;
//   * a stall WATCHDOG — a running solve whose progress counter stops
//     advancing for watchdog_window_ms is force-cancelled and its
//     request terminates with status "stalled" (retryable);
//   * graceful DRAIN — drain() blocks until every admitted request has
//     emitted its terminal response, which is also the shutdown path.
//
// Threading: handle() may be called from one dispatcher thread (the serve
// loop); responses are delivered through the ResponseSink from worker
// threads and from handle() itself, concurrently — the sink must be
// thread-safe (the serve loop serializes writes with a mutex).  Every
// admitted map request produces exactly ONE terminal response, whatever
// races cancel/deadline/completion run into each other.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "arch/board.hpp"
#include "service/protocol.hpp"
#include "service/solution_cache.hpp"
#include "support/cancellation.hpp"
#include "support/thread_pool.hpp"

namespace gmm::service {

struct ServiceOptions {
  /// Concurrent mapping workers (0 = hardware concurrency).
  std::size_t workers = 1;
  /// Admission bound: queued + in-flight map requests.  Requests arriving
  /// beyond it get status "rejected".
  std::size_t max_pending = 64;
  /// Upper bound accepted for a request's "threads" field.
  int max_threads_per_solve = 8;
  /// Solution-cache capacity in entries (LRU); 0 disables the cache —
  /// every request then solves cold and counts as a bypass.
  std::size_t cache_capacity = 128;
  /// Migration-cost term for near-miss incremental re-solves: structures
  /// pay this much for leaving their cached bank type, biasing the delta
  /// solve toward the stable prior assignment.  The REPORTED objective
  /// stays pure (the penalty only steers the search); 0 disables it.
  double near_miss_migration_penalty = 1e-3;
  /// Adaptive overload shedding: when the EWMA of the OBSERVED queue
  /// delay (admission to worker pickup) exceeds this many milliseconds,
  /// new map requests are rejected at admission with a retry_after_ms
  /// hint.  Keyed on delay rather than depth: a queue of 60 sub-ms
  /// replays is healthy while a queue of 3 ten-second solves is not.
  /// Only requests that would actually wait (>= worker_count already
  /// pending) are shed — an idle server always admits, which is also how
  /// the smoothed signal recovers after an overload spike.
  /// 0 (the default) disables delay-keyed shedding; the bounded
  /// max_pending queue still applies.
  double shed_queue_delay_ms = 0.0;
  /// Stall watchdog window in milliseconds: a RUNNING solve whose
  /// progress counter (MipOptions::progress, bumped at node boundaries)
  /// does not advance for this long is force-cancelled and its request
  /// terminates with status "stalled".  Queued requests are exempt.  The
  /// window must comfortably exceed the longest single node LP the
  /// deployment expects (a legitimate solve bumps progress between
  /// nodes, but not during one).  0 (the default) disables the watchdog.
  double watchdog_window_ms = 0.0;
};

// ServiceStats (request accounting + aggregate solver counters) lives in
// service/protocol.hpp: it is also the `stats` method's wire payload.

class MappingService {
 public:
  using ResponseSink = std::function<void(const Response&)>;

  /// `boards` is the named catalog requests select with "board"; the first
  /// entry is the default.  May be empty, in which case every request must
  /// carry an inline "board_text".  Names should be unique — on a
  /// duplicate the FIRST board wins (mapper_serve refuses duplicates at
  /// startup).
  MappingService(std::vector<arch::Board> boards, ServiceOptions options,
                 ResponseSink sink);

  /// Drains outstanding requests before destruction.
  ~MappingService();

  MappingService(const MappingService&) = delete;
  MappingService& operator=(const MappingService&) = delete;

  /// Dispatch one parsed request.  kMap is answered asynchronously from a
  /// worker; kCancel/kPing/kStats (and kInvalid) are answered
  /// synchronously on the calling thread.  kShutdown is the caller's job
  /// (drain + exit) — passing it here just acks it without draining.
  void handle(const Request& request);

  /// Block until every admitted request has emitted its terminal response.
  /// New requests may still be admitted afterwards; the serve loop stops
  /// feeding handle() before draining for shutdown.
  void drain();

  [[nodiscard]] const arch::Board* find_board(const std::string& name) const;
  [[nodiscard]] ServiceStats stats() const;

 private:
  using Clock = std::chrono::steady_clock;

  /// Registry slot of one admitted, not-yet-terminal map request.
  struct ActiveRequest {
    support::CancelTokenPtr token;
    /// Solver liveness counter; registered by run_map when the worker
    /// picks the request up, nullptr while it waits in the queue (the
    /// watchdog only ever judges running solves).
    std::shared_ptr<std::atomic<std::int64_t>> progress;
    std::int64_t last_progress = 0;
    Clock::time_point last_change{};
  };

  void handle_map(const Request& request);
  void run_map(const std::string& id, int version, const MapRequest& request,
               const support::CancelTokenPtr& token, Clock::time_point admitted);
  /// Emit the terminal response for `id` and release its registry slot.
  void finish(Response response);
  /// Watchdog thread body: periodically sweep active_ for running solves
  /// whose progress counter has been flat for a full window and
  /// force-cancel them with the stalled cause.
  void watchdog_loop();

  std::vector<arch::Board> boards_;
  std::map<std::string, std::size_t> board_index_;
  ServiceOptions options_;
  ResponseSink sink_;
  /// Fingerprint-keyed store of proved mappings (internally locked; never
  /// taken while holding mutex_'s critical sections that sink responses).
  SolutionCache cache_;

  mutable std::mutex mutex_;
  std::condition_variable idle_cv_;
  std::map<std::string, ActiveRequest> active_;  // id -> registry slot
  std::size_t pending_ = 0;  // admitted, terminal response not yet emitted
  ServiceStats stats_;
  /// Smoothed admission-to-pickup delay in ms (guarded by mutex_), the
  /// overload signal the shedding threshold compares against.
  double queue_delay_ewma_ms_ = 0.0;

  /// Watchdog thread state; the thread only exists when
  /// options_.watchdog_window_ms > 0.
  std::condition_variable watchdog_cv_;
  bool watchdog_stop_ = false;  // guarded by mutex_
  std::thread watchdog_;

  /// Last so its destructor (which joins workers running run_map) fires
  /// before the members those workers touch are torn down.
  std::unique_ptr<support::ThreadPool> pool_;
};

}  // namespace gmm::service
