#include "service/mapping_service.hpp"

#include <fstream>
#include <sstream>
#include <utility>

#include "arch/arch_io.hpp"
#include "design/design_io.hpp"
#include "mapping/solve.hpp"
#include "support/assert.hpp"
#include "support/fault.hpp"
#include "support/log.hpp"
#include "support/timer.hpp"

namespace gmm::service {

namespace {

using lp::SolveStatus;

/// Migration-cost term for near-miss incremental re-solves: structures pay
/// this much for leaving their cached bank type, biasing the delta solve
/// toward the stable prior assignment.  The REPORTED objective stays pure
/// (the penalty only steers the search).
constexpr double kNearMissMigrationPenalty = 1e-3;

/// Map a finished pipeline run onto a wire status.  The mip stop_reason
/// disambiguates kFeasible results: an incumbent that survived a cancel
/// or deadline is still reported under the stopping status (with the
/// partial result attached) so clients see WHY their request ended.
ResponseStatus classify(lp::SolveStatus status,
                        const ilp::MipResult& mip) {
  switch (status) {
    case SolveStatus::kOptimal:
      return ResponseStatus::kOk;
    case SolveStatus::kFeasible:
      if (mip.stop_reason == SolveStatus::kCancelled) {
        return ResponseStatus::kCancelled;
      }
      if (mip.stop_reason == SolveStatus::kTimeLimit) {
        return ResponseStatus::kTimeout;
      }
      return ResponseStatus::kOk;
    case SolveStatus::kCancelled:
      return ResponseStatus::kCancelled;
    case SolveStatus::kTimeLimit:
      return ResponseStatus::kTimeout;
    case SolveStatus::kInfeasible:
      return ResponseStatus::kInfeasible;
    default:
      return ResponseStatus::kError;
  }
}

/// Resolve a detailed mapping's fragments into wire placement rows.
void append_placements(Response& response, const design::Design& design,
                       const arch::Board& board,
                       const mapping::DetailedMapping& detailed) {
  response.placements.reserve(detailed.fragments.size());
  for (const mapping::PlacedFragment& f : detailed.fragments) {
    const arch::BankType& type = board.type(f.type);
    PlacementEntry entry;
    entry.segment = design.at(f.ds).name;
    entry.type = type.name;
    entry.instance = f.instance;
    entry.first_port = f.first_port;
    entry.ports = f.ports;
    if (f.config_index >= 0 &&
        f.config_index < static_cast<int>(type.configs.size())) {
      entry.config =
          type.configs[static_cast<std::size_t>(f.config_index)].to_string();
    }
    entry.offset_bits = f.offset_bits;
    entry.block_bits = f.block_bits;
    entry.kind = mapping::to_string(f.kind);
    response.placements.push_back(std::move(entry));
  }
}

}  // namespace

MappingService::MappingService(std::vector<arch::Board> boards,
                               ServiceOptions options, ResponseSink sink)
    : boards_(std::move(boards)),
      options_(options),
      sink_(std::move(sink)),
      cache_(options.cache_capacity) {
  GMM_ASSERT(sink_ != nullptr, "MappingService needs a response sink");
  for (std::size_t i = 0; i < boards_.size(); ++i) {
    board_index_.emplace(boards_[i].name(), i);
  }
  if (options_.watchdog_window_ms > 0) {
    watchdog_ = std::thread([this] { watchdog_loop(); });
  }
  pool_ = std::make_unique<support::ThreadPool>(options_.workers);
}

MappingService::~MappingService() {
  drain();
  if (watchdog_.joinable()) {
    {
      const std::scoped_lock lock(mutex_);
      watchdog_stop_ = true;
    }
    watchdog_cv_.notify_all();
    watchdog_.join();
  }
}

void MappingService::watchdog_loop() {
  const auto window = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double, std::milli>(options_.watchdog_window_ms));
  // Sampling at a quarter window bounds detection latency by 1.25x the
  // window — comfortably inside the documented 2x-window guarantee even
  // with cancellation latency on top.
  const auto tick = std::max<Clock::duration>(
      window / 4, std::chrono::milliseconds(1));
  std::unique_lock lock(mutex_);
  while (!watchdog_stop_) {
    watchdog_cv_.wait_for(lock, tick, [this] { return watchdog_stop_; });
    if (watchdog_stop_) break;
    const Clock::time_point now = Clock::now();
    for (auto& [id, entry] : active_) {
      if (entry.progress == nullptr) continue;  // still queued
      const std::int64_t value =
          entry.progress->load(std::memory_order_relaxed);
      if (value != entry.last_progress) {
        entry.last_progress = value;
        entry.last_change = now;
        continue;
      }
      if (now - entry.last_change >= window && !entry.token->cancelled()) {
        GMM_LOG(kWarn) << "watchdog: request '" << id
                       << "' made no progress for "
                       << options_.watchdog_window_ms
                       << " ms, force-cancelling as stalled";
        entry.token->cancel_stalled();
      }
    }
  }
}

const arch::Board* MappingService::find_board(const std::string& name) const {
  if (name.empty()) return boards_.empty() ? nullptr : &boards_.front();
  const auto it = board_index_.find(name);
  return it == board_index_.end() ? nullptr : &boards_[it->second];
}

ServiceStats MappingService::stats() const {
  ServiceStats out;
  {
    const std::scoped_lock lock(mutex_);
    out = stats_;
  }
  // Gauges owned by the cache itself (its own lock; read after mutex_ so
  // they can only run AHEAD of the outcome counters, never behind).
  out.cache.insertions = cache_.insertions();
  out.cache.evictions = cache_.evictions();
  out.cache.entries = static_cast<std::int64_t>(cache_.size());
  return out;
}

void MappingService::drain() {
  std::unique_lock lock(mutex_);
  idle_cv_.wait(lock, [this] { return pending_ == 0; });
}

void MappingService::handle(const Request& request) {
  if (request.unknown_fields > 0) {
    const std::scoped_lock lock(mutex_);
    ++stats_.unknown_field_requests;
  }
  switch (request.method) {
    case Method::kMap:
      handle_map(request);
      return;
    case Method::kCancel: {
      Response ack;
      ack.id = request.id;
      ack.method = "cancel";
      ack.v = request.version;
      ack.status = ResponseStatus::kOk;
      ack.target = request.target;
      {
        const std::scoped_lock lock(mutex_);
        const auto it = active_.find(request.target);
        ack.found = it != active_.end();
        if (ack.found) it->second.token->cancel();
      }
      sink_(ack);
      return;
    }
    case Method::kPing: {
      Response pong;
      pong.id = request.id;
      pong.method = "ping";
      pong.v = request.version;
      pong.status = ResponseStatus::kOk;
      sink_(pong);
      return;
    }
    case Method::kStats: {
      Response snapshot;
      snapshot.id = request.id;
      snapshot.method = "stats";
      snapshot.v = request.version;
      snapshot.status = ResponseStatus::kOk;
      snapshot.has_stats = true;
      snapshot.stats = stats();
      sink_(snapshot);
      return;
    }
    case Method::kShutdown: {
      // Draining is the serve loop's job (it must stop feeding requests
      // first); acknowledge so a bare service user still gets a reply.
      Response ack;
      ack.id = request.id;
      ack.method = "shutdown";
      ack.v = request.version;
      ack.status = ResponseStatus::kOk;
      sink_(ack);
      return;
    }
    case Method::kInvalid: {
      {
        const std::scoped_lock lock(mutex_);
        ++stats_.protocol_errors;
      }
      Response err;
      err.id = request.id;
      err.method = request.named_method;
      err.v = request.version;
      err.status = ResponseStatus::kError;
      err.error = request.error.empty() ? "invalid request" : request.error;
      sink_(err);
      return;
    }
  }
}

void MappingService::handle_map(const Request& request) {
  Response reject;
  reject.id = request.id;
  reject.method = "map";
  reject.v = request.version;
  // Out-of-range solver knobs terminate the request here with status
  // "rejected" — never a silent clamp into a quality/effort contract the
  // client did not ask for (the per-solve thread CAP is the exception:
  // that is operator policy, applied in apply_solver_knobs).
  if (!request.reject_reason.empty()) {
    {
      const std::scoped_lock lock(mutex_);
      ++stats_.rejected;
    }
    reject.status = ResponseStatus::kRejected;
    reject.error = request.reject_reason;
    // A knob out of range is a client bug: resubmitting the same request
    // fails the same way, so no backoff hint and not retryable.
    sink_(reject);
    return;
  }
  auto token = std::make_shared<support::CancelToken>();
  const Clock::time_point admitted = Clock::now();
  {
    const std::scoped_lock lock(mutex_);
    // Shed only when this request would actually wait behind others: the
    // EWMA updates at worker pickups, so with an empty queue it is stale
    // evidence — admitting then lets the fresh near-zero pickup delays
    // drag the signal back down (otherwise one overload spike would shed
    // forever).
    const bool shed =
        options_.shed_queue_delay_ms > 0 &&
        queue_delay_ewma_ms_ > options_.shed_queue_delay_ms &&
        pending_ >= pool_->worker_count();
    if (active_.contains(request.id)) {
      // kRejected (not kError) keeps the wire unambiguous: "rejected"
      // always means THIS submission was refused at admission, never
      // that the in-flight solve behind the id failed — so a client
      // correlating by id cannot mistake it for the original request's
      // terminal response.  Does NOT release the original's slot.
      ++stats_.rejected;
      reject.status = ResponseStatus::kRejected;
      reject.error = "duplicate id '" + request.id + "' is still active";
    } else if (GMM_FAULT("service.admission", "reject")) {
      ++stats_.rejected;
      ++stats_.shed_overload;
      reject.status = ResponseStatus::kRejected;
      reject.error = "injected fault: admission shed";
      reject.retryable = true;
      reject.retry_after_ms = std::max<std::int64_t>(
          static_cast<std::int64_t>(queue_delay_ewma_ms_), 10);
    } else if (shed) {
      // Overload: the queue is moving too slowly for new work to meet
      // any reasonable expectation.  Shed now with an honest backoff
      // hint — the observed delay itself is the best estimate of when
      // capacity frees up.
      ++stats_.rejected;
      ++stats_.shed_overload;
      reject.status = ResponseStatus::kRejected;
      reject.error = "shed: observed queue delay " +
                     std::to_string(static_cast<long>(queue_delay_ewma_ms_)) +
                     " ms exceeds " +
                     std::to_string(
                         static_cast<long>(options_.shed_queue_delay_ms)) +
                     " ms";
      reject.retryable = true;
      reject.retry_after_ms = std::min<std::int64_t>(
          std::max<std::int64_t>(
              static_cast<std::int64_t>(queue_delay_ewma_ms_), 10),
          30000);
    } else if (pending_ >= options_.max_pending) {
      ++stats_.rejected;
      reject.status = ResponseStatus::kRejected;
      reject.error = "queue full (" + std::to_string(options_.max_pending) +
                     " pending)";
      reject.retryable = true;
      reject.retry_after_ms = std::max<std::int64_t>(
          static_cast<std::int64_t>(queue_delay_ewma_ms_), 10);
    } else {
      ++stats_.accepted;
      ++pending_;
      ActiveRequest slot;
      slot.token = token;
      active_.emplace(request.id, std::move(slot));
      reject.status = ResponseStatus::kOk;  // marker: admitted
    }
  }
  if (reject.status != ResponseStatus::kOk) {
    sink_(reject);
    return;
  }
  // The deadline clock starts at admission: queue wait counts.
  if (request.map.deadline_ms >= 0) {
    token->set_deadline_after_seconds(request.map.deadline_ms / 1000.0);
  }
  pool_->submit([this, id = request.id, v = request.version,
                 map = request.map, token, admitted] {
    run_map(id, v, map, token, admitted);
  });
}

void MappingService::run_map(const std::string& id, int version,
                             const MapRequest& request,
                             const support::CancelTokenPtr& token,
                             Clock::time_point admitted) {
  Response response;
  response.id = id;
  response.method = "map";
  response.v = version;

  // Fold this request's observed queue wait into the overload signal.
  // Recorded unconditionally (shedding enabled or not) so the EWMA is
  // warm the moment an operator turns the threshold on.
  {
    const double delay_ms =
        std::chrono::duration<double, std::milli>(Clock::now() - admitted)
            .count();
    const std::scoped_lock lock(mutex_);
    queue_delay_ewma_ms_ =
        queue_delay_ewma_ms_ == 0.0
            ? delay_ms
            : 0.7 * queue_delay_ewma_ms_ + 0.3 * delay_ms;
  }

  // A request whose token fired while queued never starts a solve.
  if (token->should_stop()) {
    response.status = token->cancelled() ? ResponseStatus::kCancelled
                                         : ResponseStatus::kTimeout;
    response.retryable = response.status == ResponseStatus::kTimeout;
    {
      const std::scoped_lock lock(mutex_);
      ++stats_.cache.bypasses;  // never reached the cache
    }
    finish(std::move(response));
    return;
  }

  // From here the solve is RUNNING: register the liveness counter so the
  // watchdog starts judging it.  The registration instant counts as the
  // last progress change, so a fresh solve gets one full window to
  // produce its first node.
  auto progress = std::make_shared<std::atomic<std::int64_t>>(0);
  {
    const std::scoped_lock lock(mutex_);
    const auto it = active_.find(id);
    if (it != active_.end()) {
      it->second.progress = progress;
      it->second.last_progress = 0;
      it->second.last_change = Clock::now();
    }
  }

  const auto bail = [&](std::string message) {
    response.status = ResponseStatus::kError;
    response.error = std::move(message);
    {
      const std::scoped_lock lock(mutex_);
      ++stats_.cache.bypasses;  // failed before the cache was consulted
    }
    finish(std::move(response));
  };

  // Resolve the board: inline text wins, else the named catalog entry.
  arch::Board inline_board;
  const arch::Board* board = nullptr;
  if (!request.board_text.empty()) {
    arch::BoardParseResult parsed =
        arch::parse_board_string(request.board_text);
    if (!parsed.ok) return bail("board_text: " + parsed.error);
    inline_board = std::move(parsed.board);
    board = &inline_board;
  } else {
    board = find_board(request.board_name);
    if (board == nullptr) {
      return bail(request.board_name.empty()
                      ? "no boards loaded and no board_text given"
                      : "unknown board '" + request.board_name + "'");
    }
  }

  // Resolve the design: inline text or a server-side file.
  std::string design_text = request.design_text;
  if (design_text.empty()) {
    std::ifstream file(request.design_path);
    if (!file) return bail("cannot open '" + request.design_path + "'");
    std::ostringstream content;
    content << file.rdbuf();
    design_text = content.str();
  }
  design::DesignParseResult parsed = design::parse_design_string(design_text);
  if (!parsed.ok) return bail("design: " + parsed.error);
  const design::Design& design = parsed.design;
  if (design.size() == 0) return bail("design has no segments");

  mapping::SolveSpec spec;
  spec.formulation = request.formulation;
  ilp::MipOptions& mip = spec.pipeline.global.mip;
  mip.cancel_token = token;
  mip.progress = progress;
  // The one shared mapping from wire knobs onto MipOptions (gap,
  // node/time budgets, basis cache, threads clamped to the server cap).
  apply_solver_knobs(request.knobs, options_.max_threads_per_solve, mip);
  spec.max_threads = options_.max_threads_per_solve;

  // Sharded solves bypass the cache entirely: their objective includes
  // the stitch transfer term, which a single-board replay cannot see.
  const bool sharded = request.formulation == mapping::Formulation::kSharded;
  const bool cacheable =
      cache_.enabled() && !sharded && !request.knobs.no_cache;
  CacheLookup lookup;
  if (cacheable) {
    const support::WallTimer replay_timer;
    // Keyed on the EFFECTIVE gap after knobs.
    lookup =
        cache_.lookup(design, *board, request.formulation, mip.rel_gap, id);
    if (lookup.hit) {
      {
        const std::scoped_lock lock(mutex_);
        ++stats_.cache.hits;
      }
      response.status = ResponseStatus::kOk;
      response.has_result = true;
      response.cached = true;
      response.solve_status = lookup.solve_status;
      response.objective = lookup.objective;
      response.seconds = replay_timer.seconds();
      response.retries = lookup.retries;
      append_placements(response, design, *board, lookup.replay);
      finish(std::move(response));
      return;
    }
    // NEAR MISS: same structure, board and contract, new traffic.
    spec.prior_type_of = lookup.prior_type_of;
    spec.pinned_structures = lookup.pinned_structures;
    spec.migration_penalty = kNearMissMigrationPenalty;
  }
  const mapping::SolveOutcome outcome = mapping::solve(design, *board, spec);

  // The `stats` counters charge every solve the request triggered
  // (retries and discarded shard candidates); the response's
  // nodes/seconds report only the work behind the returned mapping.
  {
    const std::scoped_lock lock(mutex_);
    ++stats_.solves;
    stats_.nodes += outcome.total_effort.bnb_nodes;
    stats_.lp_iterations += outcome.total_effort.lp_iterations;
    stats_.refactorizations += outcome.total_effort.lp_refactorizations;
    stats_.basis += outcome.total_effort.basis;
    if (!outcome.certify_failure.empty()) ++stats_.certify_fails;
    if (sharded) {
      ++stats_.sharded_requests;
      stats_.shard_solves += outcome.shard.candidate_solves;
    }
    // The request consulted the cache and a solve ran anyway: a miss
    // (near_misses / verify_fails break the misses down further).
    if (cacheable) {
      ++stats_.cache.misses;
      if (!spec.prior_type_of.empty()) ++stats_.cache.near_misses;
      if (lookup.verify_failed) ++stats_.cache.verify_fails;
    } else {
      ++stats_.cache.bypasses;
    }
  }

  response.status = classify(outcome.status, outcome.mip);
  // A watchdog kill travels through the ordinary cancellation machinery
  // (the solver stops with kCancelled); the token's cause upgrades the
  // wire status so clients can tell "you cancelled it" from "the server
  // killed a wedged solve" — only the latter is worth retrying.
  if (response.status == ResponseStatus::kCancelled && token->stalled()) {
    response.status = ResponseStatus::kStalled;
    response.stop_reason = "stalled";
  }
  // Verify-fail cold solves are explicitly NOT degraded: corruption was
  // detected and the client got a fresh full-fidelity solve.  The marker
  // (plus the verify_fails counter) is what monitoring alerts on.
  if (lookup.verify_failed) response.degraded = 0;
  response.retries = outcome.retries;
  // Multi-device answers report their shards and stitch term; a sharded
  // request always does (one shard on a single-device board).
  if (sharded || outcome.shard.shards > 1) {
    response.shards = outcome.shard.shards;
    response.stitch_cost = outcome.shard.stitch_cost;
  }
  // A result payload only with a certified mapping: never an objective
  // of 0 without an incumbent, nor one whose assignment never packed.
  if (outcome.has_mapping()) {
    response.has_result = true;
    response.solve_status = lp::to_string(outcome.status);
    if (outcome.mip.stop_reason != SolveStatus::kOptimal &&
        response.status != ResponseStatus::kStalled) {
      response.stop_reason = lp::to_string(outcome.mip.stop_reason);
    }
    response.objective = outcome.assignment.objective;
    response.nodes = outcome.effort.bnb_nodes;
    response.seconds = outcome.effort.total_seconds();
    append_placements(response, design, *board, outcome.detailed);
  }
  if (response.status == ResponseStatus::kError) {
    response.error =
        outcome.certify_failure.empty()
            ? "solver failed: " + std::string(lp::to_string(outcome.status))
            : "answer failed certification: " + outcome.certify_failure;
  }
  // Timeouts, stalls and internal failures (a failed certification
  // included) are transient; cancelled and infeasible are deterministic.
  response.retryable = response.status == ResponseStatus::kTimeout ||
                       response.status == ResponseStatus::kStalled ||
                       response.status == ResponseStatus::kError;
  if (cacheable) cache_.insert_solved(lookup, design, *board, outcome);
  finish(std::move(response));
}

void MappingService::finish(Response response) {
  // Deregister and COUNT before sinking: a cancel racing this completion
  // is acked found:false once the terminal response is (about to be) on
  // the wire — the protocol's "already finished" contract — and a client
  // that has read a terminal response must never see `stats` counters
  // that miss it (stats may run slightly ahead of the wire, never
  // behind).  But decrement pending_ only AFTER the sink: drain()
  // returning must guarantee every terminal response has been fully
  // written, or a shutdown ack could overtake the final result.
  {
    const std::scoped_lock lock(mutex_);
    active_.erase(response.id);
    ++stats_.completed;
    if (response.status == ResponseStatus::kCancelled) ++stats_.cancelled;
    if (response.status == ResponseStatus::kTimeout) ++stats_.timed_out;
    if (response.status == ResponseStatus::kStalled) ++stats_.stalled;
  }
  sink_(response);
  {
    const std::scoped_lock lock(mutex_);
    --pending_;
  }
  idle_cv_.notify_all();
}

}  // namespace gmm::service
