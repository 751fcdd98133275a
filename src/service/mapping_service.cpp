#include "service/mapping_service.hpp"

#include <fstream>
#include <sstream>
#include <utility>

#include <cmath>

#include "arch/arch_io.hpp"
#include "design/design_io.hpp"
#include "mapping/complete_mapper.hpp"
#include "mapping/cost_model.hpp"
#include "mapping/pipeline.hpp"
#include "mapping/portfolio.hpp"
#include "mapping/remap.hpp"
#include "mapping/shard_mapper.hpp"
#include "mapping/validate.hpp"
#include "support/assert.hpp"
#include "support/fault.hpp"
#include "support/log.hpp"
#include "support/timer.hpp"

namespace gmm::service {

namespace {

using lp::SolveStatus;

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
      Response err;
      err.id = request.id;
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

  ilp::MipOptions mip;
  mip.cancel_token = token;
  mip.progress = progress;
  // The one shared mapping from wire knobs onto MipOptions (gap,
  // node/time budgets, basis cache, threads clamped to the server cap).
  apply_solver_knobs(request.knobs, options_.max_threads_per_solve, mip);

  // ---- solution cache: exact-hit replay ----------------------------------
  // Sharded solves bypass the cache entirely: their objective includes
  // the stitch transfer term, which the replay verifier cannot recompute
  // from a single-board CostTable.
  const bool cacheable =
      cache_.enabled() && !request.sharded && !request.knobs.no_cache;
  RequestFingerprint fp;
  RequestFingerprint fp_complete;  // portfolio only: the complete-keyed twin
  bool have_fp_complete = false;
  std::vector<std::size_t> type_by_rank;    // canonical rank -> flat index
  std::optional<CacheEntry> prior;          // near-miss seed (global path)
  bool verify_failed = false;
  bool near_miss = false;
  if (cacheable) {
    support::WallTimer replay_timer;
    fp = fingerprint_request(design, *board,
                             request.complete ? CachedFormulation::kComplete
                                              : CachedFormulation::kGlobal,
                             mip.rel_gap);  // the EFFECTIVE gap after knobs
    type_by_rank.resize(board->num_types());
    for (std::size_t t = 0; t < board->num_types(); ++t) {
      type_by_rank[fp.type_rank[t]] = t;
    }
    // A portfolio request probes BOTH single-solve keys: its winner is
    // cached under the winner's formulation (exactly as a single solve
    // would be), so a prior global OR complete proof satisfies the same
    // gap contract either way.
    std::vector<const RequestFingerprint*> probes{&fp};
    if (request.portfolio) {
      fp_complete = fingerprint_request(
          design, *board, CachedFormulation::kComplete, mip.rel_gap);
      have_fp_complete = true;
      probes.push_back(&fp_complete);
    }
    for (const RequestFingerprint* probe : probes) {
      std::optional<CacheEntry> hit = cache_.find(probe->full);
      // A colliding fingerprint whose conflict relation or parameters
      // over canonical ranks differ is another problem: a plain miss.
      if (!hit.has_value() || !hit->same_problem(*probe)) continue;
      // Replay through the canonical permutations, then RE-VERIFY against
      // THIS request's design and board: a poisoned entry degrades to a
      // verify-fail miss, never a wrong answer.
      std::vector<std::size_t> probe_type_by_rank(board->num_types());
      for (std::size_t t = 0; t < board->num_types(); ++t) {
        probe_type_by_rank[probe->type_rank[t]] = t;
      }
      mapping::GlobalAssignment replayed;
      mapping::DetailedMapping mapped;
      bool ok = hit->num_structures == design.size() &&
                hit->num_types == board->num_types() &&
                hit->type_of_by_rank.size() == design.size();
      if (ok) {
        std::vector<std::size_t> ds_by_rank(design.size());
        for (std::size_t d = 0; d < design.size(); ++d) {
          ds_by_rank[probe->structure_rank[d]] = d;
        }
        replayed.type_of.assign(design.size(), -1);
        for (std::size_t d = 0; d < design.size() && ok; ++d) {
          const int tr = hit->type_of_by_rank[probe->structure_rank[d]];
          ok = tr >= 0 && tr < static_cast<int>(board->num_types());
          if (ok) {
            replayed.type_of[d] = static_cast<int>(
                probe_type_by_rank[static_cast<std::size_t>(tr)]);
          }
        }
        for (const mapping::PlacedFragment& f : hit->fragments_by_rank) {
          if (!ok) break;
          ok = f.ds < design.size() && f.type < board->num_types();
          if (ok) {
            mapping::PlacedFragment placed = f;
            placed.ds = ds_by_rank[f.ds];
            placed.type = probe_type_by_rank[f.type];
            mapped.fragments.push_back(placed);
          }
        }
        mapped.success = ok;
      }
      if (ok) {
        ok = mapping::validate_mapping(design, *board, replayed, mapped)
                 .empty();
      }
      if (ok) {
        const mapping::CostTable table(design, *board);
        replayed.objective = table.assignment_objective(replayed.type_of);
        ok = std::abs(replayed.objective - hit->objective) <=
             1e-6 * std::max(1.0, std::abs(hit->objective));
      }
      // Injected entry corruption: the replay verified fine, but we
      // pretend it did not — driving the exact poison/cold-solve/alert
      // path a genuinely corrupted entry would take.
      if (ok && GMM_FAULT("cache.verify", "corrupt")) ok = false;
      if (ok) {
        {
          const std::scoped_lock lock(mutex_);
          ++stats_.cache.hits;
        }
        response.status = ResponseStatus::kOk;
        response.has_result = true;
        response.cached = true;
        response.solve_status = hit->solve_status;
        response.objective = replayed.objective;
        response.nodes = 0;
        response.seconds = replay_timer.seconds();
        response.retries = hit->retries;
        append_placements(response, design, *board, mapped);
        finish(std::move(response));
        return;
      }
      // Poison the colliding key: left in place it would verify-fail on
      // every future resubmission of this request.
      cache_.erase(probe->full);
      verify_failed = true;
      // Alert once per fingerprint — repeated corruption of the same
      // entry (or a hot key being resubmitted) must not storm the log.
      {
        const std::scoped_lock lock(mutex_);
        if (logged_poisoned_.insert(probe->full).second) {
          GMM_LOG(kWarn) << "cache: poisoned entry evicted, fingerprint "
                         << probe->full.hi << ":" << probe->full.lo
                         << " failed replay verification (request '" << id
                         << "'); answering with a cold solve";
        }
      }
    }
    // Near-miss warm re-solves stay a plain-global feature: a portfolio
    // request races cold (its lanes' value is finding the fast prover).
    if (!request.complete && !request.portfolio) {
      prior = cache_.find_structural(fp.structural);
      // Pins and the MIP start only carry over within one conflict
      // relation; a colliding structural key is a plain miss too.
      if (prior.has_value() && !prior->same_conflicts(fp)) prior.reset();
    }
  }

  // Every formulation lands in the same (status, assignment, detailed,
  // effort, mip) shape; retries and the shard counters are specific to
  // the pipeline/sharded paths.
  lp::SolveStatus status = SolveStatus::kNumericalFailure;
  mapping::GlobalAssignment assignment;
  mapping::DetailedMapping detailed;
  mapping::SolveEffort effort;        // behind the returned mapping
  mapping::SolveEffort total_effort;  // all work executed (= effort
                                      // except for sharded/portfolio)
  ilp::MipResult mip_result;
  mapping::ShardStats shard_stats;
  // Cache-insertion keying for the portfolio path: the winner's proof is
  // inserted exactly as the equivalent single solve would be, under the
  // winner's formulation key.  Sharded winners are never inserted (no
  // single-MIP proof to replay against).
  bool insert_allowed = true;
  bool insert_as_complete = request.complete;
  std::string portfolio_winner;       // stats histogram key, "" = no win
  std::int64_t portfolio_lanes = 0;
  std::int64_t portfolio_cancelled = 0;
  if (request.portfolio) {
    mapping::PortfolioOptions options;
    options.cancel_token = token;
    mapping::PipelineOptions base;
    base.global.mip = mip;
    const int lane_count =
        request.knobs.lanes >= 1 ? request.knobs.lanes : 3;
    options.lanes = mapping::default_portfolio_lanes(*board, lane_count, base);
    // The operator's per-solve parallelism budget covers the whole race:
    // lane workers x per-lane B&B threads stays within
    // max_threads_per_solve, mirroring the sharded fan-out policy.
    const auto budget = static_cast<std::size_t>(
        std::max(1, options_.max_threads_per_solve /
                        std::max(1, mip.num_threads)));
    support::ThreadPool race_pool(
        std::max<std::size_t>(std::min(budget, options.lanes.size()), 1));
    mapping::PortfolioResult result =
        mapping::solve_portfolio(race_pool, design, *board, options);
    status = result.status;
    assignment = std::move(result.assignment);
    detailed = std::move(result.detailed);
    effort = result.effort;
    total_effort = result.total_effort;
    mip_result = std::move(result.mip);
    response.retries = result.retries;
    response.lanes = static_cast<int>(result.lanes.size());
    response.winner = result.winner_name;
    response.lanes_cancelled = result.lanes_cancelled;
    if (result.shards > 1) response.shards = result.shards;
    portfolio_winner = result.winner_name;
    portfolio_lanes = static_cast<std::int64_t>(result.lanes.size());
    portfolio_cancelled = result.lanes_cancelled;
    if (result.winner >= 0) {
      const mapping::LaneKind kind =
          options.lanes[static_cast<std::size_t>(result.winner)].kind;
      insert_allowed = kind != mapping::LaneKind::kSharded;
      insert_as_complete = kind == mapping::LaneKind::kComplete;
    } else {
      insert_allowed = false;
    }
  } else if (request.sharded) {
    mapping::ShardOptions options;
    options.pipeline.global.mip = mip;
    // The operator's per-solve parallelism budget covers the whole
    // sharded solve: fan-out workers x per-candidate B&B threads stays
    // within max_threads_per_solve instead of each request spinning up
    // a hardware-concurrency pool of its own — and never more workers
    // than there are candidate solves to run.
    std::size_t usable = 0;
    for (std::size_t k = 0; k < board->num_devices(); ++k) {
      if (board->device_banks(k) > 0) ++usable;
    }
    const auto budget = static_cast<std::size_t>(
        std::max(1, options_.max_threads_per_solve /
                        std::max(1, mip.num_threads)));
    options.num_workers =
        std::max<std::size_t>(std::min(budget, usable * usable), 1);
    mapping::ShardResult result =
        mapping::map_sharded(design, *board, options);
    status = result.status;
    assignment = std::move(result.assignment);
    detailed = std::move(result.detailed);
    effort = result.effort;
    total_effort = result.total_effort;
    shard_stats = result.stats;
    response.retries = result.retries;
    response.shards = result.stats.shards;
    response.stitch_cost = result.stats.stitch_cost;
  } else if (request.complete) {
    const mapping::CostTable table(design, *board);
    mapping::CompleteOptions options;
    options.mip = mip;
    mapping::CompleteResult result =
        mapping::map_complete(design, *board, table, options);
    status = result.status;
    assignment = std::move(result.assignment);
    detailed = std::move(result.detailed);
    effort = result.effort;
    total_effort = effort;
    mip_result = std::move(result.mip);
  } else {
    mapping::PipelineOptions options;
    options.global.mip = mip;
    mapping::PipelineResult result;
    bool warm_solved = false;
    if (prior.has_value() && prior->num_structures == design.size() &&
        prior->num_types == board->num_types() &&
        prior->type_of_by_rank.size() == design.size()) {
      // NEAR MISS: same structure/board/contract, different traffic.
      // Re-solve incrementally from the cached assignment — B&B seeded
      // with the prior mapping, traffic-unchanged structures pinned, a
      // small migration term biasing toward stability (remap.hpp).  The
      // result is NOT inserted back: its optimality proof is for the
      // pinned model, and the cache only serves unconstrained proofs.
      std::vector<int> prior_type_of(design.size(), -1);
      mapping::RemapOptions remap_options;
      remap_options.pipeline = options;
      remap_options.migration_penalty = options_.near_miss_migration_penalty;
      bool aligned = true;
      for (std::size_t d = 0; d < design.size() && aligned; ++d) {
        const std::size_t r = fp.structure_rank[d];
        const int tr = prior->type_of_by_rank[r];
        aligned = tr >= 0 && tr < static_cast<int>(board->num_types());
        if (!aligned) break;
        prior_type_of[d] =
            static_cast<int>(type_by_rank[static_cast<std::size_t>(tr)]);
        if (fp.param_hash_by_rank[r] == prior->param_hash_by_rank[r]) {
          remap_options.pinned_structures.push_back(d);
        }
      }
      if (aligned) {
        mapping::RemapResult warm =
            mapping::remap(design, *board, prior_type_of, remap_options);
        result = std::move(warm.result);
        near_miss = true;
        warm_solved = true;
      }
    }
    if (!warm_solved) result = mapping::map_pipeline(design, *board, options);
    status = result.status;
    assignment = std::move(result.assignment);
    detailed = std::move(result.detailed);
    effort = result.effort;
    total_effort = effort;
    mip_result = std::move(result.mip);
    response.retries = result.retries;
  }

  // Fold this solve's effort into the aggregate counters the `stats`
  // method reports.  `total_effort` counts every solve the request
  // triggered — pipeline retries, and for sharded requests the whole
  // candidate fan-out including solves the stitch discarded — while the
  // response's own nodes/seconds fields (below) report only the work
  // behind the returned mapping.
  {
    const std::scoped_lock lock(mutex_);
    ++stats_.solves;
    stats_.nodes += total_effort.bnb_nodes;
    stats_.lp_iterations += total_effort.lp_iterations;
    stats_.refactorizations += total_effort.lp_refactorizations;
    stats_.basis += total_effort.basis;
    if (request.sharded) {
      ++stats_.sharded_requests;
      stats_.shard_solves += shard_stats.candidate_solves;
    }
    if (request.portfolio) {
      ++stats_.portfolio.requests;
      stats_.portfolio.lanes_launched += portfolio_lanes;
      stats_.portfolio.lanes_cancelled += portfolio_cancelled;
      if (!portfolio_winner.empty()) {
        ++stats_.portfolio.winners[portfolio_winner];
      }
    }
    // The request consulted the cache and a solve ran anyway: a miss
    // (near_misses / verify_fails break the misses down further).
    if (cacheable) {
      ++stats_.cache.misses;
      if (near_miss) ++stats_.cache.near_misses;
      if (verify_failed) ++stats_.cache.verify_fails;
    } else {
      ++stats_.cache.bypasses;
    }
  }

  response.status = classify(status, mip_result);
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
  if (verify_failed) response.degraded = 0;
  // A result payload only when the solve produced a usable mapping —
  // i.e. detailed placement succeeded.  This excludes both a
  // timeout/cancel/infeasible with no incumbent (whose
  // default-constructed objective of 0 would read as a perfect score)
  // and a retry-loop early exit whose stale global assignment never
  // packed (objective without placements).
  if (detailed.success && assignment.complete()) {
    response.has_result = true;
    response.solve_status = lp::to_string(status);
    if (mip_result.stop_reason != SolveStatus::kOptimal &&
        response.status != ResponseStatus::kStalled) {
      response.stop_reason = lp::to_string(mip_result.stop_reason);
    }
    response.objective = assignment.objective;
    response.nodes = effort.bnb_nodes;
    response.seconds = effort.total_seconds();
  }
  if (response.status == ResponseStatus::kError) {
    response.error =
        "solver failed: " + std::string(lp::to_string(status));
  }
  // Taxonomy for solve outcomes: timeouts, stalls, and internal solver
  // failures are transient server-side conditions (retryable); cancelled
  // and infeasible are deterministic for this request.
  response.retryable = response.status == ResponseStatus::kTimeout ||
                       response.status == ResponseStatus::kStalled ||
                       response.status == ResponseStatus::kError;
  if (detailed.success) append_placements(response, design, *board, detailed);

  // Insert only fully PROVED cold results: solve status optimal AND the
  // B&B ran to its proof (stop_reason optimal), so node/time budgets
  // never need to join the fingerprint and a replay is exactly what a
  // fresh solve would return.  Near-miss results stay out — their proof
  // is for the pinned model.
  const RequestFingerprint& insert_fp =
      insert_as_complete && have_fp_complete ? fp_complete : fp;
  if (cacheable && insert_allowed && !near_miss &&
      status == SolveStatus::kOptimal &&
      mip_result.stop_reason == SolveStatus::kOptimal && detailed.success &&
      assignment.complete() && assignment.type_of.size() == design.size()) {
    CacheEntry entry;
    entry.key = insert_fp.full;
    entry.structural = insert_fp.structural;
    entry.num_structures = design.size();
    entry.num_types = board->num_types();
    entry.type_of_by_rank.assign(design.size(), -1);
    bool canonical = true;
    for (std::size_t d = 0; d < design.size() && canonical; ++d) {
      const int t = assignment.type_of[d];
      canonical = t >= 0 && t < static_cast<int>(board->num_types());
      if (canonical) {
        entry.type_of_by_rank[insert_fp.structure_rank[d]] = static_cast<int>(
            insert_fp.type_rank[static_cast<std::size_t>(t)]);
      }
    }
    entry.fragments_by_rank.reserve(detailed.fragments.size());
    for (const mapping::PlacedFragment& f : detailed.fragments) {
      if (!canonical) break;
      canonical = f.ds < design.size() && f.type < board->num_types();
      if (canonical) {
        mapping::PlacedFragment canon = f;
        canon.ds = insert_fp.structure_rank[f.ds];
        canon.type = insert_fp.type_rank[f.type];
        entry.fragments_by_rank.push_back(canon);
      }
    }
    if (canonical) {
      entry.param_hash_by_rank = insert_fp.param_hash_by_rank;
      entry.conflicts_by_rank = insert_fp.conflicts_by_rank;
      entry.objective = assignment.objective;
      entry.retries = response.retries;
      entry.solve_status = lp::to_string(status);
      cache_.insert(std::move(entry));
    }
  }
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
