#include "ilp/mip_solver.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>

#include "ilp/cover_cuts.hpp"
#include "lp/presolve.hpp"
#include "lp/standard_form.hpp"
#include "support/assert.hpp"
#include "support/fault.hpp"
#include "support/log.hpp"
#include "support/thread_pool.hpp"
#include "support/timer.hpp"

namespace gmm::ilp {

namespace {

using lp::Index;
using lp::kInf;
using lp::kIntTol;
using lp::SolveStatus;

/// One branching decision relative to the parent node.
struct BoundChange {
  Index var = lp::kInvalidIndex;
  double lb = 0.0, ub = 0.0;
};

/// Immutable node payload; children share their ancestors through the
/// parent chain, so a node costs O(1) memory regardless of depth.  The
/// shared_ptr chains are the only cross-thread node state and are never
/// mutated after construction.
struct NodeData {
  std::shared_ptr<const NodeData> parent;
  BoundChange change;
  int depth = 0;
};

/// Mutable (under heap_mutex_) holder for one cached basis snapshot.  The
/// indirection lets the eviction FIFO clear a snapshot that is still
/// referenced by a queued OpenNode: the node keeps its slot, the basis
/// inside is gone, and the pop falls back to a cold solve.
struct BasisSlot {
  std::shared_ptr<const lp::Basis> basis;
};

/// Relaxation fixings in reduced space, published once under heap_mutex_
/// and shared read-only by every worker that pops a node afterwards.
using Fixings = std::vector<BoundChange>;

struct OpenNode {
  double bound = -kInf;  // parent LP objective: a valid lower bound
  std::uint64_t seq = 0;  // FIFO tie-break keeps the search deterministic
  std::shared_ptr<const NodeData> data;
  /// The PARENT's optimal basis, snapshot when this node was pushed; the
  /// popping worker warm-starts from it so re-deriving this node's LP
  /// costs pivots proportional to one branching change.  Null (or
  /// emptied by eviction) = cold solve.
  std::shared_ptr<BasisSlot> slot;
};

struct BestFirstOrder {
  bool operator()(const OpenNode& a, const OpenNode& b) const {
    if (a.bound != b.bound) return a.bound > b.bound;  // min-heap on bound
    return a.seq > b.seq;
  }
};

/// Per-variable pseudocost statistics for branching-variable selection.
/// Kept PER WORKER: sharing them would either race or serialize every
/// node on a lock, and they only steer node ordering, never correctness.
struct Pseudocost {
  double up_sum = 0.0, down_sum = 0.0;
  int up_count = 0, down_count = 0;
};

/// Branch-and-bound search shared across `num_threads` workers.
///
/// Work sharing: one global best-first heap under `heap_mutex_`.  A worker
/// pops the best open node, re-derives its bounds from the parent chain on
/// its PRIVATE SimplexEngine (all engines share the immutable StandardForm
/// built once at the root), and dives depth-first, pushing the deferred
/// sibling of every branch back onto the shared heap.  The incumbent is
/// published through a mutex-guarded vector plus a lock-free objective
/// snapshot that pruning reads; a stale snapshot only ever makes pruning
/// less aggressive, never unsound, so the returned objective is identical
/// to the serial solver's (up to the configured optimality gap).
///
/// With num_threads == 1 the single worker drains the heap on the calling
/// thread in exactly the serial order (best-first pops, FIFO tie-breaks,
/// plunging dives), preserving the historical deterministic behavior.
class Search {
 public:
  Search(const lp::Model& original, const MipOptions& options)
      : original_(original), options_(options) {
    if (options_.num_threads <= 0) {
      options_.num_threads = static_cast<int>(
          std::max(1u, std::thread::hardware_concurrency()));
    }
  }

  MipResult run();

 private:
  /// Per-thread search state: a private engine + pseudocosts.  Everything
  /// a worker touches outside its own members goes through the Search
  /// synchronization helpers.
  class Worker {
   public:
    explicit Worker(Search& search) : s_(search) {
      pcost_.assign(search.reduced_->num_vars(), Pseudocost{});
    }

    /// Pop/dive until the heap drains or a limit fires.
    void loop();

    [[nodiscard]] std::int64_t lp_iterations() const { return lp_iterations_; }
    /// The engine's cumulative counts; they include the root cut loop's
    /// when this worker took over the root engine.
    [[nodiscard]] lp::SimplexStats engine_stats() const {
      return engine_ != nullptr ? engine_->stats() : lp::SimplexStats{};
    }
    [[nodiscard]] bool popped_any() const { return popped_any_; }
    [[nodiscard]] double last_popped_bound() const {
      return last_popped_bound_;
    }

    [[nodiscard]] const lp::BasisCacheStats& basis_stats() const {
      return basis_stats_;
    }

   private:
    /// Re-derive `node`'s bounds from its parent chain, intersect them
    /// with the relaxation fixings, then either restore `warm` (the
    /// node's own parent basis, already dual feasible for the changed
    /// bounds) or just refresh on the engine's current basis (cold: an
    /// unrelated subtree's basis or the initial one).  False when the
    /// fixings leave the node's box empty (nothing to solve).
    bool apply_path(const NodeData* node, const lp::Basis* warm,
                    const Fixings* fixings);
    [[nodiscard]] Index pick_branch_var(const std::vector<double>& x) const;
    void run_rounding_heuristic(const std::vector<double>& reduced_x);
    void run_user_heuristic(const std::vector<double>& reduced_x);
    /// Solve the engine's current LP; returns the simplex status.
    SolveStatus solve_node_lp();
    /// Process one node: solve, prune/bound/branch; dives depth-first.
    /// `warm_start` records whether the popped node loaded its parent
    /// basis, for the warm/cold pivot accounting.
    void dive(std::shared_ptr<const NodeData> node, bool warm_start);

    Search& s_;
    /// Private per-worker engine, built at the first pop; the worker that
    /// pops the root takes over the cut loop's engine instead.
    std::unique_ptr<lp::SimplexEngine> engine_;
    std::vector<Pseudocost> pcost_;  // indexed by reduced column
    std::int64_t lp_iterations_ = 0;
    // This worker's share of the cache counters: loaded/cold_pops and the
    // pivot split (stored/evicted live on the Search, under heap_mutex_).
    lp::BasisCacheStats basis_stats_;
    // Bound of the last node this worker started processing: when the
    // search is stopped early, the worker's (possibly abandoned) subtree
    // is bounded below by it, so it feeds MipResult::best_bound.
    double last_popped_bound_ = -kInf;
    bool popped_any_ = false;
  };

  // -- cross-worker helpers --------------------------------------------
  [[nodiscard]] double prune_threshold() const;
  /// A subtree whose LP bound is `bound` cannot beat the incumbent by
  /// more than the gap (the relaxation bound floors every subtree).
  [[nodiscard]] bool prunable(double bound) const {
    return std::max(bound, relaxation_bound_.load(std::memory_order_relaxed)) >=
           prune_threshold();
  }
  /// The relaxation is installed, has not run, and the search is still
  /// open after kRelaxationAfterNodes nodes.  Caller holds heap_mutex_.
  [[nodiscard]] bool relaxation_due_locked() const {
    return options_.relaxation_bound && !relaxation_claimed_ &&
           !open_.empty() &&
           nodes_.load(std::memory_order_relaxed) >= kRelaxationAfterNodes;
  }
  /// Call the relaxation (without holding heap_mutex_): publish its bound,
  /// and return its fixings mapped to reduced space, skipping columns that
  /// presolve removed or whose bounds are already equal.
  std::shared_ptr<const Fixings> run_relaxation();
  /// Wall-clock budget left before the nearer of the option time limit and
  /// the cancel token's deadline (kInf when neither is armed); clamps the
  /// per-LP time limits so a deadline interrupts even one long LP.
  [[nodiscard]] double remaining_seconds() const;
  /// Check time/node limits; may request a stop.  Cheap enough per node.
  bool limits_hit();
  /// Record a stop reason and wake every waiting worker.  Numerical
  /// failure dominates any other reason; otherwise the first one wins.
  void request_stop(SolveStatus status);
  /// Validate an ORIGINAL-space candidate and install it if it improves
  /// the incumbent.
  void offer_incumbent(const std::vector<double>& orig_x);
  void offer_incumbent_reduced(const std::vector<double>& reduced_x);
  /// Push an open node, optionally carrying its parent's basis snapshot.
  /// Storing may evict the least-recently-stored snapshot to stay under
  /// MipOptions::max_stored_bases.
  void push_open(double bound, std::shared_ptr<const NodeData> data,
                 std::shared_ptr<const lp::Basis> parent_basis = nullptr);
  /// Drop a queued node's snapshot without consuming it (pruned while
  /// queued).  Caller holds heap_mutex_.
  void release_basis_locked(const std::shared_ptr<BasisSlot>& slot);

  const lp::Model& original_;
  MipOptions options_;

  // Immutable after root setup; shared read-only by every worker.
  lp::PresolveResult pre_;
  lp::Model working_;  // presolved model plus any root cover cuts
  const lp::Model* reduced_ = nullptr;
  std::unique_ptr<lp::StandardForm> sf_;
  std::vector<Index> int_cols_;
  /// The cut loop's engine, left on the final root LP's basis; the worker
  /// that pops the root takes it (under heap_mutex_), so that LP is not
  /// solved a second time.  Still here after the search when no worker
  /// popped the root.
  std::unique_ptr<lp::SimplexEngine> root_engine_;

  // Shared open-node heap + idle/termination tracking.
  std::mutex heap_mutex_;
  std::condition_variable heap_cv_;
  std::priority_queue<OpenNode, std::vector<OpenNode>, BestFirstOrder> open_;
  std::uint64_t next_seq_ = 0;
  int active_workers_ = 0;  // workers currently inside a dive

  // Basis snapshot cache bookkeeping, all guarded by heap_mutex_.  The
  // FIFO holds every stored slot in storage order; eviction clears the
  // oldest slot still carrying a basis (the weak_ptr lets slots whose
  // nodes were already popped or discarded expire in place).
  std::deque<std::weak_ptr<BasisSlot>> basis_fifo_;
  std::size_t stored_bases_ = 0;  // slots currently holding a snapshot
  lp::BasisCacheStats basis_stats_;  // stored/evicted side (workers add
                                     // their loaded/cold/pivot shares)

  // Relaxation state: the root duals it starts from (ORIGINAL rows,
  // immutable after the cut loop), whether a worker claimed the one call
  // and its fixings (both guarded by heap_mutex_), and its bound.
  std::vector<double> root_row_duals_;
  bool relaxation_claimed_ = false;
  std::shared_ptr<const Fixings> fixings_;
  std::atomic<double> relaxation_bound_{-kInf};

  // Incumbent, in ORIGINAL variable space with TOTAL objective.  The
  // atomic snapshot lets pruning read the objective without the mutex.
  std::mutex incumbent_mutex_;
  double incumbent_obj_ = kInf;       // guarded by incumbent_mutex_
  std::vector<double> incumbent_x_;   // guarded by incumbent_mutex_
  std::atomic<double> incumbent_snapshot_{kInf};

  std::atomic<std::int64_t> nodes_{0};
  std::atomic<bool> stop_{false};
  std::mutex stop_mutex_;
  bool stop_requested_ = false;  // guarded by stop_mutex_
  SolveStatus stop_status_ = SolveStatus::kOptimal;  // guarded by stop_mutex_

  support::WallTimer timer_;
  MipResult result_;
};

double Search::prune_threshold() const {
  return ilp::prune_threshold(
      incumbent_snapshot_.load(std::memory_order_relaxed), options_.rel_gap,
      options_.abs_gap);
}

double Search::remaining_seconds() const {
  double remaining = kInf;
  if (options_.time_limit_seconds < kInf) {
    remaining = options_.time_limit_seconds - timer_.seconds();
  }
  if (options_.cancel_token) {
    remaining = std::min(remaining, options_.cancel_token->seconds_remaining());
  }
  return remaining;
}

bool Search::limits_hit() {
  if (stop_.load(std::memory_order_relaxed)) return true;
  if (GMM_FAULT("ilp.node", "stall")) {
    // Injected wedge: burn wall-clock without advancing the node count or
    // the progress counter, until something external — the service
    // watchdog, a deadline, a cancel — stops the solve.  This is the
    // fault the watchdog exists to catch.
    while (!(options_.cancel_token && options_.cancel_token->should_stop()) &&
           timer_.seconds() <= options_.time_limit_seconds) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
  // Cancellation outranks the deadline: a request cancelled after its
  // deadline armed should still report "cancelled", not "timed out".
  if (options_.cancel_token && options_.cancel_token->cancelled()) {
    request_stop(SolveStatus::kCancelled);
  } else if (timer_.seconds() > options_.time_limit_seconds ||
             (options_.cancel_token &&
              options_.cancel_token->deadline_passed())) {
    request_stop(SolveStatus::kTimeLimit);
  } else if (nodes_.load(std::memory_order_relaxed) >= options_.node_limit) {
    request_stop(SolveStatus::kNodeLimit);
  }
  return stop_.load(std::memory_order_relaxed);
}

void Search::request_stop(SolveStatus status) {
  {
    // stop_requested_ (not the public stop_ flag) arbitrates the status:
    // it is owned by stop_mutex_, so two concurrent requests cannot both
    // see "first" and the numerical-failure-dominates rule holds.
    const std::scoped_lock lock(stop_mutex_);
    if (!stop_requested_ || status == SolveStatus::kNumericalFailure) {
      stop_status_ = status;
    }
    stop_requested_ = true;
  }
  {
    // The store must happen under heap_mutex_: a worker that evaluated
    // its wait predicate just before this store would otherwise block
    // AFTER the notify below and sleep through the stop forever.
    const std::scoped_lock lock(heap_mutex_);
    stop_.store(true, std::memory_order_relaxed);
  }
  heap_cv_.notify_all();
}

void Search::offer_incumbent(const std::vector<double>& orig_x) {
  if (!original_.is_feasible(orig_x, 1e-5)) return;
  // Snap integers exactly before evaluating.
  std::vector<double> snapped(orig_x);
  for (Index j = 0; j < original_.num_vars(); ++j) {
    if (original_.var_type(j) != lp::VarType::kContinuous) {
      snapped[j] = std::round(snapped[j]);
    }
  }
  const double obj = original_.objective_value(snapped);
  {
    const std::scoped_lock lock(incumbent_mutex_);
    if (obj >= incumbent_obj_) return;
    incumbent_obj_ = obj;
    incumbent_x_ = std::move(snapped);
    incumbent_snapshot_.store(obj, std::memory_order_relaxed);
  }
  GMM_LOG(kDebug) << "mip: new incumbent " << obj << " at node "
                  << nodes_.load(std::memory_order_relaxed);
}

void Search::offer_incumbent_reduced(const std::vector<double>& reduced_x) {
  offer_incumbent(lp::postsolve(pre_, reduced_x));
}

void Search::push_open(double bound, std::shared_ptr<const NodeData> data,
                       std::shared_ptr<const lp::Basis> parent_basis) {
  std::shared_ptr<BasisSlot> slot;
  if (parent_basis != nullptr) {
    slot = std::make_shared<BasisSlot>();
    slot->basis = std::move(parent_basis);
  }
  {
    const std::scoped_lock lock(heap_mutex_);
    if (slot != nullptr) {
      ++stored_bases_;
      ++basis_stats_.stored;
      basis_fifo_.push_back(slot);
      // Over the cap: clear the least-recently-stored snapshot still
      // alive.  Its node stays queued and will re-solve cold.
      while (stored_bases_ > options_.max_stored_bases &&
             !basis_fifo_.empty()) {
        const std::shared_ptr<BasisSlot> oldest = basis_fifo_.front().lock();
        basis_fifo_.pop_front();
        if (oldest == nullptr || oldest->basis == nullptr) continue;
        oldest->basis.reset();
        --stored_bases_;
        ++basis_stats_.evicted;
      }
      // The FIFO accumulates expired entries for snapshots consumed at
      // pop; compact before it outgrows the live population by much.
      if (basis_fifo_.size() >
          2 * std::max<std::size_t>(options_.max_stored_bases, 64)) {
        std::erase_if(basis_fifo_, [](const std::weak_ptr<BasisSlot>& w) {
          const std::shared_ptr<BasisSlot> s = w.lock();
          return s == nullptr || s->basis == nullptr;
        });
      }
    }
    open_.push(OpenNode{bound, next_seq_++, std::move(data), std::move(slot)});
  }
  heap_cv_.notify_one();
}

void Search::release_basis_locked(const std::shared_ptr<BasisSlot>& slot) {
  if (slot != nullptr && slot->basis != nullptr) {
    slot->basis.reset();
    --stored_bases_;
  }
}

std::shared_ptr<const Fixings> Search::run_relaxation() {
  RelaxationQuery query;
  const Index n = original_.num_vars();
  query.lb.resize(static_cast<std::size_t>(n));
  query.ub.resize(static_cast<std::size_t>(n));
  for (Index j = 0; j < n; ++j) {
    const Index r = pre_.var_map[j];
    query.lb[j] = r == lp::kInvalidIndex ? pre_.fixed_value[j]
                                         : working_.var_lb(r);
    query.ub[j] = r == lp::kInvalidIndex ? pre_.fixed_value[j]
                                         : working_.var_ub(r);
  }
  query.row_duals = root_row_duals_;
  query.incumbent = incumbent_snapshot_.load(std::memory_order_relaxed);
  query.rel_gap = options_.rel_gap;
  query.abs_gap = options_.abs_gap;
  query.offer_incumbent = [this](const std::vector<double>& x) {
    offer_incumbent(x);
    return incumbent_snapshot_.load(std::memory_order_relaxed);
  };
  const RelaxationResult relaxed = options_.relaxation_bound(query);
  relaxation_bound_.store(relaxed.bound, std::memory_order_relaxed);
  auto fixings = std::make_shared<Fixings>();
  for (const auto& [j, value] : relaxed.fixings) {
    if (j < 0 || j >= n) continue;
    const Index r = pre_.var_map[j];
    if (r == lp::kInvalidIndex || working_.var_lb(r) == working_.var_ub(r)) {
      continue;  // presolve or the bounds already decided it
    }
    fixings->push_back({r, value, value});
  }
  // Only this worker writes the counter; run() reads it after the join.
  result_.rc_fixed += static_cast<std::int64_t>(fixings->size());
  if (fixings->empty()) return nullptr;
  return fixings;
}

bool Search::Worker::apply_path(const NodeData* node, const lp::Basis* warm,
                                const Fixings* fixings) {
  engine_->reset_bounds();
  // Collect root->leaf order; later changes on the same variable must win.
  std::vector<const NodeData*> chain;
  for (const NodeData* p = node; p != nullptr; p = p->parent.get()) {
    chain.push_back(p);
  }
  for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
    const BoundChange& c = (*it)->change;
    if (c.var != lp::kInvalidIndex) {
      engine_->set_column_bounds(c.var, c.lb, c.ub);
    }
  }
  if (fixings != nullptr) {
    for (const BoundChange& f : *fixings) {
      const double lb = std::max(engine_->column_lb(f.var), f.lb);
      const double ub = std::min(engine_->column_ub(f.var), f.ub);
      if (lb > ub) return false;
      engine_->set_column_bounds(f.var, lb, ub);
    }
  }
  if (warm != nullptr) {
    // The node's own parent basis: dual feasible under the re-derived
    // bounds (they differ from the snapshot's by one branching change,
    // and reduced costs do not depend on bounds), so the dual simplex
    // resumes as if this worker had just solved the parent.  load_basis
    // refreshes the basic solution itself.
    engine_->load_basis(*warm);
  } else {
    engine_->refresh_basic_solution();
  }
  return true;
}

Index Search::Worker::pick_branch_var(const std::vector<double>& x) const {
  // Two tiers: fractional variables that CARRY OBJECTIVE are branched
  // before zero-cost ones.  Zero-cost integers (e.g. the symmetric
  // placement counts of the complete memory-mapping formulation) cannot
  // move the bound, so resolving the cost-bearing decisions first lets
  // the primal heuristics close the remaining feasibility plateau.
  // Within a tier: pseudocost score with most-fractional fallback,
  // score = (1-mu)*min(up,down) + mu*max(up,down).
  constexpr double kMu = 1.0 / 6.0;
  Index best = lp::kInvalidIndex;
  double best_score = -1.0;
  bool best_has_cost = false;
  for (const Index j : s_.int_cols_) {
    const double frac = x[j] - std::floor(x[j]);
    if (frac < kIntTol || frac > 1.0 - kIntTol) continue;
    const bool has_cost = s_.reduced_->obj(j) != 0.0;
    if (best_has_cost && !has_cost) continue;
    const Pseudocost& pc = pcost_[j];
    double score;
    if (pc.up_count > 0 && pc.down_count > 0) {
      const double up = pc.up_sum / pc.up_count * (1.0 - frac);
      const double down = pc.down_sum / pc.down_count * frac;
      score = (1.0 - kMu) * std::min(up, down) + kMu * std::max(up, down);
    } else {
      // Fractionality: 0.5 is the most undecided and scores highest.
      score = 0.5 - std::abs(frac - 0.5);
    }
    if ((has_cost && !best_has_cost) || score > best_score) {
      best_score = score;
      best = j;
      best_has_cost = has_cost;
    }
  }
  return best;
}

void Search::Worker::run_rounding_heuristic(
    const std::vector<double>& reduced_x) {
  std::vector<double> rounded(reduced_x);
  for (const Index j : s_.int_cols_) rounded[j] = std::round(rounded[j]);
  if (s_.reduced_->is_feasible(rounded, 1e-6)) {
    s_.offer_incumbent_reduced(rounded);
  }
}

void Search::Worker::run_user_heuristic(const std::vector<double>& reduced_x) {
  const auto candidate =
      s_.options_.primal_heuristic(lp::postsolve(s_.pre_, reduced_x));
  if (candidate.has_value()) s_.offer_incumbent(*candidate);
}

SolveStatus Search::Worker::solve_node_lp() {
  lp::SimplexOptions simplex = s_.options_.simplex;
  const double remaining = s_.remaining_seconds();
  if (remaining < kInf) {
    simplex.time_limit_seconds = std::max(0.0, remaining);
  }
  const std::int64_t before = engine_->stats().iterations;
  SolveStatus status = engine_->solve(simplex);
  if (status == SolveStatus::kNumericalFailure ||
      status == SolveStatus::kIterationLimit) {
    // Cold restart once; the all-logical basis is always dual feasible.
    GMM_LOG(kWarn) << "mip: node LP " << to_string(status)
                   << ", retrying from a cold basis";
    engine_->reset_to_logical_basis();
    status = engine_->solve(simplex);
  }
  lp_iterations_ += engine_->stats().iterations - before;
  return status;
}

void Search::Worker::dive(std::shared_ptr<const NodeData> node,
                          bool warm_start) {
  // Entry contract: bounds + basic solution reflect `node`; LP not yet
  // solved.  Each loop iteration processes one node and either prunes
  // (return) or pushes one child to the shared heap and follows the other.
  //
  // The pending_* locals carry the previous iteration's branching decision
  // so the followed child's LP objective can feed the pseudocosts.
  Index pending_var = lp::kInvalidIndex;
  bool pending_up = false;
  double pending_frac = 0.0;
  double pending_parent_obj = 0.0;
  // First loop iteration = the popped node itself; its LP pivots feed the
  // warm/cold split.  Later iterations are plunge nodes, warm by
  // construction (the engine never leaves this subtree mid-dive).
  bool at_popped_node = true;

  while (true) {
    if (s_.limits_hit()) return;
    if (GMM_FAULT("ilp.alloc", "fail")) {
      // Simulated allocation failure at node setup; surfaces through the
      // same path as a genuine numerical breakdown, which the service
      // reports as a retryable internal error.
      s_.request_stop(SolveStatus::kNumericalFailure);
      return;
    }
    const std::int64_t node_ordinal =
        s_.nodes_.fetch_add(1, std::memory_order_relaxed) + 1;
    if (s_.options_.progress) {
      s_.options_.progress->fetch_add(1, std::memory_order_relaxed);
    }

    const std::int64_t pivots_before = engine_->stats().iterations;
    const SolveStatus lp_status = solve_node_lp();
    if (at_popped_node) {
      at_popped_node = false;
      const std::int64_t pivots = engine_->stats().iterations - pivots_before;
      if (warm_start) {
        basis_stats_.warm_pop_pivots += pivots;
      } else {
        basis_stats_.cold_pop_pivots += pivots;
      }
    }
    if (lp_status == SolveStatus::kInfeasible) return;  // pruned
    if (lp_status == SolveStatus::kTimeLimit) {
      s_.request_stop(SolveStatus::kTimeLimit);
      return;
    }
    if (lp_status != SolveStatus::kOptimal) {
      GMM_LOG(kError) << "mip: unrecoverable node LP status "
                      << to_string(lp_status);
      s_.request_stop(SolveStatus::kNumericalFailure);
      return;
    }

    const double node_bound =
        engine_->objective_value() + s_.pre_.objective_offset;

    if (pending_var != lp::kInvalidIndex) {
      const double degradation =
          std::max(0.0, node_bound - pending_parent_obj);
      Pseudocost& pc = pcost_[pending_var];
      if (pending_up) {
        pc.up_sum += degradation / std::max(kIntTol, 1.0 - pending_frac);
        ++pc.up_count;
      } else {
        pc.down_sum += degradation / std::max(kIntTol, pending_frac);
        ++pc.down_count;
      }
      pending_var = lp::kInvalidIndex;
    }

    if (s_.prunable(node_bound)) return;  // bound-pruned

    const std::vector<double> x = engine_->structural_solution();
    const Index branch_var = pick_branch_var(x);
    if (branch_var == lp::kInvalidIndex) {
      // Integral: candidate incumbent.
      s_.offer_incumbent_reduced(x);
      return;
    }

    if (s_.options_.primal_heuristic) {
      run_user_heuristic(x);
    } else if (node_ordinal % 64 == 1) {
      run_rounding_heuristic(x);
    }

    const double value = x[branch_var];
    const double frac = value - std::floor(value);
    const double floor_v = std::floor(value);
    // Follow the nearer side first (plunge toward integrality), push the
    // other side for best-first processing later.
    const bool up_first = frac > 0.5;

    const BoundChange up{branch_var, floor_v + 1.0,
                         engine_->column_ub(branch_var)};
    const BoundChange down{branch_var, engine_->column_lb(branch_var),
                           floor_v};
    const BoundChange& follow = up_first ? up : down;
    const BoundChange& defer = up_first ? down : up;

    auto follow_data = std::make_shared<NodeData>();
    follow_data->parent = node;
    follow_data->change = follow;
    follow_data->depth = node ? node->depth + 1 : 1;
    auto defer_data = std::make_shared<NodeData>();
    defer_data->parent = node;
    defer_data->change = defer;
    defer_data->depth = follow_data->depth;

    // The deferred sibling's parent basis is exactly the engine's current
    // (optimal) basis — snapshot it into the cache so whichever worker
    // pops the sibling later warm-starts one bound change away, instead
    // of from its own engine's unrelated subtree.  With the cache off
    // (max_stored_bases == 0) the sibling is pushed cold.
    std::shared_ptr<const lp::Basis> defer_basis;
    if (s_.options_.max_stored_bases > 0) {
      defer_basis =
          std::make_shared<const lp::Basis>(engine_->snapshot_basis());
    }
    s_.push_open(node_bound, std::move(defer_data), std::move(defer_basis));

    engine_->set_column_bounds(branch_var, follow.lb, follow.ub);
    engine_->refresh_basic_solution();

    pending_var = branch_var;
    pending_up = up_first;
    pending_frac = frac;
    pending_parent_obj = node_bound;
    node = std::move(follow_data);
  }
}

void Search::Worker::loop() {
  std::unique_lock lock(s_.heap_mutex_);
  while (true) {
    s_.heap_cv_.wait(lock, [this] {
      return s_.stop_.load(std::memory_order_relaxed) ||
             !s_.open_.empty() || s_.active_workers_ == 0;
    });
    if (s_.stop_.load(std::memory_order_relaxed)) break;
    if (s_.relaxation_due_locked()) {
      // Counted as active so idle workers cannot mistake the call for the
      // end of the search.
      s_.relaxation_claimed_ = true;
      ++s_.active_workers_;
      lock.unlock();
      std::shared_ptr<const Fixings> fixings = s_.run_relaxation();
      lock.lock();
      s_.fixings_ = std::move(fixings);
      --s_.active_workers_;
      continue;
    }
    if (s_.open_.empty()) {
      if (s_.active_workers_ == 0) {
        // Search complete.  Wake the siblings: this state can be REACHED
        // by a worker that popped the final node and discarded it in the
        // pruned-while-queued branch below — that path never touches
        // active_workers_, so the post-dive notification does not fire
        // and sleeping workers would otherwise never observe completion.
        s_.heap_cv_.notify_all();
        break;
      }
      continue;  // woken while another worker may still produce nodes
    }
    OpenNode top = s_.open_.top();
    s_.open_.pop();
    if (s_.prunable(top.bound)) {
      // Pruned while queued: free its snapshot's cache slot (not an
      // eviction — the node is gone, not the basis under pressure).
      s_.release_basis_locked(top.slot);
      continue;
    }
    // Consume the node's snapshot while still under heap_mutex_ (eviction
    // mutates slots under the same lock).
    std::shared_ptr<const lp::Basis> warm;
    if (top.slot != nullptr && top.slot->basis != nullptr) {
      warm = std::move(top.slot->basis);
      --s_.stored_bases_;
      ++basis_stats_.loaded;
    } else {
      ++basis_stats_.cold_pops;
    }
    last_popped_bound_ = top.bound;
    popped_any_ = true;
    ++s_.active_workers_;
    const std::shared_ptr<const Fixings> fixings = s_.fixings_;
    // The root is the first node popped, so the worker taking the root
    // engine has built none of its own yet.
    std::unique_ptr<lp::SimplexEngine> root_engine;
    if (top.data == nullptr) root_engine = std::move(s_.root_engine_);
    lock.unlock();

    const bool warm_start = warm != nullptr;
    bool open = true;
    if (root_engine != nullptr) {
      // Already on the root LP's bounds and final basis: no path to
      // apply, and the relaxation has not run yet, so no fixings either.
      engine_ = std::move(root_engine);
      engine_->refresh_basic_solution();
    } else {
      if (engine_ == nullptr) {
        engine_ = std::make_unique<lp::SimplexEngine>(*s_.sf_);
      }
      open = apply_path(top.data.get(), warm.get(), fixings.get());
    }
    warm.reset();  // the engine holds the state now; free the snapshot
    if (open) dive(std::move(top.data), warm_start);

    lock.lock();
    --s_.active_workers_;
    if (s_.open_.empty() && s_.active_workers_ == 0) {
      // Nothing left and nobody producing: wake idle workers to exit.
      s_.heap_cv_.notify_all();
    }
  }
}

MipResult Search::run() {
  timer_.reset();

  // ---- presolve --------------------------------------------------------
  if (options_.use_presolve) {
    pre_ = lp::presolve(original_);
  } else {
    // Identity presolve: copy the model through untouched.
    pre_.reduced = original_;
    pre_.var_map.resize(original_.num_vars());
    pre_.fixed_value.assign(original_.num_vars(), 0.0);
    for (Index j = 0; j < original_.num_vars(); ++j) pre_.var_map[j] = j;
    pre_.row_map.resize(original_.num_rows());
    for (Index i = 0; i < original_.num_rows(); ++i) pre_.row_map[i] = i;
  }
  if (pre_.infeasible) {
    result_.status = SolveStatus::kInfeasible;
    result_.seconds = timer_.seconds();
    return result_;
  }
  working_ = pre_.reduced;
  reduced_ = &working_;

  if (reduced_->num_vars() == 0) {
    offer_incumbent(lp::postsolve(pre_, {}));
    result_.status = incumbent_x_.empty() ? SolveStatus::kInfeasible
                                          : SolveStatus::kOptimal;
    result_.objective = incumbent_obj_;
    result_.best_bound = incumbent_obj_;
    result_.x = std::move(incumbent_x_);
    result_.seconds = timer_.seconds();
    return result_;
  }

  for (Index j = 0; j < reduced_->num_vars(); ++j) {
    if (reduced_->var_type(j) != lp::VarType::kContinuous) {
      int_cols_.push_back(j);
    }
  }

  sf_ = std::make_unique<lp::StandardForm>(
      lp::StandardForm::build(*reduced_));

  // ---- root cut loop -----------------------------------------------------
  // Per round on the root LP: lifted cover separation, then the cuts join
  // the model as rows and the engine takes the grown standard form with
  // its basis extended (SimplexEngine::append_rows), so the next round's
  // dual simplex resumes from this round's optimum and pays only for the
  // violated cuts.  Only the first round solves from the all-logical
  // basis.  Serial: the rounds mutate the model every worker will share.
  // The engine then serves the tree's first pop (root_engine_).
  root_engine_ = std::make_unique<lp::SimplexEngine>(*sf_);
  for (int round = 0; round < options_.max_cut_rounds; ++round) {
    if (limits_hit()) break;
    if (options_.progress) {
      options_.progress->fetch_add(1, std::memory_order_relaxed);
    }
    lp::SimplexOptions simplex = options_.simplex;
    const double remaining = remaining_seconds();
    if (remaining < kInf) {
      simplex.time_limit_seconds = std::max(0.0, remaining);
    }
    const std::int64_t before = root_engine_->stats().iterations;
    const SolveStatus root_status = root_engine_->solve(simplex);
    result_.lp_iterations += root_engine_->stats().iterations - before;
    if (root_status != SolveStatus::kOptimal) break;
    if (options_.relaxation_bound) {
      // Duals of the original rows, for the relaxation to start from.
      // Cut rows are appended after them, so row_map stays valid.
      root_row_duals_.assign(pre_.row_map.size(), 0.0);
      for (std::size_t i = 0; i < pre_.row_map.size(); ++i) {
        const Index r = pre_.row_map[i];
        if (r == lp::kInvalidIndex) continue;
        root_row_duals_[i] =
            -root_engine_->reduced_cost(sf_->num_structural + r) *
            sf_->row_scale[r];
      }
    }

    // Lifted knapsack cover cuts.
    const std::vector<CoverCut> cuts =
        separate_cover_cuts(working_, root_engine_->structural_solution());
    if (cuts.empty()) break;
    for (const CoverCut& cut : cuts) {
      lp::LinExpr expr;
      for (std::size_t k = 0; k < cut.vars.size(); ++k) {
        expr.add(cut.vars[k], cut.coefs[k]);
      }
      working_.add_row(expr, -kInf, cut.rhs);
    }
    result_.cover_cuts += static_cast<std::int64_t>(cuts.size());

    sf_->append_rows(working_);
    root_engine_->append_rows(*sf_);
  }

  // ---- root ------------------------------------------------------------
  push_open(-kInf, nullptr);

  // ---- main search -----------------------------------------------------
  std::vector<std::unique_ptr<Worker>> workers(
      static_cast<std::size_t>(options_.num_threads));
  if (options_.num_threads <= 1) {
    // Serial path: one worker on the calling thread, draining the heap in
    // the exact historical order.
    workers[0] = std::make_unique<Worker>(*this);
    workers[0]->loop();
  } else {
    support::ThreadPool pool(static_cast<std::size_t>(options_.num_threads));
    for (std::size_t t = 0; t < workers.size(); ++t) {
      pool.submit([this, &workers, t] {
        // Each worker builds its O(m^2) engine at its first pop, on its
        // own thread, so the setup cost itself is parallel.
        workers[t] = std::make_unique<Worker>(*this);
        workers[t]->loop();
      });
    }
    pool.wait_idle();
  }

  // ---- wrap up -----------------------------------------------------------
  // Every engine's counts, the root engine's through the worker that took
  // it over (or directly, when none popped the root).
  const auto add_engine = [this](const lp::SimplexStats& stats) {
    result_.simplex_refactorizations += stats.refactorizations;
    result_.lp_work_units += stats.work_units;
  };
  if (root_engine_ != nullptr) add_engine(root_engine_->stats());
  result_.basis = basis_stats_;  // stored/evicted (heap side)
  for (const auto& worker : workers) {
    result_.lp_iterations += worker->lp_iterations();
    add_engine(worker->engine_stats());
    result_.basis += worker->basis_stats();  // loaded/cold/pivot split
  }
  result_.nodes = nodes_.load(std::memory_order_relaxed);
  result_.seconds = timer_.seconds();
  result_.objective = incumbent_obj_;
  result_.x = std::move(incumbent_x_);
  if (stop_.load(std::memory_order_relaxed)) {
    result_.stop_reason = stop_status_;
    // Remaining open nodes and abandoned in-flight subtrees bound the
    // optimum from below.
    double bound = kInf;
    for (const auto& worker : workers) {
      if (worker->popped_any()) {
        bound = std::min(bound, worker->last_popped_bound());
      }
    }
    if (!open_.empty()) bound = std::min(bound, open_.top().bound);
    if (bound == kInf) bound = -kInf;  // stopped before any node ran
    bound = std::max(bound, relaxation_bound_.load(std::memory_order_relaxed));
    result_.best_bound =
        result_.x.empty() ? bound : std::min(bound, incumbent_obj_);
    result_.status =
        result_.x.empty() ? stop_status_ : SolveStatus::kFeasible;
    if (stop_status_ == SolveStatus::kNumericalFailure) {
      result_.status = SolveStatus::kNumericalFailure;
    }
  } else if (result_.x.empty()) {
    result_.status = SolveStatus::kInfeasible;
    result_.best_bound = kInf;
  } else {
    result_.status = SolveStatus::kOptimal;
    result_.best_bound = incumbent_obj_;
  }
  return result_;
}

}  // namespace

double prune_threshold(double incumbent, double rel_gap, double abs_gap) {
  // Spelled out: inf - max(abs_gap, rel_gap * inf) would be NaN, and every
  // comparison against NaN is false, so a gate written as
  // `bound < threshold` would never fire without an incumbent.
  if (incumbent >= kInf) return kInf;
  return incumbent - std::max(abs_gap, rel_gap * std::abs(incumbent));
}

double MipResult::gap() const {
  if (!has_incumbent()) return lp::kInf;
  if (objective == best_bound) return 0.0;
  return (objective - best_bound) / std::max(1e-9, std::abs(objective));
}

MipResult solve_mip(const lp::Model& model, const MipOptions& options) {
  Search search(model, options);
  return search.run();
}

}  // namespace gmm::ilp
