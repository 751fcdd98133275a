// Branch & bound MILP solver over the dual-simplex LP engine.
//
// This is the stand-in for the commercial solver (CPLEX) used in the
// paper.  Architecture:
//
//   * presolve once at the root (lp::presolve);
//   * best-first node selection with PLUNGING: the popped node starts a
//     depth-first dive that reuses the engine's warm basis, so only heap
//     pops pay a refactorization;
//   * a per-open-node BASIS CACHE (MipOptions::max_stored_bases): a
//     pushed node carries a snapshot of its parent's optimal basis, and
//     the pop restores it — so even a heap pop warm-starts one branching
//     change away instead of from an unrelated subtree;
//   * a root cut loop (MipOptions::max_cut_rounds) that separates lifted
//     knapsack cover cuts and re-solves warm from the previous round's
//     basis, which the tree's first node then inherits;
//   * branching on pseudocosts with most-fractional initialization;
//   * incumbents from integral LP relaxations, the dive itself, and an
//     optional user-supplied primal heuristic run at every branched node
//     (the memory mappers inject their repair heuristics here);
//   * an optional problem-specific relaxation (MipOptions::
//     relaxation_bound; the global memory mapper installs a Lagrangian
//     knapsack bound), called once when the tree is still open after
//     kRelaxationAfterNodes nodes: its bound closes the search when it
//     reaches the prune threshold, its fixings tighten every node popped
//     afterwards, and its candidates become incumbents;
//   * node payloads are immutable parent-chain links shared via
//     shared_ptr, so a node costs O(1) memory at any depth;
//   * optional parallel search (MipOptions::num_threads): workers share
//     one best-first heap and one incumbent while each owns a private
//     dual-simplex engine over the shared standard form.
//
// Determinism: with num_threads == 1 (the default), given the same model
// and options the search is fully deterministic (no randomness; ties
// broken by index/rotation).  With more threads the node ORDER varies,
// but the returned objective is identical up to the optimality gap —
// pruning only ever uses proven bounds.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "lp/model.hpp"
#include "lp/simplex.hpp"
#include "lp/types.hpp"
#include "support/cancellation.hpp"

namespace gmm::ilp {

/// Optional primal heuristic: receives the ORIGINAL-space fractional LP
/// solution, returns an ORIGINAL-space integral candidate (or nullopt).
/// The solver validates the candidate against the model before accepting.
/// With num_threads > 1 the heuristic may be invoked concurrently from
/// several workers and must be safe to call in parallel (the built-in
/// mapping heuristics only read captured state, so they qualify).
using PrimalHeuristic = std::function<std::optional<std::vector<double>>(
    const std::vector<double>& lp_x)>;

/// The bound a node must stay below to be explored: the incumbent minus
/// the optimality gap, max(abs_gap, rel_gap * |incumbent|).  +inf when
/// there is no incumbent yet (every finite bound stays open).  Node
/// pruning and relaxation fixings both use it.
[[nodiscard]] double prune_threshold(double incumbent, double rel_gap,
                                     double abs_gap);

/// What a RelaxationBound sees, all in ORIGINAL variable space.
struct RelaxationQuery {
  /// Current global bounds of every variable: the model's own and
  /// presolve's reductions.
  std::vector<double> lb, ub;
  /// Dual of every ORIGINAL row in the last root LP the cut loop solved
  /// (0 where presolve removed the row); empty when no root LP was solved.
  std::vector<double> row_duals;
  /// Incumbent objective at call time (kInf when none).
  double incumbent = lp::kInf;
  double rel_gap = 0.0, abs_gap = 0.0;
  /// Validate a candidate like any other incumbent and install it when it
  /// improves; returns the incumbent objective afterwards.
  std::function<double(const std::vector<double>&)> offer_incumbent;
};

/// A relaxation's answer.  Both parts must hold for every feasible
/// solution within the query's bounds whose objective lies below
/// prune_threshold(incumbent) for the incumbent the callback last saw
/// (the incumbent only ever improves, so they stay valid afterwards).
struct RelaxationResult {
  /// Lower bound on those solutions' objective; +inf when none exists.
  double bound = -lp::kInf;
  /// (variable, value) pairs every such solution satisfies.
  std::vector<std::pair<lp::Index, double>> fixings;
};

/// Optional problem-specific relaxation (see MipOptions::relaxation_bound).
using RelaxationBound =
    std::function<RelaxationResult(const RelaxationQuery&)>;

/// Nodes the tree search processes before it calls the relaxation: solves
/// that close sooner never pay for it.
inline constexpr std::int64_t kRelaxationAfterNodes = 64;

struct MipOptions {
  double time_limit_seconds = lp::kInf;
  std::int64_t node_limit = 50'000'000;
  /// Relative optimality gap; 1e-4 matches the default of the commercial
  /// solver the paper used (CPLEX "mipgap"), and the memory-mapping
  /// objectives produce dense near-optimal plateaus that a tighter gap
  /// would enumerate pointlessly.
  double rel_gap = 1e-4;
  double abs_gap = 1e-9;
  bool use_presolve = true;
  /// Options for every node relaxation's lp::SimplexEngine (root cut
  /// loop and all branch-and-bound workers alike).
  lp::SimplexOptions simplex;
  /// Rounds of root-node cut separation (0 = off).  Each round separates
  /// lifted knapsack cover cuts from the root LP, appends them as rows and
  /// resumes the dual simplex from the previous round's optimum (the cut
  /// rows' logicals join its basis), so a round after the first costs the
  /// pivots its violated cuts need rather than a fresh solve, and the
  /// tree's first node starts from the last round's basis.  The mapping
  /// formulations' port/capacity knapsacks leave the plain LP bound
  /// several percent weak; the cut loop closes most of it.  12 rounds
  /// prove at least as many Table-3 suite and held-out designs as 8 at a
  /// 5 000-node budget, with fewer pivots (ROADMAP, "Cheaper root cut
  /// rounds").  The complete formulation's knapsacks are over integer
  /// count variables, which cover separation skips, so its loop ends
  /// after the first round whatever this is.
  int max_cut_rounds = 12;
  /// Per-open-node LP basis cache: every node pushed to the shared heap
  /// carries a snapshot of its parent's optimal basis, and the worker
  /// that later pops it warm-starts from that snapshot — so a heap pop
  /// pays dual pivots proportional to ONE branching change instead of a
  /// subtree switch away from whatever the worker's engine last held.
  /// At most this many snapshots are stored at once; beyond the cap the
  /// least-recently-stored snapshot is evicted (its node re-solves cold,
  /// which is slower but never wrong).  0 disables the cache entirely.
  /// The cache only ever changes how fast nodes re-solve, never which
  /// objective the search returns.
  std::size_t max_stored_bases = 4096;
  /// Called at every node whose LP solution is fractional (the built-in
  /// rounding heuristic runs every 64 nodes instead when none is set).
  PrimalHeuristic primal_heuristic;
  /// Optional relaxation, called at most once per solve, between dives,
  /// when kRelaxationAfterNodes nodes are done and open nodes remain (so
  /// only where the search would otherwise keep branching).  Its bound
  /// floors every node's LP bound, its fixings are intersected with the
  /// bounds of every node popped afterwards (counted in
  /// MipResult::rc_fixed) and its offered candidates are validated like
  /// any incumbent.  Called from one worker; it must not touch state
  /// shared with other solves.
  RelaxationBound relaxation_bound;
  /// Branch-and-bound workers sharing one best-first node heap.  1 (the
  /// default) runs today's fully serial, deterministic search on the
  /// calling thread.  With k > 1 workers the node processing ORDER varies
  /// between runs, so node/iteration counts differ, but every returned
  /// objective is identical up to the optimality gap (exactly identical
  /// when rel_gap and abs_gap are 0): pruning only ever uses proven
  /// bounds, so no optimum can be lost to a race.  0 = hardware
  /// concurrency.
  int num_threads = 1;
  /// Optional cooperative stop request shared with the caller (the async
  /// mapping service hands every request one).  `cancel()` stops the
  /// search with kCancelled; an armed deadline stops it with kTimeLimit
  /// and additionally clamps the per-node LP time limits, so a deadline
  /// interrupts even a single long LP solve.  Both are polled at node
  /// boundaries — two relaxed atomic loads, free at our node rates.
  std::shared_ptr<const support::CancelToken> cancel_token;
  /// Optional liveness counter, bumped once per processed node (and per
  /// root cut round).  Unlike the node counts in MipResult — which only
  /// exist after the solve returns — this is readable WHILE the solve
  /// runs, so a watchdog can tell a slow solve from a wedged one and
  /// force-cancel the latter.  nullptr (the default) costs nothing.
  std::shared_ptr<std::atomic<std::int64_t>> progress;
};

struct MipResult {
  lp::SolveStatus status = lp::SolveStatus::kNumericalFailure;
  /// Why the search stopped early (kTimeLimit / kNodeLimit / kCancelled /
  /// kNumericalFailure); kOptimal when it ran to natural completion.
  /// Lets callers distinguish "feasible because the tree was exhausted to
  /// the gap" from "feasible because the deadline or a cancel cut the
  /// search short" — `status` alone conflates those as kFeasible once an
  /// incumbent exists.
  lp::SolveStatus stop_reason = lp::SolveStatus::kOptimal;
  double objective = lp::kInf;   // incumbent value (minimization)
  double best_bound = -lp::kInf; // proven lower bound
  std::vector<double> x;         // incumbent, original variable space
  std::int64_t nodes = 0;
  std::int64_t lp_iterations = 0;
  std::int64_t simplex_refactorizations = 0;
  /// Arithmetic work units spent inside the LP engines (root + all
  /// workers); see lp::SimplexStats::work_units.
  std::int64_t lp_work_units = 0;
  std::int64_t cover_cuts = 0;   // lifted cover cuts added at the root
  /// Always 0: the root separates cover cuts only.  Kept because
  /// perfbench sums it into its cut count.
  std::int64_t clique_cuts = 0;
  /// Columns fixed by the relaxation (MipOptions::relaxation_bound).
  std::int64_t rc_fixed = 0;
  /// Basis warm-start cache counters (see MipOptions::max_stored_bases):
  /// snapshots stored/loaded/evicted plus the dual-pivot split between
  /// warm-started and cold heap pops.
  lp::BasisCacheStats basis;
  double seconds = 0.0;

  [[nodiscard]] bool has_incumbent() const { return !x.empty(); }
  /// Relative optimality gap (0 when proven optimal).
  [[nodiscard]] double gap() const;
};

/// Solve a minimization MILP.  Thread-compatible: concurrent calls on
/// distinct models are safe.
MipResult solve_mip(const lp::Model& model, const MipOptions& options = {});

}  // namespace gmm::ilp
