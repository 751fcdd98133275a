// Bounded-variable revised simplex with an explicit basis inverse — the
// LP engine behind every relaxation in the project: the one-call facade
// (lp/solver.hpp), the root cut loop and every branch-and-bound worker.
//
// The engine implements the DUAL simplex as its workhorse.  Rationale: in
// this project every LP enters one of three ways.  (a) A fresh relaxation
// whose variables all carry a finite bound on the side their cost prefers
// — so the all-logical basis with cost-sign-chosen nonbasic bounds is
// dual feasible by construction.  (b) A branch-and-bound child, where only
// variable BOUNDS changed relative to an optimal parent basis; since
// reduced costs do not depend on bounds, the parent basis stays dual
// feasible and a few dual pivots restore primal feasibility.  (c) A root
// cut round, where ROWS were appended to the form the engine last solved
// (append_rows): the cut rows' logicals join the basis, which leaves every
// dual and reduced cost as it was, so the optimum of the previous round
// is a dual feasible start and the violated cuts leave in a few dual
// pivots.  A primal phase-1 is therefore never needed on this project's
// models.
//
// Numerical strategy: dense explicit B^{-1} (row-major) with product-form
// row updates per pivot, periodic Gauss-Jordan refactorization with
// partial pivoting and singular-basis repair, Harris-style two-pass dual
// ratio test picking the largest eligible pivot magnitude.  A repair puts
// the evicted column at a bound regardless of its reduced cost, so every
// refactorization that repaired the basis — on a load or inside solve()
// — is followed by the same dual repair a loaded snapshot gets.
//
// Loading a branch-and-bound snapshot reuses the inverse the engine
// already holds: each snapshot column that is not basic yet is pivoted in
// by the same product-form update, into the row of a leaving column where
// its FTRAN entry is largest, and the rows of B^{-1} are then permuted
// into the snapshot's order.  Each swap counts toward the
// refactor_interval cadence.  The load refactorizes from scratch instead
// when more than half the rows change, when a swap's pivot is below
// tolerance (a rank-deficient snapshot, which the refactorization
// repairs), or when the cadence is due.  x_B is recomputed only when a
// nonbasic value changed since it was last computed: a bound change on a
// basic column, which is every branching change of a dive, leaves it as
// it is.
//
// Appending k rows extends the inverse in place: with C the new rows'
// coefficients on the basic columns, the grown basis is [B 0; C I], whose
// inverse is [B^-1 0; -C B^-1 I], so the old rows of B^-1 are copied and
// each new row costs one sparse combination of old ones.  No
// refactorization, and the refactor_interval cadence carries on.
//
// Pricing is row-wise: the pivot row alpha = rho A (rho the leaving row of
// B^{-1}) is summed from the form's row copy over only the rows where rho
// is nonzero, and only the columns those rows touch get a new reduced
// cost; the duals' A^T y and the x_B recompute skip zeros the same way.
// Each column still sums its terms in increasing row order and the ratio
// test breaks ties by column index, so every pivot is bitwise the one a
// column-by-column pricing would make.
//
// Complexity per pivot: O(m nnz(w)) for the inverse update (w = B^{-1}
// a_q, from an O(m nnz(a_q)) FTRAN), plus the entries of the rows where
// rho is nonzero for the pivot row and O(m) for the rest — for the
// largest complete-formulation model in this project (m ~ 2.5e3, nnz ~
// 2e5) a few milliseconds.  A snapshot load
// costs O(k (m^2 + m nnz(a_q))) for k changed columns, against O(m^3) for
// a refactorization; appending k rows costs O((m + k)^2 + m nnz(C)).
// SimplexStats::work_units stays a dense-equivalent proxy (it charges
// every pivot the full m^2 and nnz(A)), so its counts compare across
// engine versions.
//
// Runs stay bitwise repeatable, but the inverse a load leaves behind
// differs in rounding from a fresh factorization, so branch-and-bound
// trees may differ from those of builds that refactorized on every load
// (equally valid trees, same proved optima).
#pragma once

#include <cstdint>
#include <vector>

#include "lp/basis.hpp"
#include "lp/standard_form.hpp"
#include "lp/types.hpp"

namespace gmm::lp {

struct SimplexOptions {
  std::int64_t iteration_limit = 200'000;
  double time_limit_seconds = kInf;  // wall clock for one solve() call
  int refactor_interval = 128;       // pivots between refactorizations
  /// Degenerate-pivot streak (zero dual step in the ratio test) after
  /// which the engine falls back to Bland's smallest-index anti-cycling
  /// rules until a real step happens.  The effective threshold is
  /// max(stall_threshold, m/2) so large models are not punished for
  /// ordinary degeneracy.
  int stall_threshold = 200;
};

struct SimplexStats {
  std::int64_t iterations = 0;        // dual pivots, cumulative
  std::int64_t refactorizations = 0;  // basis (re)factorizations, cumulative
  /// Arithmetic work proxy: the inner-loop multiply-adds a dense engine
  /// would perform (m^2 per pivot or load swap, m^3 per refactorization),
  /// so solver effort compares across machines where wall time does not.
  std::int64_t work_units = 0;
};

class SimplexEngine {
 public:
  /// The engine keeps a reference to `sf`; it must outlive the engine (or
  /// the next append_rows call).
  explicit SimplexEngine(const StandardForm& sf);

  // ---- bounds (branch & bound interface) ----------------------------
  /// Override the working bounds of a column.  Call refresh_basic_solution()
  /// after a batch of changes and before solve().
  void set_column_bounds(Index j, double lb, double ub);
  /// Restore all working bounds from the standard form.
  void reset_bounds();
  [[nodiscard]] double column_lb(Index j) const { return lb_[j]; }
  [[nodiscard]] double column_ub(Index j) const { return ub_[j]; }

  // ---- basis management ---------------------------------------------
  /// All logicals basic; structurals nonbasic at the bound their cost
  /// prefers.  Dual feasible for any model where each structural variable
  /// has a finite bound on the side its cost pushes toward.
  void reset_to_logical_basis();
  /// Restore a snapshot taken on the same standard form (asserts the
  /// shapes match).  Nonbasic statuses are normalized against the current
  /// working bounds, then repaired to DUAL feasibility: columns sitting on
  /// the bound their reduced cost argues against are flipped to the other
  /// finite bound, and if any column admits no such repair (or the basis
  /// is singular beyond refactorize()'s row repair) the engine degrades to
  /// the all-logical cold basis — loading a foreign or stale basis can
  /// cost pivots, never correctness.  A snapshot close to the current
  /// basis is reached by column replacement (see the file comment).
  void load_basis(const Basis& basis);
  [[nodiscard]] Basis snapshot_basis() const;
  /// Switch to `grown`, the form this engine holds with rows appended
  /// (same structural columns, the existing rows unchanged), keeping the
  /// current basis: each new row's logical becomes basic in that row and
  /// takes the row's activity, and B^{-1} is extended in place (see the
  /// file comment).  Duals, reduced costs and nonbasic statuses stand, so
  /// solve() resumes dual feasible from where the engine was.  The engine
  /// references `grown` from here on; the old form may be released, or
  /// `grown` may be the engine's own form after StandardForm::append_rows.
  void append_rows(const StandardForm& grown);

  /// Bring x_B up to date with the current bounds + basis.  A no-op when
  /// no nonbasic value changed since x_B was last computed.
  void refresh_basic_solution();

  // ---- solving -------------------------------------------------------
  /// Run dual simplex to optimality (primal feasibility).  The basis must
  /// already be dual feasible, which holds in all supported entry paths.
  SolveStatus solve(const SimplexOptions& options);

  // ---- solution access ------------------------------------------------
  [[nodiscard]] double objective_value() const;
  /// Value of any column (structural or logical) at the current basis.
  [[nodiscard]] double column_value(Index j) const;
  /// Values of the structural columns only.
  [[nodiscard]] std::vector<double> structural_solution() const;
  /// Reduced cost of a column (valid after solve()).
  [[nodiscard]] double reduced_cost(Index j) const { return d_[j]; }
  [[nodiscard]] VStat column_status(Index j) const { return stat_[j]; }
  [[nodiscard]] const SimplexStats& stats() const { return stats_; }
  /// The explicit B^{-1}, m x m row-major; row i belongs to the column
  /// basic in row i (snapshot_basis().basic_in_row[i]).
  [[nodiscard]] const std::vector<double>& basis_inverse() const {
    return binv_;
  }

 private:
  void ftran(Index j, std::vector<double>& w) const;  // w = B^{-1} A_j

  /// Gauss-Jordan B^{-1} of the current basic set; true when a dependent
  /// column had to be evicted for a logical (the basis changed).
  bool refactorize();
  /// Refactorize inside solve() and bring x_B and the duals up to date,
  /// repairing dual feasibility when the refactorization repaired the
  /// basis.
  void refactorize_in_solve();
  /// Recompute the duals for the current basic set, flip every nonbasic
  /// column whose reduced cost argues against its bound to the other
  /// finite bound, and recompute x_B; fall back to the all-logical basis
  /// when some column cannot be flipped.
  void restore_dual_feasibility();
  /// Reach the basic set `target` (basic column per row) from the current
  /// basis by column replacement, leaving B^{-1} in target's row order.
  /// False when refactorize() must do it instead: too many changes, a
  /// pivot below tolerance, or the refactorization cadence is due.
  bool replace_basis_columns(const std::vector<Index>& target);
  /// Product-form update of B^{-1} for w_ = B^{-1} a_q entering row r.
  void update_inverse(Index r, double pivot);
  /// x_B from scratch: O(nnz(A) + m nnz(rhs)).
  void recompute_basic_solution();
  /// y = c_B B^{-1}, then d = c - A^T y over the rows where y is nonzero.
  void compute_duals();
  [[nodiscard]] double nonbasic_value(Index j) const;

  /// One dual pivot: returns false when no leaving row exists (optimal).
  enum class PivotResult { kOptimal, kPivoted, kInfeasible, kNumerical };
  PivotResult dual_pivot();

  const StandardForm* sf_;  // never null; append_rows moves it
  Index m_, n_;             // rows, total columns

  std::vector<double> lb_, ub_;  // working bounds (B&B overrides)
  std::vector<Index> basis_;     // basic column per row
  std::vector<VStat> stat_;      // per-column status
  std::vector<double> binv_;     // m x m row-major explicit inverse
  std::vector<double> xb_;       // values of basic columns per row
  std::vector<double> d_;        // reduced costs per column

  // Scratch buffers reused across pivots.
  std::vector<double> alpha_;          // pivot row; 0 outside priced_
  std::vector<Index> priced_;          // nonbasic columns the row touched
  std::vector<char> in_priced_;        // structural column is in priced_
  std::vector<Index> eligible_;        // candidate entering columns
  std::vector<double> w_;              // FTRAN result
  std::vector<double> work_b_;         // refactorization / row permutation
  std::vector<double> rhs_;            // x_B recompute right-hand side
  std::vector<Index> rhs_nonzero_;     // rows where rhs_ is nonzero
  std::vector<double> y_;              // duals, one per row
  std::vector<double> aty_;            // A^T y per structural column
  std::vector<Index> col_row_;         // load: row of each basic column
  std::vector<char> leaving_;          // load: row's column still leaves
  std::vector<Index> entering_;        // load: snapshot columns to pivot in

  int pivots_since_refactor_ = 0;
  int refactor_interval_ = SimplexOptions{}.refactor_interval;  // last solve()
  bool xb_stale_ = false;  // a nonbasic value moved since x_B was computed
  std::uint32_t tie_rotation_ = 0;  // deterministic tie-break rotation
  // Anti-cycling: after a long streak of degenerate (zero dual step)
  // pivots, switch to Bland's smallest-index rules, which provably
  // terminate; leave the mode on the first non-degenerate pivot.  The
  // streak threshold comes from SimplexOptions::stall_threshold.
  int degenerate_streak_ = 0;
  int stall_threshold_ = 200;
  bool bland_mode_ = false;
  SimplexStats stats_;
};

}  // namespace gmm::lp
