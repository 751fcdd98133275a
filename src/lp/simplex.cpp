#include "lp/simplex.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "support/assert.hpp"
#include "support/fault.hpp"
#include "support/timer.hpp"

namespace gmm::lp {

namespace {

/// Harris ratio-test slack: candidates within this of the best ratio are
/// considered ties, and the largest |pivot| among them wins.
constexpr double kHarrisSlack = 1e-7;

/// Smallest |pivot| load_basis accepts when it swaps a snapshot column
/// into the current inverse.  Stricter than kPivotTol: these pivots are
/// chosen by magnitude alone, with no ratio test or cross-check behind
/// them, so a near-dependent snapshot column falls back to the
/// refactorization and its basis repair instead.
constexpr double kReplacePivotTol = 1e-7;

bool is_nonbasic(VStat s) { return s != VStat::kBasic; }

/// Nonbasic status that keeps a basis DUAL feasible for reduced cost `d`
/// under working bounds [lb, ub] (d >= 0 wants the lower bound, d < 0
/// the upper; one-sided bounds force the side).
VStat dual_feasible_status(double d, double lb, double ub) {
  if (lb == ub) return VStat::kFixed;
  if (lb > -kInf && ub < kInf) {
    return d >= 0.0 ? VStat::kAtLower : VStat::kAtUpper;
  }
  if (lb > -kInf) return VStat::kAtLower;
  if (ub < kInf) return VStat::kAtUpper;
  return VStat::kFree;
}

/// Normalize one loaded-snapshot status against working bounds: keep the
/// snapshot's status whenever the bound it references still exists.
VStat normalize_loaded_status(VStat status, double lb, double ub) {
  switch (status) {
    case VStat::kBasic:
      break;
    case VStat::kFixed:
      if (lb != ub) {
        return lb > -kInf ? VStat::kAtLower : VStat::kAtUpper;
      }
      break;
    case VStat::kAtLower:
      if (lb == ub) return VStat::kFixed;
      if (lb <= -kInf) {
        return ub < kInf ? VStat::kAtUpper : VStat::kFree;
      }
      break;
    case VStat::kAtUpper:
      if (lb == ub) return VStat::kFixed;
      if (ub >= kInf) {
        return lb > -kInf ? VStat::kAtLower : VStat::kFree;
      }
      break;
    case VStat::kFree:
      if (lb > -kInf || ub < kInf) {
        return lb > -kInf ? VStat::kAtLower : VStat::kAtUpper;
      }
      break;
  }
  return status;
}

}  // namespace

SimplexEngine::SimplexEngine(const StandardForm& sf)
    : sf_(&sf), m_(sf.num_rows), n_(sf.num_cols()) {
  lb_ = sf_->lb;
  ub_ = sf_->ub;
  basis_.resize(m_);
  stat_.resize(n_);
  binv_.resize(static_cast<std::size_t>(m_) * m_);
  xb_.resize(m_);
  d_.resize(n_);
  alpha_.resize(n_);
  in_priced_.resize(sf.num_structural);
  w_.resize(m_);
  rhs_.resize(m_);
  y_.resize(m_);
  aty_.resize(sf.num_structural);
  reset_to_logical_basis();
}

void SimplexEngine::set_column_bounds(Index j, double lb, double ub) {
  GMM_ASSERT(!(lb > ub), "set_column_bounds with lb > ub");
  // Same bounds, same column: re-deriving a nonbasic side below would
  // flip a column whose reduced cost sits inside the dual tolerance on
  // the other side of zero, and mark x_B stale for nothing.
  if (lb == lb_[j] && ub == ub_[j]) return;
  if (stat_[j] == VStat::kBasic) {
    // x_B does not depend on a basic column's own bounds: nothing to
    // refresh (the dual simplex repairs any violation this creates).
    lb_[j] = lb;
    ub_[j] = ub;
    return;
  }
  const double before = nonbasic_value(j);
  lb_[j] = lb;
  ub_[j] = ub;
  // Re-derive a nonbasic status that keeps the basis DUAL feasible, so a
  // branch-and-bound node restored under a different bound path can
  // warm-start the dual simplex from whatever basis the engine holds.
  // d_ is maintained across every pivot for ALL nonbasic columns, fixed
  // ones included, precisely so this is valid.
  stat_[j] = dual_feasible_status(d_[j], lb, ub);
  if (nonbasic_value(j) != before) xb_stale_ = true;
}

void SimplexEngine::reset_bounds() {
  for (Index j = 0; j < n_; ++j) {
    if (stat_[j] == VStat::kBasic) {
      lb_[j] = sf_->lb[j];
      ub_[j] = sf_->ub[j];
    } else {
      set_column_bounds(j, sf_->lb[j], sf_->ub[j]);
    }
  }
}

double SimplexEngine::nonbasic_value(Index j) const {
  switch (stat_[j]) {
    case VStat::kAtLower:
    case VStat::kFixed:
      return lb_[j];
    case VStat::kAtUpper:
      return ub_[j];
    case VStat::kFree:
      return 0.0;
    case VStat::kBasic:
      break;
  }
  GMM_ASSERT(false, "nonbasic_value called on basic column");
  return 0.0;
}

void SimplexEngine::reset_to_logical_basis() {
  for (Index i = 0; i < m_; ++i) basis_[i] = sf_->num_structural + i;
  for (Index j = 0; j < n_; ++j) {
    if (sf_->is_logical(j)) {
      stat_[j] = VStat::kBasic;
      continue;
    }
    if (lb_[j] == ub_[j]) {
      stat_[j] = VStat::kFixed;
    } else if (sf_->cost[j] > kDualTol) {
      GMM_ASSERT(lb_[j] > -kInf,
                 "dual simplex start requires a finite lower bound on every "
                 "positive-cost variable");
      stat_[j] = VStat::kAtLower;
    } else if (sf_->cost[j] < -kDualTol) {
      GMM_ASSERT(ub_[j] < kInf,
                 "dual simplex start requires a finite upper bound on every "
                 "negative-cost variable");
      stat_[j] = VStat::kAtUpper;
    } else if (lb_[j] > -kInf) {
      stat_[j] = VStat::kAtLower;
    } else if (ub_[j] < kInf) {
      stat_[j] = VStat::kAtUpper;
    } else {
      stat_[j] = VStat::kFree;
    }
  }
  // B = I for the all-logical basis.
  std::fill(binv_.begin(), binv_.end(), 0.0);
  for (Index i = 0; i < m_; ++i) binv_[static_cast<std::size_t>(i) * m_ + i] = 1.0;
  pivots_since_refactor_ = 0;
  recompute_basic_solution();
  compute_duals();
}

void SimplexEngine::load_basis(const Basis& basis) {
  GMM_ASSERT(basis.basic_in_row.size() == static_cast<std::size_t>(m_) &&
                 basis.status.size() == static_cast<std::size_t>(n_),
             "basis snapshot does not match this standard form");
  stat_ = basis.status;
  // Normalize nonbasic statuses against the working bounds: keep the
  // snapshot's status whenever the bound it references still exists.
  for (Index j = 0; j < n_; ++j) {
    stat_[j] = normalize_loaded_status(stat_[j], lb_[j], ub_[j]);
  }
  if (GMM_FAULT("lp.basis_load", "corrupt")) {
    // Injected snapshot corruption: flip every doubly-bounded nonbasic
    // column to its other bound.  Still a structurally valid basis, but
    // (generally) dual infeasible, so the dual repair below and its cold
    // logical-basis fallback run against a genuinely corrupted snapshot.
    for (Index j = 0; j < n_; ++j) {
      if (stat_[j] == VStat::kAtLower && ub_[j] < kInf) {
        stat_[j] = VStat::kAtUpper;
      } else if (stat_[j] == VStat::kAtUpper && lb_[j] > -kInf) {
        stat_[j] = VStat::kAtLower;
      }
    }
  }
  if (!replace_basis_columns(basis.basic_in_row)) {
    basis_ = basis.basic_in_row;
    refactorize();
  }
  // A snapshot taken on this engine's own parent node is dual feasible by
  // construction (bounds don't enter the duals), but a basis loaded from
  // elsewhere — a different LP of the same shape, or a snapshot whose
  // nonbasic sides a long bound path invalidated — may put a column on
  // the bound its reduced cost argues against.
  restore_dual_feasibility();
}

void SimplexEngine::restore_dual_feasibility() {
  compute_duals();
  // Flipping a column to its other finite bound restores the dual-simplex
  // entry contract without touching the duals (they depend only on the
  // basic set).  A column that cannot be flipped (wrong-sign reduced cost
  // with no opposite finite bound) admits no cheap repair: fall back to
  // the all-logical basis, which is always a valid cold start — degraded,
  // never wrong.
  for (Index j = 0; j < n_; ++j) {
    switch (stat_[j]) {
      case VStat::kBasic:
      case VStat::kFixed:
        break;
      case VStat::kAtLower:
        if (d_[j] < -kDualTol) {
          if (ub_[j] >= kInf) {
            reset_to_logical_basis();
            return;
          }
          stat_[j] = VStat::kAtUpper;
        }
        break;
      case VStat::kAtUpper:
        if (d_[j] > kDualTol) {
          if (lb_[j] <= -kInf) {
            reset_to_logical_basis();
            return;
          }
          stat_[j] = VStat::kAtLower;
        }
        break;
      case VStat::kFree:
        if (std::abs(d_[j]) > kDualTol) {
          // A nonbasic free column with nonzero reduced cost has no bound
          // to sit on at all; only a cold start is safe.
          reset_to_logical_basis();
          return;
        }
        break;
    }
  }
  recompute_basic_solution();
}

bool SimplexEngine::replace_basis_columns(
    const std::vector<Index>& target) {
  // Row of every currently basic column; -1 for nonbasic ones.
  col_row_.assign(n_, -1);
  for (Index i = 0; i < m_; ++i) col_row_[basis_[i]] = i;
  // Rows whose basic column the target drops, and the target columns
  // that are not basic yet.  A target listing a column twice leaves the
  // two counts unequal (or repeats an entering column, whose second
  // pivot is zero) and goes to refactorize()'s repair.
  leaving_.assign(m_, 1);
  entering_.clear();
  for (const Index j : target) {
    if (col_row_[j] >= 0) {
      leaving_[col_row_[j]] = 0;
    } else {
      entering_.push_back(j);
    }
  }
  const auto changes = static_cast<Index>(entering_.size());
  if (std::count(leaving_.begin(), leaving_.end(), 1) != changes ||
      2 * changes > m_ ||
      pivots_since_refactor_ + changes >= refactor_interval_) {
    return false;
  }
  for (const Index q : entering_) {
    // Pivot q into the still-leaving row where it is largest.  The target
    // is nonsingular exactly when some still-leaving row is nonzero at
    // every step (the other rows already hold target columns), so a tiny
    // best pivot means a (near-)singular snapshot: let the refactorization
    // repair it.
    ftran(q, w_);
    Index r = -1;
    double best = 0.0;
    for (Index i = 0; i < m_; ++i) {
      if (leaving_[i] != 0 && std::abs(w_[i]) > best) {
        best = std::abs(w_[i]);
        r = i;
      }
    }
    if (best < kReplacePivotTol) return false;
    update_inverse(r, w_[r]);
    col_row_[q] = r;
    basis_[r] = q;
    leaving_[r] = 0;
    ++pivots_since_refactor_;
    const std::int64_t nnz =
        sf_->is_logical(q)
            ? 1
            : static_cast<std::int64_t>(sf_->col_start[q + 1] -
                                        sf_->col_start[q]);
    stats_.work_units += static_cast<std::int64_t>(m_) * (nnz + m_);
  }
  // Same basic set; now put each column in its snapshot row, so the
  // engine ends where a fresh load of the snapshot would, up to rounding.
  bool permuted = false;
  for (Index t = 0; t < m_ && !permuted; ++t) {
    permuted = col_row_[target[t]] != t;
  }
  if (permuted) {
    work_b_.resize(binv_.size());
    for (Index t = 0; t < m_; ++t) {
      const double* from =
          binv_.data() + static_cast<std::size_t>(col_row_[target[t]]) * m_;
      std::copy(from, from + m_,
                work_b_.data() + static_cast<std::size_t>(t) * m_);
    }
    binv_.swap(work_b_);
    basis_ = target;
  }
  return true;
}

Basis SimplexEngine::snapshot_basis() const { return Basis{basis_, stat_}; }

void SimplexEngine::append_rows(const StandardForm& grown) {
  const Index ns = sf_->num_structural;
  GMM_ASSERT(grown.num_structural == ns && grown.num_rows >= m_,
             "append_rows needs the same structural columns and no fewer "
             "rows");
  const Index m_old = m_;
  const Index m = grown.num_rows;
  sf_ = &grown;
  m_ = m;
  n_ = grown.num_cols();
  // Every column keeps its index (logicals follow the structurals, so the
  // new rows' logicals come last), and each new logical is basic in its
  // own row with reduced cost 0.
  for (Index i = m_old; i < m; ++i) {
    lb_.push_back(grown.lb[ns + i]);
    ub_.push_back(grown.ub[ns + i]);
    stat_.push_back(VStat::kBasic);
    d_.push_back(0.0);
    basis_.push_back(ns + i);
  }
  alpha_.resize(n_);
  w_.resize(m_);
  rhs_.resize(m_);
  y_.resize(m_);
  xb_.resize(m_);  // new rows start at 0 and accumulate -(a_r . x) below

  // B^{-1} of [B 0; C I] is [B^{-1} 0; -C B^{-1} I]: copy the old rows,
  // then subtract c_ri times old row i from new row r for every basic
  // structural column with an entry c_ri in a new row.
  const std::size_t stride = static_cast<std::size_t>(m);
  work_b_.assign(stride * stride, 0.0);
  for (Index i = 0; i < m_old; ++i) {
    const double* from = binv_.data() + static_cast<std::size_t>(i) * m_old;
    std::copy(from, from + m_old,
              work_b_.data() + static_cast<std::size_t>(i) * stride);
  }
  for (Index i = m_old; i < m; ++i) {
    work_b_[static_cast<std::size_t>(i) * stride + i] = 1.0;
  }
  for (Index i = 0; i < m_old; ++i) {
    const Index j = basis_[i];
    if (grown.is_logical(j)) continue;  // old logicals have no new entries
    const double* from = binv_.data() + static_cast<std::size_t>(i) * m_old;
    for (std::size_t k = grown.col_start[j]; k < grown.col_start[j + 1]; ++k) {
      const Index r = grown.row_index[k];
      if (r < m_old) continue;
      const double c = grown.value[k];
      double* to = work_b_.data() + static_cast<std::size_t>(r) * stride;
      for (Index t = 0; t < m_old; ++t) to[t] -= c * from[t];
      xb_[r] -= c * xb_[i];
      stats_.work_units += m_old;
    }
  }
  binv_.swap(work_b_);
  // The nonbasic structurals' share of the new rows' activities.
  for (Index j = 0; j < ns; ++j) {
    if (stat_[j] == VStat::kBasic) continue;
    const double v = nonbasic_value(j);
    if (v == 0.0) continue;
    for (std::size_t k = grown.col_start[j]; k < grown.col_start[j + 1]; ++k) {
      const Index r = grown.row_index[k];
      if (r >= m_old) xb_[r] -= grown.value[k] * v;
    }
  }
}

void SimplexEngine::refresh_basic_solution() {
  if (xb_stale_) recompute_basic_solution();
}

void SimplexEngine::recompute_basic_solution() {
  // x_B = -B^{-1} * sum_j(A_j * value_j) over nonbasic columns with
  // nonzero value.
  std::fill(rhs_.begin(), rhs_.end(), 0.0);
  for (Index j = 0; j < n_; ++j) {
    if (!is_nonbasic(stat_[j])) continue;
    const double v = nonbasic_value(j);
    if (v == 0.0) continue;
    if (sf_->is_logical(j)) {
      rhs_[sf_->logical_row(j)] += v;
    } else {
      for (std::size_t k = sf_->col_start[j]; k < sf_->col_start[j + 1]; ++k) {
        rhs_[sf_->row_index[k]] += sf_->value[k] * v;
      }
    }
  }
  // Only the nonzero right-hand-side entries, in increasing order: the
  // same sums as the dense product, whose other terms are zeros.
  rhs_nonzero_.clear();
  for (Index k = 0; k < m_; ++k) {
    if (rhs_[k] != 0.0) rhs_nonzero_.push_back(k);
  }
  for (Index i = 0; i < m_; ++i) {
    const double* row = binv_.data() + static_cast<std::size_t>(i) * m_;
    double acc = 0.0;
    for (const Index k : rhs_nonzero_) acc += row[k] * rhs_[k];
    xb_[i] = -acc;
  }
  xb_stale_ = false;
}

void SimplexEngine::ftran(Index j, std::vector<double>& w) const {
  std::fill(w.begin(), w.end(), 0.0);
  if (sf_->is_logical(j)) {
    const Index r = sf_->logical_row(j);
    for (Index i = 0; i < m_; ++i) {
      w[i] = binv_[static_cast<std::size_t>(i) * m_ + r];
    }
    return;
  }
  for (std::size_t k = sf_->col_start[j]; k < sf_->col_start[j + 1]; ++k) {
    const Index row = sf_->row_index[k];
    const double v = sf_->value[k];
    for (Index i = 0; i < m_; ++i) {
      w[i] += v * binv_[static_cast<std::size_t>(i) * m_ + row];
    }
  }
}

bool SimplexEngine::refactorize() {
  ++stats_.refactorizations;
  // Gauss-Jordan on [B | I] touches ~m^3 multiply-adds regardless of
  // sparsity.
  stats_.work_units +=
      static_cast<std::int64_t>(m_) * m_ * m_;
  pivots_since_refactor_ = 0;
  // Injected singularity: the first structural basic column reads as all
  // zeros on the first attempt, forcing one trip through the eviction and
  // repair path a genuinely dependent column takes.  (A structural column
  // is always evictable: a still-unpivoted row's logical is nonbasic.)
  Index sabotaged_col = -1;
  if (GMM_FAULT("lu.refactor", "singular")) {
    for (Index c = 0; c < m_; ++c) {
      if (!sf_->is_logical(basis_[c])) {
        sabotaged_col = c;
        break;
      }
    }
  }
  const std::size_t mm = static_cast<std::size_t>(m_) * m_;
  work_b_.assign(mm, 0.0);
  // Assemble B column-by-column into a dense row-major matrix.
  for (Index col = 0; col < m_; ++col) {
    const Index j = basis_[col];
    if (sf_->is_logical(j)) {
      work_b_[static_cast<std::size_t>(sf_->logical_row(j)) * m_ + col] = 1.0;
    } else {
      for (std::size_t k = sf_->col_start[j]; k < sf_->col_start[j + 1]; ++k) {
        work_b_[static_cast<std::size_t>(sf_->row_index[k]) * m_ + col] =
            sf_->value[k];
      }
    }
  }
  // Gauss-Jordan on [B | I] with partial pivoting; binv_ holds the right
  // half.  On a (near-)singular column, repair the basis: evict that basic
  // column and substitute the logical of a still-unpivoted ORIGINAL row
  // (tracked through the swaps), which is guaranteed independent of the
  // already-processed columns — so each repair makes strict progress and
  // at most m restarts terminate.  Repair is rare; correctness matters
  // more than the restart cost.
  for (int attempt = 0; attempt < 1 + m_; ++attempt) {
    std::fill(binv_.begin(), binv_.end(), 0.0);
    for (Index i = 0; i < m_; ++i) {
      binv_[static_cast<std::size_t>(i) * m_ + i] = 1.0;
    }
    std::vector<double> lhs(work_b_);
    if (attempt == 0 && sabotaged_col >= 0) {
      for (Index i = 0; i < m_; ++i) {
        lhs[static_cast<std::size_t>(i) * m_ + sabotaged_col] = 0.0;
      }
    }
    std::vector<Index> row_origin(m_);
    for (Index i = 0; i < m_; ++i) row_origin[i] = i;
    bool repaired = false;
    for (Index col = 0; col < m_ && !repaired; ++col) {
      // Partial pivot: largest |entry| in column `col` at rows >= col.
      Index piv_row = -1;
      double piv_mag = 1e-10;
      for (Index i = col; i < m_; ++i) {
        const double mag = std::abs(lhs[static_cast<std::size_t>(i) * m_ + col]);
        if (mag > piv_mag) {
          piv_mag = mag;
          piv_row = i;
        }
      }
      if (piv_row < 0) {
        // Dependent basis column: kick it out in favor of the logical of
        // an unpivoted original row that is not already basic.
        const Index evicted = basis_[col];
        Index replacement = kInvalidIndex;
        for (Index p = col; p < m_ && replacement == kInvalidIndex; ++p) {
          const Index logical = sf_->num_structural + row_origin[p];
          if (logical == evicted) continue;
          bool already = false;
          for (Index c = 0; c < m_; ++c) {
            if (basis_[c] == logical) {
              already = true;
              break;
            }
          }
          if (!already) replacement = logical;
        }
        GMM_ASSERT(replacement != kInvalidIndex,
                   "basis repair failed to find a free logical column");
        stat_[evicted] = lb_[evicted] > -kInf ? VStat::kAtLower
                         : ub_[evicted] < kInf ? VStat::kAtUpper
                                               : VStat::kFree;
        if (lb_[evicted] == ub_[evicted]) stat_[evicted] = VStat::kFixed;
        basis_[col] = replacement;
        stat_[replacement] = VStat::kBasic;
        // Rebuild the dense B with the repaired basis and restart.
        std::fill(work_b_.begin(), work_b_.end(), 0.0);
        for (Index c = 0; c < m_; ++c) {
          const Index jj = basis_[c];
          if (sf_->is_logical(jj)) {
            work_b_[static_cast<std::size_t>(sf_->logical_row(jj)) * m_ + c] =
                1.0;
          } else {
            for (std::size_t k = sf_->col_start[jj]; k < sf_->col_start[jj + 1];
                 ++k) {
              work_b_[static_cast<std::size_t>(sf_->row_index[k]) * m_ + c] =
                  sf_->value[k];
            }
          }
        }
        repaired = true;
        break;
      }
      if (piv_row != col) {
        // Swap rows in both halves.
        std::swap(row_origin[piv_row], row_origin[col]);
        for (Index k = 0; k < m_; ++k) {
          std::swap(lhs[static_cast<std::size_t>(piv_row) * m_ + k],
                    lhs[static_cast<std::size_t>(col) * m_ + k]);
          std::swap(binv_[static_cast<std::size_t>(piv_row) * m_ + k],
                    binv_[static_cast<std::size_t>(col) * m_ + k]);
        }
      }
      // Normalize the pivot row.
      const double piv = lhs[static_cast<std::size_t>(col) * m_ + col];
      const double inv_piv = 1.0 / piv;
      double* lhs_piv_row = lhs.data() + static_cast<std::size_t>(col) * m_;
      double* inv_piv_row = binv_.data() + static_cast<std::size_t>(col) * m_;
      for (Index k = 0; k < m_; ++k) {
        lhs_piv_row[k] *= inv_piv;
        inv_piv_row[k] *= inv_piv;
      }
      // Eliminate the column everywhere else.
      for (Index i = 0; i < m_; ++i) {
        if (i == col) continue;
        const double f = lhs[static_cast<std::size_t>(i) * m_ + col];
        if (f == 0.0) continue;
        double* lhs_row = lhs.data() + static_cast<std::size_t>(i) * m_;
        double* inv_row = binv_.data() + static_cast<std::size_t>(i) * m_;
        for (Index k = 0; k < m_; ++k) {
          lhs_row[k] -= f * lhs_piv_row[k];
          inv_row[k] -= f * inv_piv_row[k];
        }
      }
    }
    // Success; every attempt after the first follows a repair.
    if (!repaired) return attempt > 0;
  }
  GMM_ASSERT(false, "refactorize: repeated basis repair did not converge");
  return true;
}

void SimplexEngine::refactorize_in_solve() {
  if (refactorize()) {
    // The repair evicted a column to a bound its reduced cost may argue
    // against; pivoting on from there could stop "optimal" at the wrong
    // vertex.
    restore_dual_feasibility();
    return;
  }
  recompute_basic_solution();
  compute_duals();
}

void SimplexEngine::compute_duals() {
  // y = c_B^T B^{-1}, accumulated row-wise over basic columns with
  // nonzero cost; then d_j = c_j - y . A_j, with A^T y summed from the
  // rows where y is nonzero (each column's terms in increasing row order).
  std::fill(y_.begin(), y_.end(), 0.0);
  for (Index i = 0; i < m_; ++i) {
    const double cb = sf_->cost[basis_[i]];
    if (cb == 0.0) continue;
    const double* row = binv_.data() + static_cast<std::size_t>(i) * m_;
    for (Index k = 0; k < m_; ++k) y_[k] += cb * row[k];
  }
  std::fill(aty_.begin(), aty_.end(), 0.0);
  for (Index i = 0; i < m_; ++i) {
    const double yi = y_[i];
    if (yi == 0.0) continue;
    for (std::size_t k = sf_->row_start[i]; k < sf_->row_start[i + 1]; ++k) {
      aty_[sf_->col_index[k]] += yi * sf_->row_value[k];
    }
  }
  const Index ns = sf_->num_structural;
  for (Index j = 0; j < n_; ++j) {
    if (stat_[j] == VStat::kBasic) {
      d_[j] = 0.0;
    } else {
      d_[j] = sf_->cost[j] - (j < ns ? aty_[j] : y_[j - ns]);
    }
  }
}

void SimplexEngine::update_inverse(Index r, double pivot) {
  // Product-form update of the explicit inverse for the column w_ = B^{-1}
  // a_q entering row r (pivot = w_r, or the pivot row's alpha_q):
  //   row_r /= pivot;   row_i -= w_i * row_r (i != r).
  double* piv_row = binv_.data() + static_cast<std::size_t>(r) * m_;
  const double inv_pivot = 1.0 / pivot;
  for (Index k = 0; k < m_; ++k) piv_row[k] *= inv_pivot;
  for (Index i = 0; i < m_; ++i) {
    if (i == r) continue;
    const double f = w_[i];
    if (f == 0.0) continue;
    double* row = binv_.data() + static_cast<std::size_t>(i) * m_;
    for (Index k = 0; k < m_; ++k) row[k] -= f * piv_row[k];
  }
}

SimplexEngine::PivotResult SimplexEngine::dual_pivot() {
  // ---- 1. leaving row -------------------------------------------------
  // Normal mode: the largest bound violation, with a deterministic scan
  // rotation to vary tie-breaks.  Bland mode: the violated row whose
  // basic variable has the smallest index (anti-cycling).
  Index leave_row = -1;
  if (bland_mode_) {
    Index smallest_var = std::numeric_limits<Index>::max();
    for (Index i = 0; i < m_; ++i) {
      const Index bj = basis_[i];
      const double v = xb_[i];
      if (std::max(lb_[bj] - v, v - ub_[bj]) > kFeasTol &&
          bj < smallest_var) {
        smallest_var = bj;
        leave_row = i;
      }
    }
  } else if (m_ > 0) {
    double worst = kFeasTol;
    const auto scan = [&](Index i) {
      const Index bj = basis_[i];
      const double v = xb_[i];
      const double viol = std::max(lb_[bj] - v, v - ub_[bj]);
      if (viol > worst) {
        worst = viol;
        leave_row = i;
      }
    };
    // From the rotating start to the last row, then from row 0.
    const auto start = static_cast<Index>(tie_rotation_ %
                                          static_cast<std::uint32_t>(m_));
    for (Index i = start; i < m_; ++i) scan(i);
    for (Index i = 0; i < start; ++i) scan(i);
    ++tie_rotation_;
  }
  if (leave_row < 0) return PivotResult::kOptimal;

  const Index leave_col = basis_[leave_row];
  const bool above_upper = xb_[leave_row] > ub_[leave_col];
  const double target_bound =
      above_upper ? ub_[leave_col] : lb_[leave_col];
  // sigma encodes the violation side; see eligibility rules below.
  const double sigma = above_upper ? 1.0 : -1.0;

  // ---- 2. pivot row alpha_j = (row leave_row of B^{-1}) . A_j ---------
  // Row-wise over the rows where rho is nonzero: alpha_j sums its terms in
  // increasing row order, the column dot product's order without its zero
  // terms, so it is bitwise the same.  Every nonbasic column is priced,
  // fixed ones included: their reduced costs must also be updated below
  // so they stay valid if a branch-and-bound backtrack later unfixes them.
  // A column no such row touches has alpha_j = 0 and keeps its d_j.
  const double* rho = binv_.data() + static_cast<std::size_t>(leave_row) * m_;
  for (const Index j : priced_) alpha_[j] = 0.0;
  priced_.clear();
  const Index ns = sf_->num_structural;
  for (Index i = 0; i < m_; ++i) {
    const double r = rho[i];
    if (r == 0.0) continue;
    for (std::size_t k = sf_->row_start[i]; k < sf_->row_start[i + 1]; ++k) {
      const Index j = sf_->col_index[k];
      if (stat_[j] == VStat::kBasic) continue;
      if (in_priced_[j] == 0) {
        in_priced_[j] = 1;
        priced_.push_back(j);
      }
      alpha_[j] += r * sf_->row_value[k];
    }
    if (stat_[ns + i] != VStat::kBasic) {
      alpha_[ns + i] = r;  // the logical's unit entry
      priced_.push_back(ns + i);
    }
  }
  eligible_.clear();
  for (const Index j : priced_) {
    if (j < ns) in_priced_[j] = 0;
    const double a = alpha_[j];
    if (std::abs(a) <= kPivotTol) continue;
    // Eligibility: moving x_j in its feasible direction must move the
    // leaving basic variable back toward its violated bound.
    //   d x_B[leave_row] / d x_j = -alpha_j.
    // Below lower bound (sigma=-1): need the basic value to increase, so a
    // variable at lower (can only increase) needs alpha_j < 0, a variable
    // at upper (can only decrease) needs alpha_j > 0.  Above upper bound
    // (sigma=+1) the conditions flip.  Free columns are always eligible.
    bool ok = false;
    switch (stat_[j]) {
      case VStat::kAtLower:
        ok = sigma * a > 0.0;
        break;
      case VStat::kAtUpper:
        ok = sigma * a < 0.0;
        break;
      case VStat::kFree:
        ok = true;
        break;
      default:
        break;
    }
    if (ok) eligible_.push_back(j);
  }
  if (eligible_.empty()) return PivotResult::kInfeasible;

  // ---- 3. dual ratio test ----------------------------------------------
  // ratio_j = sigma * d_j / alpha_j >= 0 measures how much the entering
  // reduced cost movement degrades dual feasibility of column j; the
  // minimum wins.  Normal mode breaks near-ties (Harris slack) by the
  // largest |alpha| for stability; Bland mode takes the smallest column
  // index among exact minimizers (anti-cycling).  eligible_ is in pricing
  // order, so remaining ties go to the smallest column index explicitly.
  double best_ratio = kInf;
  for (const Index j : eligible_) {
    const double ratio = sigma * d_[j] / alpha_[j];
    best_ratio = std::min(best_ratio, std::max(ratio, 0.0));
  }
  Index enter_col = -1;
  if (bland_mode_) {
    for (const Index j : eligible_) {
      const double ratio = std::max(sigma * d_[j] / alpha_[j], 0.0);
      if (ratio <= best_ratio + 1e-12 && (enter_col < 0 || j < enter_col)) {
        enter_col = j;
      }
    }
  } else {
    const double cutoff = best_ratio + kHarrisSlack;
    double enter_alpha_mag = 0.0;
    for (const Index j : eligible_) {
      const double ratio = std::max(sigma * d_[j] / alpha_[j], 0.0);
      const double mag = std::abs(alpha_[j]);
      if (ratio <= cutoff &&
          (mag > enter_alpha_mag ||
           (mag == enter_alpha_mag && j < enter_col))) {
        enter_alpha_mag = mag;
        enter_col = j;
      }
    }
  }
  GMM_ASSERT(enter_col >= 0, "dual ratio test selected no column");
  const double alpha_q = alpha_[enter_col];

  // ---- 4. FTRAN and numerical cross-check ----------------------------
  ftran(enter_col, w_);
  if (std::abs(w_[leave_row] - alpha_q) >
      1e-6 * (1.0 + std::abs(alpha_q))) {
    return PivotResult::kNumerical;
  }

  // ---- 5. apply the pivot ---------------------------------------------
  const double t = (xb_[leave_row] - target_bound) / alpha_q;  // step of x_q
  const double theta = d_[enter_col] / alpha_q;                // dual step

  // Reduced costs: d_k -= theta * alpha_k for the priced (nonbasic) k;
  // the leaving column (alpha = 1 in its own row) ends at -theta.
  if (theta != 0.0) {
    for (const Index j : priced_) {
      if (j != enter_col && alpha_[j] != 0.0) d_[j] -= theta * alpha_[j];
    }
  }
  d_[leave_col] = -theta;
  d_[enter_col] = 0.0;

  // Basic values: x_B -= t * w, with the entering column taking row
  // leave_row at value (nonbasic value + t).
  const double enter_value = nonbasic_value(enter_col) + t;
  for (Index i = 0; i < m_; ++i) xb_[i] -= t * w_[i];
  xb_[leave_row] = enter_value;

  // Statuses.  A basic column whose bounds were fixed while basic leaves
  // as kFixed so it can never re-enter.
  stat_[enter_col] = VStat::kBasic;
  if (lb_[leave_col] == ub_[leave_col]) {
    stat_[leave_col] = VStat::kFixed;
  } else {
    stat_[leave_col] = above_upper ? VStat::kAtUpper : VStat::kAtLower;
  }
  basis_[leave_row] = enter_col;
  update_inverse(leave_row, alpha_q);

  // Degeneracy bookkeeping: a zero dual step makes no progress on the
  // dual objective; long streaks can cycle, so switch to Bland's rules
  // until a real step happens.
  if (std::abs(theta) <= kDualTol) {
    if (++degenerate_streak_ > std::max(stall_threshold_, m_ / 2)) {
      bland_mode_ = true;
    }
  } else {
    degenerate_streak_ = 0;
    bland_mode_ = false;
  }

  ++pivots_since_refactor_;
  ++stats_.iterations;
  // Work accounting: the pivot row touched every structural nonzero plus
  // the logicals, and the FTRAN + explicit-inverse + x_B updates each
  // swept dense length-m rows.
  stats_.work_units += static_cast<std::int64_t>(sf_->value.size()) + m_ +
                       2 * static_cast<std::int64_t>(m_) * m_;
  return PivotResult::kPivoted;
}

SolveStatus SimplexEngine::solve(const SimplexOptions& options) {
  support::WallTimer timer;
  stall_threshold_ = options.stall_threshold;
  refactor_interval_ = options.refactor_interval;
  std::int64_t iterations_this_call = 0;
  int numerical_retries = 0;
  while (true) {
    if (iterations_this_call >= options.iteration_limit) {
      return SolveStatus::kIterationLimit;
    }
    if ((iterations_this_call & 15) == 0 &&
        timer.seconds() > options.time_limit_seconds) {
      return SolveStatus::kTimeLimit;
    }
    if (pivots_since_refactor_ >= options.refactor_interval) {
      refactorize_in_solve();
    }
    switch (dual_pivot()) {
      case PivotResult::kOptimal:
        return SolveStatus::kOptimal;
      case PivotResult::kInfeasible:
        return SolveStatus::kInfeasible;
      case PivotResult::kPivoted:
        ++iterations_this_call;
        numerical_retries = 0;
        break;
      case PivotResult::kNumerical:
        if (++numerical_retries > 3) return SolveStatus::kNumericalFailure;
        refactorize_in_solve();
        break;
    }
  }
}

double SimplexEngine::objective_value() const {
  double obj = 0.0;
  for (Index i = 0; i < m_; ++i) obj += sf_->cost[basis_[i]] * xb_[i];
  for (Index j = 0; j < n_; ++j) {
    if (is_nonbasic(stat_[j]) && sf_->cost[j] != 0.0) {
      obj += sf_->cost[j] * nonbasic_value(j);
    }
  }
  return obj;
}

double SimplexEngine::column_value(Index j) const {
  if (stat_[j] == VStat::kBasic) {
    for (Index i = 0; i < m_; ++i) {
      if (basis_[i] == j) return xb_[i];
    }
    GMM_ASSERT(false, "basic column missing from basis array");
  }
  return nonbasic_value(j);
}

std::vector<double> SimplexEngine::structural_solution() const {
  std::vector<double> x(sf_->num_structural);
  for (Index j = 0; j < sf_->num_structural; ++j) {
    x[j] = stat_[j] == VStat::kBasic ? 0.0 : nonbasic_value(j);
  }
  for (Index i = 0; i < m_; ++i) {
    if (basis_[i] < sf_->num_structural) x[basis_[i]] = xb_[i];
  }
  return x;
}

}  // namespace gmm::lp
