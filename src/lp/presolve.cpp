#include "lp/presolve.hpp"

#include <algorithm>
#include <cmath>
#include <span>
#include <vector>

#include "support/assert.hpp"
#include "support/log.hpp"

namespace gmm::lp {

namespace {

constexpr double kTol = 1e-9;

/// A row's live terms are terms[begin, begin + size) of the one array
/// every row shares; substituting fixed variables only shrinks `size`.
struct WorkRow {
  std::size_t begin, size;
  double lb, ub;
  bool removed = false;
};

/// Minimum and maximum possible activity of a row given variable bounds.
void activity_range(std::span<const Term> terms,
                    const std::vector<double>& lb,
                    const std::vector<double>& ub, double& min_act,
                    double& max_act) {
  min_act = 0.0;
  max_act = 0.0;
  for (const Term& t : terms) {
    const double lo = t.coef >= 0 ? lb[t.var] : ub[t.var];
    const double hi = t.coef >= 0 ? ub[t.var] : lb[t.var];
    min_act += t.coef * lo;  // note: +-inf propagates correctly
    max_act += t.coef * hi;
  }
}

}  // namespace

PresolveResult presolve(const Model& model) {
  PresolveResult result;
  const Index n = model.num_vars();
  const Index m = model.num_rows();

  std::vector<double> lb(n), ub(n);
  std::vector<bool> fixed(n, false);
  for (Index j = 0; j < n; ++j) {
    lb[j] = model.var_lb(j);
    ub[j] = model.var_ub(j);
  }
  std::vector<Term> terms(model.num_nonzeros());
  std::vector<WorkRow> rows(m);
  std::size_t next = 0;
  for (Index i = 0; i < m; ++i) {
    const Model::RowView r = model.row(i);
    rows[i] = {next, r.size, model.row_lb(i), model.row_ub(i)};
    for (std::size_t k = 0; k < r.size; ++k) {
      terms[next++] = {r.vars[k], r.coefs[k]};
    }
  }
  const auto live = [&terms](const WorkRow& row) {
    return std::span<const Term>(terms.data() + row.begin, row.size);
  };

  // Integer bound rounding.
  for (Index j = 0; j < n; ++j) {
    if (model.var_type(j) != VarType::kContinuous) {
      if (lb[j] > -kInf) lb[j] = std::ceil(lb[j] - kTol);
      if (ub[j] < kInf) ub[j] = std::floor(ub[j] + kTol);
    }
    if (lb[j] > ub[j] + kTol) {
      result.infeasible = true;
      return result;
    }
  }

  // Fixpoint loop.
  bool changed = true;
  int pass = 0;
  while (changed && pass++ < 10) {
    changed = false;

    // Substitute newly fixed variables into rows.
    for (Index j = 0; j < n; ++j) {
      if (fixed[j] || std::abs(ub[j] - lb[j]) > kTol) continue;
      fixed[j] = true;
      ++result.vars_fixed;
      changed = true;
    }
    for (WorkRow& row : rows) {
      if (row.removed) continue;
      std::size_t out = row.begin;
      for (std::size_t k = row.begin; k < row.begin + row.size; ++k) {
        const Term t = terms[k];
        if (fixed[t.var]) {
          const double shift = t.coef * lb[t.var];
          if (row.lb > -kInf) row.lb -= shift;
          if (row.ub < kInf) row.ub -= shift;
        } else {
          terms[out++] = t;
        }
      }
      row.size = out - row.begin;
    }

    for (WorkRow& row : rows) {
      if (row.removed) continue;
      if (row.size == 0) {
        if (row.lb > kTol || row.ub < -kTol) {
          result.infeasible = true;
          return result;
        }
        row.removed = true;
        ++result.rows_removed;
        changed = true;
        continue;
      }
      double min_act, max_act;
      activity_range(live(row), lb, ub, min_act, max_act);
      // Scale by the finite activity bounds only: an infinite one would
      // make every tolerance below infinite and every test pass.
      double scale = 1.0;
      if (std::isfinite(min_act)) scale = std::max(scale, std::abs(min_act));
      if (std::isfinite(max_act)) scale = std::max(scale, std::abs(max_act));
      if (min_act > row.ub + kTol * scale ||
          max_act < row.lb - kTol * scale) {
        result.infeasible = true;
        return result;
      }
      if (min_act >= row.lb - kTol * scale &&
          max_act <= row.ub + kTol * scale) {
        row.removed = true;  // redundant
        ++result.rows_removed;
        changed = true;
        continue;
      }
      if (row.size == 1) {
        // Singleton row: fold into the variable's bounds.
        const Term t = terms[row.begin];
        double new_lb = lb[t.var];
        double new_ub = ub[t.var];
        if (t.coef > 0) {
          if (row.lb > -kInf) new_lb = std::max(new_lb, row.lb / t.coef);
          if (row.ub < kInf) new_ub = std::min(new_ub, row.ub / t.coef);
        } else {
          if (row.ub < kInf) new_lb = std::max(new_lb, row.ub / t.coef);
          if (row.lb > -kInf) new_ub = std::min(new_ub, row.lb / t.coef);
        }
        if (model.var_type(t.var) != VarType::kContinuous) {
          if (new_lb > -kInf) new_lb = std::ceil(new_lb - kTol);
          if (new_ub < kInf) new_ub = std::floor(new_ub + kTol);
        }
        if (new_lb > new_ub + kTol) {
          result.infeasible = true;
          return result;
        }
        lb[t.var] = new_lb;
        ub[t.var] = new_ub;
        row.removed = true;
        ++result.rows_removed;
        changed = true;
        continue;
      }
      // Forcing row: one activity bound already meets the opposite row
      // bound, so every variable must sit at the bound that gives that
      // activity.  Fix them there and drop the row.
      const bool at_min = row.ub < kInf && std::isfinite(min_act) &&
                          min_act >= row.ub - kTol * scale;
      const bool at_max = row.lb > -kInf && std::isfinite(max_act) &&
                          max_act <= row.lb + kTol * scale;
      if (at_min || at_max) {
        for (const Term& t : live(row)) {
          if ((t.coef > 0) == at_min) {
            ub[t.var] = lb[t.var];
          } else {
            lb[t.var] = ub[t.var];
          }
        }
        row.removed = true;
        ++result.rows_removed;
        changed = true;
      }
    }
  }

  // Build the reduced model.
  result.var_map.assign(n, kInvalidIndex);
  result.fixed_value.assign(n, 0.0);
  for (Index j = 0; j < n; ++j) {
    if (fixed[j]) {
      result.fixed_value[j] = lb[j];
      result.objective_offset += model.obj(j) * lb[j];
    } else {
      result.var_map[j] = result.reduced.add_variable(
          lb[j], ub[j], model.obj(j), model.var_type(j));
    }
  }
  // Surviving variables keep their order, so each reduced row stays in
  // strictly increasing variable order and add_row stores it unsorted.
  result.row_map.assign(m, kInvalidIndex);
  LinExpr expr;
  for (Index i = 0; i < m; ++i) {
    const WorkRow& row = rows[i];
    if (row.removed) continue;
    expr.clear();
    for (const Term& t : live(row)) {
      expr.add(result.var_map[t.var], t.coef);
    }
    result.row_map[i] = result.reduced.add_row(expr, row.lb, row.ub);
  }
  GMM_LOG(kDebug) << "presolve: " << result.vars_fixed << " vars fixed, "
                  << result.rows_removed << " rows removed ("
                  << result.reduced.num_vars() << " vars, "
                  << result.reduced.num_rows() << " rows remain)";
  return result;
}

std::vector<double> postsolve(const PresolveResult& result,
                              const std::vector<double>& reduced_x) {
  std::vector<double> x(result.var_map.size());
  for (std::size_t j = 0; j < result.var_map.size(); ++j) {
    x[j] = result.var_map[j] == kInvalidIndex
               ? result.fixed_value[j]
               : reduced_x[result.var_map[j]];
  }
  return x;
}

}  // namespace gmm::lp
