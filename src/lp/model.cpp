#include "lp/model.hpp"

#include <algorithm>
#include <cmath>

#include "support/assert.hpp"

namespace gmm::lp {

Index Model::add_variable(double lb, double ub, double obj_coef,
                          VarType type) {
  GMM_ASSERT(!(lb > ub), "variable with lb > ub");
  if (type == VarType::kBinary) {
    lb = std::max(lb, 0.0);
    ub = std::min(ub, 1.0);
  }
  var_lb_.push_back(lb);
  var_ub_.push_back(ub);
  obj_.push_back(obj_coef);
  type_.push_back(type);
  return static_cast<Index>(var_lb_.size()) - 1;
}

Index Model::add_row(const LinExpr& expr, double lb, double ub) {
  GMM_ASSERT(!(lb > ub), "row with lb > ub");
  if (row_start_.empty()) row_start_.push_back(0);

  // Canonicalize: sort by variable, merge duplicates, drop zeros.  Terms
  // already in strictly increasing variable order are merged as given,
  // since sorting them would leave them exactly as they are.
  const std::vector<Term>& given = expr.terms();
  const bool in_order =
      std::adjacent_find(given.begin(), given.end(),
                         [](const Term& a, const Term& b) {
                           return a.var >= b.var;
                         }) == given.end();
  std::vector<Term> sorted;
  if (!in_order) {
    sorted = given;
    std::sort(sorted.begin(), sorted.end(),
              [](const Term& a, const Term& b) { return a.var < b.var; });
  }
  const std::vector<Term>& terms = in_order ? given : sorted;
  for (std::size_t k = 0; k < terms.size();) {
    const Index var = terms[k].var;
    GMM_ASSERT(var >= 0 && var < num_vars(), "row references unknown variable");
    double coef = 0.0;
    while (k < terms.size() && terms[k].var == var) {
      coef += terms[k].coef;
      ++k;
    }
    if (coef != 0.0) {
      col_index_.push_back(var);
      coef_.push_back(coef);
    }
  }
  row_lb_.push_back(lb);
  row_ub_.push_back(ub);
  row_start_.push_back(coef_.size());
  return static_cast<Index>(row_lb_.size()) - 1;
}

Index Model::add_constraint(const LinExpr& expr, Sense sense, double rhs) {
  switch (sense) {
    case Sense::kLessEqual:
      return add_row(expr, -kInf, rhs);
    case Sense::kGreaterEqual:
      return add_row(expr, rhs, kInf);
    case Sense::kEqual:
      return add_row(expr, rhs, rhs);
  }
  GMM_ASSERT(false, "bad sense");
  return kInvalidIndex;
}

void Model::set_var_bounds(Index j, double lb, double ub) {
  GMM_ASSERT(!(lb > ub), "set_var_bounds with lb > ub");
  var_lb_[j] = lb;
  var_ub_[j] = ub;
}

bool Model::has_integers() const {
  return std::any_of(type_.begin(), type_.end(), [](VarType t) {
    return t != VarType::kContinuous;
  });
}

Model::RowView Model::row(Index i) const {
  const std::size_t begin = row_start_[i];
  const std::size_t end = row_start_[i + 1];
  return RowView{col_index_.data() + begin, coef_.data() + begin,
                 end - begin};
}

double Model::row_activity(Index i, const std::vector<double>& x) const {
  const RowView r = row(i);
  double activity = 0.0;
  for (std::size_t k = 0; k < r.size; ++k) {
    activity += r.coefs[k] * x[r.vars[k]];
  }
  return activity;
}

double Model::objective_value(const std::vector<double>& x) const {
  double value = 0.0;
  for (Index j = 0; j < num_vars(); ++j) value += obj_[j] * x[j];
  return value;
}

bool Model::is_feasible(const std::vector<double>& x, double tol) const {
  if (x.size() != static_cast<std::size_t>(num_vars())) return false;
  for (Index j = 0; j < num_vars(); ++j) {
    if (x[j] < var_lb_[j] - tol || x[j] > var_ub_[j] + tol) return false;
    if (type_[j] != VarType::kContinuous &&
        std::abs(x[j] - std::round(x[j])) > tol) {
      return false;
    }
  }
  for (Index i = 0; i < num_rows(); ++i) {
    const double a = row_activity(i, x);
    // Scale the tolerance by the row magnitude so big-coefficient rows
    // (capacity sums in bits) are not spuriously rejected.
    const double scale = std::max(1.0, std::abs(a));
    if (a < row_lb_[i] - tol * scale || a > row_ub_[i] + tol * scale) {
      return false;
    }
  }
  return true;
}

}  // namespace gmm::lp
