// Mixed-integer linear model builder.
//
// A Model is the user-facing description: variables with bounds, type and
// objective coefficient; rows with activity bounds.  Every row is stored in
// ranged form  row_lb <= a'x <= row_ub  (equalities have row_lb == row_ub),
// which is also what the simplex standard form wants.  The objective is
// always MINIMIZED; callers maximizing negate their costs.
#pragma once

#include <vector>

#include "lp/expr.hpp"
#include "lp/types.hpp"

namespace gmm::lp {

class Model {
 public:
  /// Add a variable; returns its index.  Bounds may be +-kInf.
  Index add_variable(double lb, double ub, double obj_coef,
                     VarType type = VarType::kContinuous);

  /// Convenience: binary 0/1 variable.
  Index add_binary(double obj_coef) {
    return add_variable(0.0, 1.0, obj_coef, VarType::kBinary);
  }

  /// Add a ranged row  lb <= expr <= ub; returns the row index.
  /// Duplicate terms in `expr` are merged; zero coefficients are dropped.
  Index add_row(const LinExpr& expr, double lb, double ub);

  /// Add a row with a single-sided or equality sense.
  Index add_constraint(const LinExpr& expr, Sense sense, double rhs);

  [[nodiscard]] Index num_vars() const {
    return static_cast<Index>(var_lb_.size());
  }
  [[nodiscard]] Index num_rows() const {
    return static_cast<Index>(row_lb_.size());
  }
  [[nodiscard]] std::size_t num_nonzeros() const { return coef_.size(); }

  [[nodiscard]] double var_lb(Index j) const { return var_lb_[j]; }
  [[nodiscard]] double var_ub(Index j) const { return var_ub_[j]; }
  [[nodiscard]] double obj(Index j) const { return obj_[j]; }
  [[nodiscard]] VarType var_type(Index j) const { return type_[j]; }
  [[nodiscard]] double row_lb(Index i) const { return row_lb_[i]; }
  [[nodiscard]] double row_ub(Index i) const { return row_ub_[i]; }

  void set_var_bounds(Index j, double lb, double ub);

  /// True iff the model has at least one integer/binary variable.
  [[nodiscard]] bool has_integers() const;

  /// Row i's terms, as parallel (var, coef) spans into the row storage.
  struct RowView {
    const Index* vars;
    const double* coefs;
    std::size_t size;
  };
  [[nodiscard]] RowView row(Index i) const;

  /// Evaluate row i's activity for a full solution vector.
  [[nodiscard]] double row_activity(Index i,
                                    const std::vector<double>& x) const;

  /// Evaluate the objective for a full solution vector.
  [[nodiscard]] double objective_value(const std::vector<double>& x) const;

  /// True iff x satisfies all bounds, rows (to `tol`) and integrality.
  [[nodiscard]] bool is_feasible(const std::vector<double>& x,
                                 double tol = 1e-6) const;

 private:
  // Variables.
  std::vector<double> var_lb_, var_ub_, obj_;
  std::vector<VarType> type_;
  // Rows in CSR-like storage.
  std::vector<double> row_lb_, row_ub_;
  std::vector<std::size_t> row_start_;  // size num_rows + 1
  std::vector<Index> col_index_;
  std::vector<double> coef_;
};

}  // namespace gmm::lp
