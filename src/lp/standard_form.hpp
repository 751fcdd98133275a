// Conversion of a Model to the simplex-internal "computational form":
//
//   minimize    c' x
//   subject to  A x = 0,        A = [ A_structural | I ]
//               l <= x <= u
//
// Every model row  row_lb <= a'x <= row_ub  gains a logical variable
// s_i := -(a'x) with bounds [-row_ub, -row_lb], giving the homogeneous
// equality a'x + s_i = 0.  A zero right-hand side simplifies every basic-
// solution formula to x_B = -B^{-1} N x_N.
//
// Columns are stored sparse (CSC), and the same entries once more by row
// (CSR), so the engine can price a pivot row from the rows it needs.
// Logical columns are implicit unit vectors and are NOT materialized;
// SimplexEngine special-cases them.
//
// Rows are EQUILIBRATED on construction: each row is multiplied by the
// power of two nearest 1/max|a_ij|, which is exact in floating point and
// keeps every scaled coefficient near unit magnitude.  The memory-mapping
// models mix +-1 assignment rows with capacity rows whose coefficients
// reach ~5e5, and unscaled they stall the dual simplex in degenerate
// pivots.  Structural columns are never scaled, so variable values and
// integrality are untouched; the logical (row-activity) variables absorb
// the scale in their bounds.
#pragma once

#include <vector>

#include "lp/model.hpp"
#include "lp/types.hpp"

namespace gmm::lp {

struct StandardForm {
  Index num_rows = 0;        // m
  Index num_structural = 0;  // n (columns of A_structural)

  // CSC storage of the structural columns, each in increasing row order.
  std::vector<std::size_t> col_start;  // size num_structural + 1
  std::vector<Index> row_index;
  std::vector<double> value;
  // CSR copy of the same entries, each row in increasing column order.
  std::vector<std::size_t> row_start = {0};  // size num_rows + 1
  std::vector<Index> col_index;
  std::vector<double> row_value;

  // Bounds and costs for ALL columns (structural first, then m logicals).
  std::vector<double> lb, ub, cost;
  /// Equilibration factor of each row (see above).  A row's dual in the
  /// model's units is its computational-form dual times this factor.
  std::vector<double> row_scale;

  [[nodiscard]] Index num_cols() const { return num_structural + num_rows; }
  [[nodiscard]] bool is_logical(Index j) const { return j >= num_structural; }
  /// Row of the implicit +1 entry of logical column j.
  [[nodiscard]] Index logical_row(Index j) const { return j - num_structural; }

  /// Build from a model.  Variable bounds may be overridden later through
  /// SimplexEngine::set_column_bounds (used by branch & bound).
  static StandardForm build(const Model& model);

  /// Take in the rows `model` has beyond num_rows (same variables): each
  /// new row is scaled by its own max |a|, its entries go to the tail of
  /// their columns and of the row copy, and its logical joins the end, so
  /// the result equals build(model) field by field.  build() is the case
  /// of an empty form.
  void append_rows(const Model& model);
};

}  // namespace gmm::lp
