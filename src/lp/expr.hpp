// Linear-expression building blocks.
//
// Lets formulation code read like the paper's math:
//
//   LinExpr lhs;
//   for (...) lhs += cp[d][t] * z(d, t);
//   model.add_constraint(lhs, Sense::kLessEqual, ports_of(t));
//
// Terms are kept unsorted and possibly duplicated while building; the Model
// canonicalizes (sort + merge) on insertion so construction stays O(1)
// amortized per term.  A row whose terms already come in strictly
// increasing variable order (each variable once) is appended without a
// sorted copy.
#pragma once

#include <utility>
#include <vector>

#include "lp/types.hpp"

namespace gmm::lp {

/// One `coefficient * variable` term.
struct Term {
  Index var = kInvalidIndex;
  double coef = 0.0;
};

/// A linear expression Σ coef_i · x_i (no constant part; constants belong
/// on the row's right-hand side).
class LinExpr {
 public:
  LinExpr() = default;

  LinExpr(Index var, double coef) { terms_.push_back({var, coef}); }

  LinExpr& operator+=(const Term& t) {
    terms_.push_back(t);
    return *this;
  }

  LinExpr& operator+=(const LinExpr& other) {
    terms_.insert(terms_.end(), other.terms_.begin(), other.terms_.end());
    return *this;
  }

  void add(Index var, double coef) { terms_.push_back({var, coef}); }

  [[nodiscard]] const std::vector<Term>& terms() const { return terms_; }
  [[nodiscard]] bool empty() const { return terms_.empty(); }
  void reserve(std::size_t n) { terms_.reserve(n); }
  /// Drop every term but keep the storage, so one expression can build
  /// row after row.
  void clear() { terms_.clear(); }

 private:
  std::vector<Term> terms_;
};

/// Build a term explicitly (Index is a builtin type, so an operator*
/// overload is not possible).
inline Term term(double coef, Index var) { return Term{var, coef}; }

}  // namespace gmm::lp
