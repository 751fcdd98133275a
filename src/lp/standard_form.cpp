#include "lp/standard_form.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "support/assert.hpp"

namespace gmm::lp {

namespace {

/// Power of two nearest to 1/magnitude (exact scaling factor).
double pow2_reciprocal(double magnitude) {
  if (magnitude <= 0.0) return 1.0;
  return std::exp2(-std::round(std::log2(magnitude)));
}

}  // namespace

StandardForm StandardForm::build(const Model& model) {
  StandardForm sf;
  sf.num_structural = model.num_vars();
  sf.col_start.assign(sf.num_structural + 1, 0);
  sf.lb.resize(sf.num_structural);
  sf.ub.resize(sf.num_structural);
  sf.cost.resize(sf.num_structural);
  for (Index j = 0; j < sf.num_structural; ++j) {
    sf.lb[j] = model.var_lb(j);
    sf.ub[j] = model.var_ub(j);
    sf.cost[j] = model.obj(j);
  }
  sf.append_rows(model);  // every row, as if appended to an empty form
  return sf;
}

void StandardForm::append_rows(const Model& model) {
  GMM_ASSERT(model.num_vars() == num_structural &&
                 model.num_rows() >= num_rows,
             "append_rows needs the same variables and no fewer rows");
  const Index m_old = num_rows;
  const Index m = model.num_rows();
  if (m == m_old) return;

  // The model stores rows (CSR), the form columns (CSC).  Widen each
  // column by its new entries: shift the old entries up, from the last
  // column down so none is overwritten before it moves.
  std::vector<std::size_t> added(num_structural, 0);
  for (Index i = m_old; i < m; ++i) {
    const Model::RowView r = model.row(i);
    for (std::size_t k = 0; k < r.size; ++k) ++added[r.vars[k]];
  }
  std::vector<std::size_t> start(num_structural + 1, 0);
  std::vector<std::size_t> fill(num_structural);
  for (Index j = 0; j < num_structural; ++j) {
    fill[j] = start[j] + (col_start[j + 1] - col_start[j]);
    start[j + 1] = fill[j] + added[j];
  }
  row_index.resize(start.back());
  value.resize(start.back());
  col_index.reserve(start.back());
  row_value.reserve(start.back());
  for (Index j = num_structural; j-- > 0;) {
    const std::size_t shift = start[j] - col_start[j];
    if (shift == 0) break;  // and so is every earlier column's
    for (std::size_t k = col_start[j + 1]; k-- > col_start[j];) {
      row_index[k + shift] = row_index[k];
      value[k + shift] = value[k];
    }
  }
  col_start = std::move(start);

  num_rows = m;
  const Index n_total = num_cols();
  lb.resize(n_total);
  ub.resize(n_total);
  cost.resize(n_total, 0.0);
  row_scale.resize(m);
  for (Index i = m_old; i < m; ++i) {
    // Row equilibration (see the header comment), then the row's logical:
    // s_i = -(scaled row activity), so the activity range [lb, ub] maps
    // to s in [-scale*ub, -scale*lb].
    const Model::RowView r = model.row(i);
    double row_max = 0.0;
    for (std::size_t k = 0; k < r.size; ++k) {
      row_max = std::max(row_max, std::abs(r.coefs[k]));
    }
    const double scale = pow2_reciprocal(row_max);
    row_scale[i] = scale;
    for (std::size_t k = 0; k < r.size; ++k) {
      const double scaled = r.coefs[k] * scale;
      const std::size_t slot = fill[r.vars[k]]++;
      row_index[slot] = i;
      value[slot] = scaled;
      col_index.push_back(r.vars[k]);
      row_value.push_back(scaled);
    }
    row_start.push_back(col_index.size());
    lb[num_structural + i] =
        model.row_ub(i) >= kInf ? -kInf : -model.row_ub(i) * scale;
    ub[num_structural + i] =
        model.row_lb(i) <= -kInf ? kInf : -model.row_lb(i) * scale;
  }
}

}  // namespace gmm::lp
