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
  sf.num_rows = model.num_rows();
  sf.num_structural = model.num_vars();

  // Count entries per column, then fill CSC (the model stores rows CSR).
  std::vector<std::size_t> counts(sf.num_structural + 1, 0);
  for (Index i = 0; i < model.num_rows(); ++i) {
    const Model::RowView r = model.row(i);
    for (std::size_t k = 0; k < r.size; ++k) ++counts[r.vars[k] + 1];
  }
  sf.col_start.resize(sf.num_structural + 1, 0);
  for (Index j = 0; j < sf.num_structural; ++j) {
    sf.col_start[j + 1] = sf.col_start[j] + counts[j + 1];
  }
  sf.row_index.resize(sf.col_start.back());
  sf.value.resize(sf.col_start.back());
  std::vector<std::size_t> fill(sf.col_start.begin(),
                                sf.col_start.end() - 1);
  for (Index i = 0; i < model.num_rows(); ++i) {
    const Model::RowView r = model.row(i);
    for (std::size_t k = 0; k < r.size; ++k) {
      const std::size_t slot = fill[r.vars[k]]++;
      sf.row_index[slot] = i;
      sf.value[slot] = r.coefs[k];
    }
  }

  // Row equilibration (see the header comment).
  std::vector<double>& row_scale = sf.row_scale;
  row_scale.assign(sf.num_rows, 1.0);
  {
    std::vector<double> row_max(sf.num_rows, 0.0);
    for (std::size_t k = 0; k < sf.value.size(); ++k) {
      row_max[sf.row_index[k]] =
          std::max(row_max[sf.row_index[k]], std::abs(sf.value[k]));
    }
    for (Index i = 0; i < sf.num_rows; ++i) {
      row_scale[i] = pow2_reciprocal(row_max[i]);
    }
    for (std::size_t k = 0; k < sf.value.size(); ++k) {
      sf.value[k] *= row_scale[sf.row_index[k]];
    }
  }

  const Index n_total = sf.num_cols();
  sf.lb.resize(n_total);
  sf.ub.resize(n_total);
  sf.cost.assign(n_total, 0.0);
  for (Index j = 0; j < sf.num_structural; ++j) {
    sf.lb[j] = model.var_lb(j);
    sf.ub[j] = model.var_ub(j);
    sf.cost[j] = model.obj(j);
  }
  for (Index i = 0; i < sf.num_rows; ++i) {
    // s_i = -(scaled row activity), so the activity range [lb, ub] maps
    // to s in [-scale*ub, -scale*lb].
    sf.lb[sf.num_structural + i] =
        model.row_ub(i) >= kInf ? -kInf : -model.row_ub(i) * row_scale[i];
    sf.ub[sf.num_structural + i] =
        model.row_lb(i) <= -kInf ? kInf : -model.row_lb(i) * row_scale[i];
  }
  return sf;
}

}  // namespace gmm::lp
