#include "ilp/cover_cuts.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <numeric>

namespace gmm::ilp {

namespace {

struct Item {
  lp::Index var;
  double coef;
  double value;  // x*_j
};

}  // namespace

std::vector<CoverCut> separate_cover_cuts(const lp::Model& model,
                                          const std::vector<double>& x,
                                          std::size_t max_cuts,
                                          double min_violation) {
  std::vector<CoverCut> cuts;
  std::vector<Item> items;
  std::vector<bool> in_cover;  // by position in items
  std::vector<double> weights, mu;

  for (lp::Index i = 0; i < model.num_rows() && cuts.size() < max_cuts;
       ++i) {
    const double b = model.row_ub(i);
    if (!(b < lp::kInf) || model.row_lb(i) > -lp::kInf) continue;  // <= only
    const lp::Model::RowView row = model.row(i);
    if (row.size < 2) continue;

    items.clear();
    bool knapsack = true;
    for (std::size_t k = 0; k < row.size; ++k) {
      const lp::Index j = row.vars[k];
      if (row.coefs[k] <= 0 ||
          model.var_type(j) != lp::VarType::kBinary) {
        knapsack = false;
        break;
      }
      items.push_back({j, row.coefs[k], x[j]});
    }
    if (!knapsack || b <= 0) continue;

    // Greedy cover: take items by decreasing fractional value until the
    // weights exceed b.  Items at (near) zero can never help a cover's
    // violation, so stop considering them.
    std::sort(items.begin(), items.end(), [](const Item& a, const Item& b2) {
      return a.value > b2.value;
    });
    double weight = 0.0;
    std::size_t cover_end = 0;
    while (cover_end < items.size() && weight <= b) {
      weight += items[cover_end].coef;
      ++cover_end;
    }
    if (weight <= b) continue;  // the whole row cannot cover

    // Minimalize: drop members whose removal keeps it a cover, preferring
    // to drop low-value members (they contribute least to violation).
    in_cover.assign(items.size(), false);
    std::fill(in_cover.begin(),
              in_cover.begin() + static_cast<std::ptrdiff_t>(cover_end), true);
    std::size_t cover_size = cover_end;
    for (std::size_t k = cover_end; k-- > 0;) {
      if (weight - items[k].coef > b) {
        weight -= items[k].coef;
        in_cover[k] = false;
        --cover_size;
      }
    }

    const double rhs = static_cast<double>(cover_size) - 1.0;

    // Lift every non-cover variable of the row: with mu_h = the sum of
    // the h largest cover weights, alpha_j = max{ h : mu_h <= a_j } (0 =
    // not in the cut).  See the header for the validity argument; the
    // old "extend with coefficient 1 when a_j >= max cover weight" is
    // exactly the h = 1 case.
    weights.clear();
    for (std::size_t k = 0; k < cover_end; ++k) {
      if (in_cover[k]) weights.push_back(items[k].coef);
    }
    std::sort(weights.begin(), weights.end(), std::greater<>());
    mu.assign(1, 0.0);  // mu[h] = sum of h largest cover weights
    for (const double w : weights) mu.push_back(mu.back() + w);

    CoverCut cut;
    double activity = 0.0;
    for (std::size_t k = 0; k < cover_end; ++k) {
      if (!in_cover[k]) continue;
      cut.vars.push_back(items[k].var);
      cut.coefs.push_back(1.0);
      activity += items[k].value;
    }
    for (std::size_t k = 0; k < items.size(); ++k) {
      if (in_cover[k]) continue;
      const Item& item = items[k];
      std::size_t alpha = 0;
      while (alpha + 1 < mu.size() && mu[alpha + 1] <= item.coef + 1e-9) {
        ++alpha;
      }
      if (alpha == 0) continue;
      cut.vars.push_back(item.var);
      cut.coefs.push_back(static_cast<double>(alpha));
      activity += static_cast<double>(alpha) * item.value;
    }
    if (activity <= rhs + min_violation) continue;

    cut.rhs = rhs;
    cuts.push_back(std::move(cut));
  }
  return cuts;
}

}  // namespace gmm::ilp
