#include "mapping/lagrangian.hpp"

#include <algorithm>
#include <cmath>

#include "mapping/greedy_mapper.hpp"

namespace gmm::mapping {

namespace {

using lp::kInf;

// Subgradient schedule.  The first round starts from the root LP duals;
// each later round restarts from the best multipliers after a fixing pass
// and stops when a pass fixes nothing new.
constexpr int kFirstRoundSteps = 100;
constexpr int kLaterRoundSteps = 25;
constexpr int kMaxRounds = 3;
// Polyak step scale: halved after kStallSteps steps without a better
// bound; the round ends below kMinStepScale.
constexpr double kInitialStepScale = 1.0;
constexpr int kStallSteps = 5;
constexpr double kMinStepScale = 1e-3;

enum class Pair : signed char { kOut, kFree, kIn };

/// Rounding margin around a finite objective value: fixing and closing
/// need this much beyond the threshold, and the reported bound gives it
/// back.
double margin(double value) { return 1e-9 * std::max(1.0, std::abs(value)); }

/// Exact 0-1 knapsack by DP over integer capacities: maximize profit with
/// total weight <= c, for every c up to the capacity.  The prefix table
/// pre[i][c] covers candidates [0, i); the suffix table suf[i][c] covers
/// [i, n).  Profits are positive, so both are nondecreasing in c.
class KnapsackDp {
 public:
  /// Fill the prefix table; returns the optimum at `capacity`.
  double solve(const std::vector<double>& profit,
               const std::vector<std::int64_t>& weight,
               std::int64_t capacity) {
    n_ = profit.size();
    width_ = static_cast<std::size_t>(capacity) + 1;
    pre_.assign((n_ + 1) * width_, 0.0);
    for (std::size_t i = 0; i < n_; ++i) {
      const double* prev = &pre_[i * width_];
      double* next = &pre_[(i + 1) * width_];
      const auto w = static_cast<std::size_t>(weight[i]);
      for (std::size_t c = 0; c < width_; ++c) {
        next[c] = prev[c];
        if (c >= w) next[c] = std::max(next[c], prev[c - w] + profit[i]);
      }
    }
    return pre_[n_ * width_ + width_ - 1];
  }

  /// Candidates of one optimal solution at full capacity.
  void optimal_set(const std::vector<std::int64_t>& weight,
                   std::vector<char>& chosen) const {
    chosen.assign(n_, 0);
    std::size_t c = width_ - 1;
    for (std::size_t i = n_; i-- > 0;) {
      if (pre_[(i + 1) * width_ + c] != pre_[i * width_ + c]) {
        chosen[i] = 1;
        c -= static_cast<std::size_t>(weight[i]);
      }
    }
  }

  /// Fill the suffix table (after solve() with the same inputs).
  void build_suffix(const std::vector<double>& profit,
                    const std::vector<std::int64_t>& weight) {
    suf_.assign((n_ + 1) * width_, 0.0);
    for (std::size_t i = n_; i-- > 0;) {
      const double* next = &suf_[(i + 1) * width_];
      double* cur = &suf_[i * width_];
      const auto w = static_cast<std::size_t>(weight[i]);
      for (std::size_t c = 0; c < width_; ++c) {
        cur[c] = next[c];
        if (c >= w) cur[c] = std::max(cur[c], next[c - w] + profit[i]);
      }
    }
  }

  /// Optimum at capacity `c` over every candidate but `i`.
  [[nodiscard]] double excluding(std::size_t i, std::size_t c) const {
    double best = 0.0;
    for (std::size_t a = 0; a <= c; ++a) {
      best = std::max(best, pre_[i * width_ + a] + suf_[(i + 1) * width_ + c - a]);
    }
    return best;
  }

  /// Optimum at capacity `c` over every candidate.
  [[nodiscard]] double full(std::size_t c) const {
    return pre_[n_ * width_ + c];
  }

 private:
  std::size_t n_ = 0, width_ = 1;
  std::vector<double> pre_, suf_;
};

}  // namespace

/// The state of one relaxation call: pair statuses, multipliers and the
/// incumbent the call has seen.
class LagrangianCall {
 public:
  LagrangianCall(const LagrangianBound& owner,
                 const ilp::RelaxationQuery& query)
      : o_(owner), q_(query), incumbent_(query.incumbent) {}

  ilp::RelaxationResult run() {
    ilp::RelaxationResult result;
    if (!init_status()) {
      result.bound = kInf;
      return result;
    }
    init_multipliers();
    for (int round = 0; round < kMaxRounds; ++round) {
      const double round_bound =
          subgradient(round == 0 ? kFirstRoundSteps : kLaterRoundSteps);
      best_bound_ = std::max(best_bound_, round_bound);
      if (closes(best_bound_)) {
        result.bound = best_bound_ >= kInf ? kInf
                                           : best_bound_ - margin(best_bound_);
        return result;
      }
      // Later rounds only tighten the statuses, so L never drops below
      // the previous round's bound at its best multipliers: round_bound
      // is L(best_lambda_) under the current statuses.
      const int fixed = fix(round_bound, result.fixings);
      if (fixed < 0) {
        // Every type of some structure is fixed out: nothing beats the
        // incumbent by more than the gap.
        result.bound = kInf;
        return result;
      }
      if (fixed == 0) break;
    }
    result.bound = best_bound_ - margin(best_bound_);
    return result;
  }

 private:
  [[nodiscard]] std::size_t num_types() const { return o_.board_.num_types(); }

  [[nodiscard]] double threshold() const {
    return ilp::prune_threshold(incumbent_, q_.rel_gap, q_.abs_gap);
  }
  [[nodiscard]] bool closes(double bound) const {
    const double limit = threshold();
    if (bound >= kInf || limit >= kInf) return bound >= kInf;
    return bound - margin(limit) >= limit;
  }

  /// Pair statuses from the query's bounds; a structure with a pair fixed
  /// at 1 has its other pairs out.  False when some structure has no pair
  /// left or two fixed at 1.
  bool init_status() {
    status_.assign(static_cast<std::size_t>(o_.num_vars_), Pair::kOut);
    for (std::size_t d = 0; d < o_.z_.size(); ++d) {
      if (!settle(d, true)) return false;
    }
    // Only what a fixing pass decides is reported back.
    decided_.assign(status_.size(), 0);
    for (std::size_t v = 0; v < status_.size(); ++v) {
      decided_[v] = status_[v] != Pair::kFree ? 1 : 0;
    }
    cost_.assign(status_.size(), 0.0);
    for (const auto& k : o_.knapsacks_) {
      for (const LagrangianBound::Item& item : k.items) {
        cost_[item.var] = item.cost;
      }
    }
    return true;
  }

  /// (Re)derive structure d's pair statuses: from the query's bounds when
  /// `from_query`, else from the current statuses.  False when d has no
  /// pair left or two forced in.
  bool settle(std::size_t d, bool from_query) {
    int forced = -1, open = 0;
    for (std::size_t t = 0; t < num_types(); ++t) {
      const lp::Index v = o_.z_[d][t];
      if (v == lp::kInvalidIndex) continue;
      Pair& s = status_[v];
      if (from_query) {
        s = q_.ub[v] < 0.5 ? Pair::kOut
            : q_.lb[v] > 0.5 ? Pair::kIn
                             : Pair::kFree;
      }
      if (s == Pair::kIn) {
        if (forced >= 0) return false;
        forced = static_cast<int>(t);
      }
      if (s != Pair::kOut) ++open;
    }
    if (open == 0) return false;
    if (forced >= 0) {
      for (std::size_t t = 0; t < num_types(); ++t) {
        const lp::Index v = o_.z_[d][t];
        if (v != lp::kInvalidIndex && static_cast<int>(t) != forced) {
          status_[v] = Pair::kOut;
        }
      }
    }
    return true;
  }

  void init_multipliers() {
    const std::size_t num_ds = o_.z_.size();
    lambda_.assign(num_ds, 0.0);
    for (std::size_t d = 0; d < num_ds; ++d) {
      const auto row = static_cast<std::size_t>(o_.uniqueness_rows_[d]);
      if (row < q_.row_duals.size()) {
        lambda_[d] = q_.row_duals[row];
        continue;
      }
      // No root LP: start from the cheapest open pair.
      double cheapest = kInf;
      for (std::size_t t = 0; t < num_types(); ++t) {
        const lp::Index v = o_.z_[d][t];
        if (v != lp::kInvalidIndex && status_[v] != Pair::kOut) {
          cheapest = std::min(cheapest, cost_[v]);
        }
      }
      lambda_[d] = cheapest < kInf ? cheapest : 0.0;
    }
    best_lambda_ = lambda_;
  }

  /// The knapsack's candidates at `lambda`: free pairs with positive
  /// profit that fit beside the forced ones.  Returns the forced pairs'
  /// profit, or -inf when they alone overflow the capacity.
  double candidates(const LagrangianBound::Knapsack& k,
                    const std::vector<double>& lambda, std::int64_t& room) {
    cand_.clear();
    profit_.clear();
    weight_.clear();
    double forced_profit = 0.0;
    room = k.capacity;
    for (std::size_t i = 0; i < k.items.size(); ++i) {
      const LagrangianBound::Item& item = k.items[i];
      if (status_[item.var] == Pair::kIn) {
        forced_profit += lambda[item.d] - item.cost;
        room -= item.weight;
      }
    }
    if (room < 0) return -kInf;
    for (std::size_t i = 0; i < k.items.size(); ++i) {
      const LagrangianBound::Item& item = k.items[i];
      const double p = lambda[item.d] - item.cost;
      if (status_[item.var] == Pair::kFree && p > 0.0 && item.weight <= room) {
        cand_.push_back(i);
        profit_.push_back(p);
        weight_.push_back(item.weight);
      }
    }
    return forced_profit;
  }

  /// L(lambda_), marking every chosen pair in take_; +inf when the forced
  /// pairs alone overflow a knapsack.
  double evaluate() {
    double value = 0.0;
    for (const double l : lambda_) value += l;
    take_.assign(status_.size(), 0);
    for (const LagrangianBound::Knapsack& k : o_.knapsacks_) {
      std::int64_t room = 0;
      const double forced = candidates(k, lambda_, room);
      if (forced == -kInf) return kInf;
      value -= forced + dp_.solve(profit_, weight_, room);
      dp_.optimal_set(weight_, chosen_);
      for (std::size_t c = 0; c < cand_.size(); ++c) {
        if (chosen_[c] != 0) take_[k.items[cand_[c]].var] = 1;
      }
      for (const LagrangianBound::Item& item : k.items) {
        if (status_[item.var] == Pair::kIn) take_[item.var] = 1;
      }
    }
    return value;
  }

  /// Repair the knapsack solution in take_ into an assignment and offer
  /// it when it beats the incumbent.  Each structure goes to its cheapest
  /// chosen pair, or its cheapest open pair when no knapsack chose it.
  void offer_repaired() {
    const std::size_t num_ds = o_.z_.size();
    const std::size_t nt = num_types();
    std::vector<int> assign(num_ds, -1);
    std::vector<char> allowed(num_ds * nt, 0);
    for (std::size_t d = 0; d < num_ds; ++d) {
      double chosen_cost = kInf, open_cost = kInf;
      int chosen_t = -1, open_t = -1;
      for (std::size_t t = 0; t < nt; ++t) {
        const lp::Index v = o_.z_[d][t];
        if (v == lp::kInvalidIndex || status_[v] == Pair::kOut) continue;
        allowed[d * nt + t] = 1;
        const double c = cost_[v];
        if (take_[v] != 0 && c < chosen_cost) {
          chosen_cost = c;
          chosen_t = static_cast<int>(t);
        }
        if (c < open_cost) {
          open_cost = c;
          open_t = static_cast<int>(t);
        }
      }
      assign[d] = chosen_t >= 0 ? chosen_t : open_t;
    }
    if (!repair_assignment(o_.design_, o_.board_, o_.table_, assign,
                           &allowed)) {
      return;
    }
    double objective = 0.0;
    std::vector<double> x(static_cast<std::size_t>(o_.num_vars_), 0.0);
    for (std::size_t d = 0; d < num_ds; ++d) {
      const lp::Index v = o_.z_[d][static_cast<std::size_t>(assign[d])];
      if (v == lp::kInvalidIndex) return;
      x[v] = 1.0;
      objective += cost_[v];
    }
    if (objective < incumbent_ - margin(objective)) {
      incumbent_ = std::min(incumbent_, q_.offer_incumbent(x));
    }
  }

  /// Up to `steps` Polyak subgradient steps from best_lambda_; returns the
  /// best bound seen (+inf when the relaxation is infeasible or closes).
  double subgradient(int steps) {
    lambda_ = best_lambda_;
    double best = -kInf;
    double scale = kInitialStepScale;
    int stall = 0;
    const std::size_t num_ds = o_.z_.size();
    std::vector<double> g(num_ds);
    for (int step = 0; step < steps && scale >= kMinStepScale; ++step) {
      const double value = evaluate();
      if (value >= kInf) return kInf;
      if (value > best) {
        best = value;
        best_lambda_ = lambda_;
        stall = 0;
      } else if (++stall >= kStallSteps) {
        scale *= 0.5;
        stall = 0;
      }
      offer_repaired();
      if (closes(std::max(best, best_bound_))) break;
      double norm2 = 0.0;
      for (std::size_t d = 0; d < num_ds; ++d) {
        double assigned = 0.0;
        for (std::size_t t = 0; t < num_types(); ++t) {
          const lp::Index v = o_.z_[d][t];
          if (v != lp::kInvalidIndex && take_[v] != 0) assigned += 1.0;
        }
        g[d] = 1.0 - assigned;
        norm2 += g[d] * g[d];
      }
      // Every structure chosen exactly once: lambda is dual optimal.
      if (norm2 == 0.0) break;
      const double target =
          incumbent_ < kInf ? incumbent_
                            : best + std::max(1.0, 1e-2 * std::abs(best));
      const double move = scale * std::max(0.0, target - value) / norm2;
      if (move <= 0.0) break;
      for (std::size_t d = 0; d < num_ds; ++d) lambda_[d] += move * g[d];
    }
    return best;
  }

  /// Fixing pass at best_lambda_, where L is `floor`: a free pair whose
  /// forced-in knapsack value reaches the threshold is fixed out, one
  /// whose forced-out value does is fixed in.  Appends the new fixings;
  /// returns their count, or -1 when some structure is left without a
  /// pair.
  int fix(double floor, std::vector<std::pair<lp::Index, double>>& fixings) {
    const double limit = threshold();
    if (limit >= kInf) return 0;
    std::vector<std::pair<lp::Index, double>> found;
    for (const LagrangianBound::Knapsack& k : o_.knapsacks_) {
      std::int64_t room = 0;
      const double forced = candidates(k, best_lambda_, room);
      if (forced == -kInf) return -1;
      const double optimum = dp_.solve(profit_, weight_, room);
      dp_.build_suffix(profit_, weight_);
      std::size_t next = 0;  // cand_ is in item order
      for (std::size_t i = 0; i < k.items.size(); ++i) {
        const LagrangianBound::Item& item = k.items[i];
        const bool is_cand = next < cand_.size() && cand_[next] == i;
        const std::size_t c = is_cand ? next++ : 0;
        if (status_[item.var] != Pair::kFree) continue;
        const double p = best_lambda_[item.d] - item.cost;
        const auto cap = static_cast<std::size_t>(room);
        const auto w = static_cast<std::size_t>(item.weight);
        const double in = w > cap ? -kInf
                          : is_cand ? p + dp_.excluding(c, cap - w)
                                    : p + dp_.full(cap - w);
        const double out = is_cand ? dp_.excluding(c, cap) : optimum;
        if (floor + (optimum - in) - margin(limit) >= limit) {
          found.emplace_back(item.var, 0.0);
        } else if (floor + (optimum - out) - margin(limit) >= limit) {
          found.emplace_back(item.var, 1.0);
        }
      }
    }
    for (const auto& [v, value] : found) {
      status_[v] = value > 0.5 ? Pair::kIn : Pair::kOut;
    }
    for (std::size_t d = 0; d < o_.z_.size(); ++d) {
      if (!settle(d, false)) return -1;
    }
    // Report every pair this pass decided, including the pairs a fixing
    // at 1 shut out of the structure's other types.
    int count = 0;
    for (std::size_t d = 0; d < o_.z_.size(); ++d) {
      for (std::size_t t = 0; t < num_types(); ++t) {
        const lp::Index v = o_.z_[d][t];
        if (v == lp::kInvalidIndex || decided_[v] != 0 ||
            status_[v] == Pair::kFree) {
          continue;
        }
        decided_[v] = 1;
        fixings.emplace_back(v, status_[v] == Pair::kIn ? 1.0 : 0.0);
        ++count;
      }
    }
    return count;
  }

  const LagrangianBound& o_;
  const ilp::RelaxationQuery& q_;
  double incumbent_;
  double best_bound_ = -kInf;
  std::vector<Pair> status_;
  std::vector<char> decided_;
  std::vector<double> lambda_, best_lambda_, cost_;
  std::vector<char> take_, chosen_;
  std::vector<std::size_t> cand_;
  std::vector<double> profit_;
  std::vector<std::int64_t> weight_;
  KnapsackDp dp_;
};

LagrangianBound::LagrangianBound(
    const design::Design& design, const arch::Board& board,
    const CostTable& table, const lp::Model& model,
    const std::vector<std::vector<lp::Index>>& z,
    const std::vector<std::vector<std::size_t>>& cliques,
    std::vector<lp::Index> uniqueness_rows)
    : design_(design),
      board_(board),
      table_(table),
      z_(z),
      uniqueness_rows_(std::move(uniqueness_rows)),
      num_vars_(model.num_vars()) {
  // Disjoint groups: each structure keeps the first clique containing it;
  // a structure in no clique has no port row, so its group never binds.
  const std::size_t num_ds = z.size();
  std::vector<bool> covered(num_ds, false);
  std::vector<std::vector<std::size_t>> groups;
  for (const auto& clique : cliques) {
    std::vector<std::size_t> members;
    for (const std::size_t d : clique) {
      if (d < num_ds && !covered[d]) {
        covered[d] = true;
        members.push_back(d);
      }
    }
    if (!members.empty()) groups.push_back(std::move(members));
  }
  std::vector<std::size_t> loose;
  for (std::size_t d = 0; d < num_ds; ++d) {
    if (!covered[d]) loose.push_back(d);
  }
  for (std::size_t t = 0; t < board.num_types(); ++t) {
    const std::int64_t ports = board.type(t).total_ports();
    const std::int64_t scale =
        ports > kMaxKnapsackCapacity
            ? (ports + kMaxKnapsackCapacity - 1) / kMaxKnapsackCapacity
            : 1;
    // A non-binding group weighs nothing: every profitable pair fits.
    const auto add_group = [&](const std::vector<std::size_t>& members,
                               bool binding) {
      Knapsack k;
      k.capacity = binding ? ports / scale : 0;
      for (const std::size_t d : members) {
        const lp::Index v = z[d][t];
        if (v == lp::kInvalidIndex) continue;
        k.items.push_back(Item{d, v, model.obj(v),
                               binding ? table.plan(d, t).cp / scale : 0});
      }
      if (!k.items.empty()) knapsacks_.push_back(std::move(k));
    };
    for (const auto& members : groups) add_group(members, true);
    add_group(loose, false);
  }
}

ilp::RelaxationResult LagrangianBound::operator()(
    const ilp::RelaxationQuery& query) const {
  LagrangianCall call(*this, query);
  return call.run();
}

}  // namespace gmm::mapping
