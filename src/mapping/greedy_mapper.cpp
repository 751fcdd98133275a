#include "mapping/greedy_mapper.hpp"

#include <algorithm>
#include <numeric>

#include "support/timer.hpp"

namespace gmm::mapping {

std::vector<int> headroom_assignment(const design::Design& design,
                                     const arch::Board& board,
                                     const CostTable& table) {
  const std::size_t num_ds = design.size();
  const std::size_t num_types = board.num_types();
  std::vector<std::size_t> order(num_ds);
  std::iota(order.begin(), order.end(), 0u);
  std::stable_sort(order.begin(), order.end(),
                   [&design](std::size_t a, std::size_t b) {
                     return design.at(a).bits() > design.at(b).bits();
                   });
  std::vector<std::int64_t> ports_left(num_types), bits_left(num_types);
  for (std::size_t t = 0; t < num_types; ++t) {
    ports_left[t] = board.type(t).total_ports();
    bits_left[t] = board.type(t).total_bits();
  }
  std::vector<int> assignment(num_ds, -1);
  for (const std::size_t d : order) {
    int best = -1;
    double best_headroom = -1.0;
    for (std::size_t t = 0; t < num_types; ++t) {
      if (!table.feasible(d, t)) continue;
      const PlacementPlan& plan = table.plan(d, t);
      if (plan.cp > ports_left[t] || plan.cw * plan.cd > bits_left[t]) {
        continue;
      }
      const double headroom = static_cast<double>(ports_left[t]) /
                              static_cast<double>(board.type(t).total_ports());
      if (headroom > best_headroom) {
        best_headroom = headroom;
        best = static_cast<int>(t);
      }
    }
    if (best < 0) return {};
    assignment[d] = best;
    const PlacementPlan& plan = table.plan(d, static_cast<std::size_t>(best));
    ports_left[best] -= plan.cp;
    bits_left[best] -= plan.cw * plan.cd;
  }
  return assignment;
}

bool repair_assignment(const design::Design& design, const arch::Board& board,
                       const CostTable& table, std::vector<int>& assign,
                       const std::vector<char>* allowed) {
  const std::size_t num_ds = design.size();
  const std::size_t num_types = board.num_types();
  // Conservative per-type loads.
  std::vector<std::int64_t> ports(num_types, 0), bits(num_types, 0);
  for (std::size_t d = 0; d < num_ds; ++d) {
    const PlacementPlan& plan = table.plan(d, assign[d]);
    ports[assign[d]] += plan.cp;
    bits[assign[d]] += plan.cw * plan.cd;
  }
  for (std::size_t moves = 0; moves < 4 * num_ds; ++moves) {
    int over = -1;
    for (std::size_t t = 0; t < num_types; ++t) {
      if (ports[t] > board.type(t).total_ports() ||
          bits[t] > board.type(t).total_bits()) {
        over = static_cast<int>(t);
        break;
      }
    }
    if (over < 0) break;
    // Cheapest migration off the over-budget type.
    double best_delta = 0.0;
    std::size_t best_d = 0;
    int best_t = -1;
    for (std::size_t d = 0; d < num_ds; ++d) {
      if (assign[d] != over) continue;
      for (std::size_t t = 0; t < num_types; ++t) {
        if (static_cast<int>(t) == over || !table.feasible(d, t) ||
            (allowed != nullptr && (*allowed)[d * num_types + t] == 0)) {
          continue;
        }
        const PlacementPlan& plan = table.plan(d, t);
        if (ports[t] + plan.cp > board.type(t).total_ports() ||
            bits[t] + plan.cw * plan.cd > board.type(t).total_bits()) {
          continue;
        }
        const double delta = table.cost(d, t) - table.cost(d, over);
        if (best_t < 0 || delta < best_delta) {
          best_delta = delta;
          best_d = d;
          best_t = static_cast<int>(t);
        }
      }
    }
    if (best_t < 0) {
      // Repair stuck: last resort is the feasibility-first construction
      // (ignores the input entirely but always yields an assignment when
      // one is this easy to build).
      assign = headroom_assignment(design, board, table);
      return !assign.empty();
    }
    const PlacementPlan& from = table.plan(best_d, over);
    const PlacementPlan& to = table.plan(best_d, best_t);
    ports[over] -= from.cp;
    bits[over] -= from.cw * from.cd;
    ports[best_t] += to.cp;
    bits[best_t] += to.cw * to.cd;
    assign[best_d] = best_t;
  }
  return true;
}

GreedyResult map_greedy(const design::Design& design,
                        const arch::Board& board, const CostTable& table) {
  support::WallTimer timer;
  GreedyResult result;
  const std::size_t num_ds = design.size();
  const std::size_t num_types = board.num_types();

  // Largest structures first: they have the fewest placement options.
  std::vector<std::size_t> order(num_ds);
  std::iota(order.begin(), order.end(), 0u);
  std::stable_sort(order.begin(), order.end(),
                   [&design](std::size_t a, std::size_t b) {
                     return design.at(a).bits() > design.at(b).bits();
                   });

  std::vector<std::int64_t> ports_left(num_types), bits_left(num_types);
  for (std::size_t t = 0; t < num_types; ++t) {
    ports_left[t] = board.type(t).total_ports();
    bits_left[t] = board.type(t).total_bits();
  }

  result.assignment.type_of.assign(num_ds, -1);
  for (const std::size_t d : order) {
    int best_type = -1;
    double best_cost = 0.0;
    for (std::size_t t = 0; t < num_types; ++t) {
      if (!table.feasible(d, t)) continue;
      const PlacementPlan& plan = table.plan(d, t);
      if (plan.cp > ports_left[t]) continue;
      if (plan.cw * plan.cd > bits_left[t]) continue;
      const double cost = table.cost(d, t);
      if (best_type < 0 || cost < best_cost) {
        best_type = static_cast<int>(t);
        best_cost = cost;
      }
    }
    if (best_type < 0) {
      // Cheapest-cost ordering painted itself into a corner; fall back to
      // the feasibility-first construction.
      const std::vector<int> fallback =
          headroom_assignment(design, board, table);
      if (fallback.empty()) {
        result.success = false;
        result.failure =
            "no bank type has budget left for " + design.at(d).name;
        result.seconds = timer.seconds();
        return result;
      }
      result.assignment.type_of = fallback;
      result.assignment.objective = table.assignment_objective(fallback);
      result.success = true;
      result.used_fallback = true;
      result.seconds = timer.seconds();
      return result;
    }
    result.assignment.type_of[d] = best_type;
    const PlacementPlan& plan = table.plan(d, static_cast<std::size_t>(best_type));
    ports_left[best_type] -= plan.cp;
    bits_left[best_type] -= plan.cw * plan.cd;
  }
  result.assignment.objective =
      table.assignment_objective(result.assignment.type_of);
  result.success = true;
  result.seconds = timer.seconds();
  return result;
}

}  // namespace gmm::mapping
