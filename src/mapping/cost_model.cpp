#include "mapping/cost_model.hpp"

#include "support/arithmetic.hpp"
#include "support/assert.hpp"

namespace gmm::mapping {

CostBreakdown assignment_cost(const design::DataStructure& ds,
                              const arch::BankType& type,
                              const PlacementPlan& plan) {
  // Products in double: access counts from the wire can be 19 digits
  // long, and every product below 2^53 is exact, as the int64 one was.
  const auto times = [](std::int64_t a, std::int64_t b) {
    return static_cast<double>(a) * static_cast<double>(b);
  };
  CostBreakdown cost;
  cost.latency = times(ds.effective_reads(), type.read_latency) +
                 times(ds.effective_writes(), type.write_latency);
  cost.pin_delay = times(ds.depth, type.pins_traversed);
  if (plan.feasible) {
    cost.pin_io = times(support::ilog2_ceil(plan.cd) + plan.cw,
                        type.pins_traversed);
  }
  return cost;
}

CostTable::CostTable(const design::Design& design, const arch::Board& board,
                     CostWeights weights)
    : num_structures_(design.size()),
      num_types_(board.num_types()),
      weights_(weights) {
  plans_.reserve(num_structures_ * num_types_);
  costs_.reserve(num_structures_ * num_types_);
  for (std::size_t d = 0; d < num_structures_; ++d) {
    for (std::size_t t = 0; t < num_types_; ++t) {
      plans_.push_back(plan_placement(design.at(d), board.type(t)));
      costs_.push_back(
          assignment_cost(design.at(d), board.type(t), plans_.back()));
    }
  }
}

double CostTable::assignment_objective(const std::vector<int>& type_of) const {
  GMM_ASSERT(type_of.size() == num_structures_,
             "assignment size does not match the design");
  double total = 0.0;
  for (std::size_t d = 0; d < num_structures_; ++d) {
    GMM_ASSERT(type_of[d] >= 0 &&
                   type_of[d] < static_cast<int>(num_types_),
               "assignment references an unknown bank type");
    total += cost(d, static_cast<std::size_t>(type_of[d]));
  }
  return total;
}

CostWeights normalized_weights(const design::Design& design,
                               const arch::Board& board) {
  double latency_sum = 0, pin_delay_sum = 0, pin_io_sum = 0;
  std::int64_t feasible_pairs = 0;
  for (std::size_t d = 0; d < design.size(); ++d) {
    for (std::size_t t = 0; t < board.num_types(); ++t) {
      const PlacementPlan plan = plan_placement(design.at(d), board.type(t));
      if (!plan.feasible) continue;
      const CostBreakdown c =
          assignment_cost(design.at(d), board.type(t), plan);
      latency_sum += c.latency;
      pin_delay_sum += c.pin_delay;
      pin_io_sum += c.pin_io;
      ++feasible_pairs;
    }
  }
  CostWeights w;
  if (feasible_pairs > 0) {
    const auto n = static_cast<double>(feasible_pairs);
    if (latency_sum > 0) w.latency = n / latency_sum;
    if (pin_delay_sum > 0) w.pin_delay = n / pin_delay_sum;
    if (pin_io_sum > 0) w.pin_io = n / pin_io_sum;
  }
  return w;
}

}  // namespace gmm::mapping
