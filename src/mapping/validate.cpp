#include "mapping/validate.hpp"

#include <algorithm>
#include <cmath>
#include <span>
#include <utility>

#include "support/arithmetic.hpp"

namespace gmm::mapping {

namespace {

/// An instance's name in a violation, built only when one is reported.
std::string where(const arch::BankType& type, std::int64_t instance) {
  return type.name + "[" + std::to_string(instance) + "]";
}

}  // namespace

std::vector<std::string> validate_mapping(const design::Design& design,
                                          const arch::Board& board,
                                          const GlobalAssignment& assignment,
                                          const DetailedMapping& mapping) {
  std::vector<std::string> violations;
  const auto violation = [&violations](std::string message) {
    violations.push_back(std::move(message));
  };

  if (!mapping.success) {
    violation("mapping marked unsuccessful: " + mapping.failure);
    return violations;
  }
  if (assignment.type_of.size() != design.size()) {
    violation("assignment does not cover the design");
    return violations;
  }

  // ---- per-fragment structural checks -------------------------------
  std::vector<std::int64_t> covered_bits(design.size(), 0);
  for (const PlacedFragment& f : mapping.fragments) {
    if (f.ds >= design.size()) {
      violation("fragment references unknown structure");
      continue;
    }
    const design::DataStructure& ds = design.at(f.ds);
    if (f.type >= board.num_types()) {
      violation(ds.name + ": fragment on unknown bank type");
      continue;
    }
    const arch::BankType& type = board.type(f.type);
    if (assignment.type_of[f.ds] != static_cast<int>(f.type)) {
      violation(ds.name + ": fragment on type " + type.name +
                " but globally assigned elsewhere");
    }
    if (f.instance < 0 || f.instance >= type.instances) {
      violation(ds.name + ": instance index out of range on " + type.name);
    }
    if (f.config_index < 0 ||
        f.config_index >= static_cast<int>(type.configs.size())) {
      violation(ds.name + ": unknown configuration index");
      continue;
    }
    if (f.ports <= 0 || f.first_port < 0 ||
        f.first_port + f.ports > type.ports) {
      violation(ds.name + ": port range outside the instance's ports");
    }
    if (f.block_bits <= 0 || !support::is_pow2(f.block_bits)) {
      violation(ds.name + ": block size is not a power of two");
      continue;
    }
    if (f.offset_bits < 0 || f.offset_bits % f.block_bits != 0) {
      violation(ds.name + ": block offset not aligned to its size");
    }
    if (f.offset_bits + f.block_bits > type.capacity_bits()) {
      violation(ds.name + ": block exceeds the instance capacity");
    }
    // The reserved block must hold the covered data in the chosen config.
    const arch::BankConfig& config = type.configs[f.config_index];
    const std::int64_t needed_depth = support::round_up_pow2(f.words_covered);
    if (f.bits_covered > config.width) {
      violation(ds.name + ": data wider than the port configuration");
    }
    if (needed_depth * config.width > f.block_bits) {
      violation(ds.name + ": block too small for the covered words");
    }
    covered_bits[f.ds] += f.words_covered * f.bits_covered;
  }

  // ---- full coverage -----------------------------------------------------
  for (std::size_t d = 0; d < design.size(); ++d) {
    if (assignment.type_of[d] < 0 ||
        assignment.type_of[d] >= static_cast<int>(board.num_types())) {
      violation(design.at(d).name + ": structure left unassigned");
      continue;
    }
    if (covered_bits[d] != design.at(d).bits()) {
      violation(design.at(d).name + ": fragments cover " +
                std::to_string(covered_bits[d]) + " of " +
                std::to_string(design.at(d).bits()) + " data bits");
    }
  }

  // ---- per-instance checks ---------------------------------------------
  // Group the fragments by (type, instance), in that order, keeping the
  // mapping order within each instance.  A fragment on an unknown
  // structure or type was reported above and has nothing to be checked
  // against here.
  std::vector<const PlacedFragment*> by_instance;
  by_instance.reserve(mapping.fragments.size());
  for (const PlacedFragment& f : mapping.fragments) {
    if (f.ds < design.size() && f.type < board.num_types()) {
      by_instance.push_back(&f);
    }
  }
  std::stable_sort(by_instance.begin(), by_instance.end(),
                   [](const PlacedFragment* a, const PlacedFragment* b) {
                     return std::pair(a->type, a->instance) <
                            std::pair(b->type, b->instance);
                   });
  std::vector<const PlacedFragment*> group_heads;
  for (auto first = by_instance.begin(); first != by_instance.end();) {
    const auto last = std::find_if(
        first, by_instance.end(), [first](const PlacedFragment* f) {
          return f->type != (*first)->type ||
                 f->instance != (*first)->instance;
        });
    const std::span<const PlacedFragment* const> fragments(first, last);
    first = last;
    const arch::BankType& type = board.type(fragments.front()->type);
    const std::int64_t instance = fragments.front()->instance;

    // Distinct wiring groups: fragments sharing the exact same block AND
    // port range time-multiplex one set of wiring and count once.
    group_heads.clear();
    for (const PlacedFragment* f : fragments) {
      const bool duplicate = std::any_of(
          group_heads.begin(), group_heads.end(),
          [f](const PlacedFragment* head) {
            return head->first_port == f->first_port &&
                   head->ports == f->ports &&
                   head->offset_bits == f->offset_bits &&
                   head->block_bits == f->block_bits;
          });
      if (!duplicate) group_heads.push_back(f);
    }
    std::int64_t total_ports = 0;
    for (const PlacedFragment* head : group_heads) total_ports += head->ports;
    if (total_ports > type.ports) {
      violation(where(type, instance) + ": " +
                std::to_string(total_ports) + " ports consumed of " +
                std::to_string(type.ports));
    }

    for (std::size_t a = 0; a < fragments.size(); ++a) {
      for (std::size_t b = a + 1; b < fragments.size(); ++b) {
        const PlacedFragment* fa = fragments[a];
        const PlacedFragment* fb = fragments[b];
        const bool port_overlap =
            fa->first_port < fb->first_port + fb->ports &&
            fb->first_port < fa->first_port + fa->ports;
        const bool block_overlap =
            fa->offset_bits < fb->offset_bits + fb->block_bits &&
            fb->offset_bits < fa->offset_bits + fa->block_bits;
        // Legal sharing: identical block + identical port range +
        // configuration between non-conflicting structures.
        const bool identical_share =
            fa->offset_bits == fb->offset_bits &&
            fa->block_bits == fb->block_bits &&
            fa->first_port == fb->first_port && fa->ports == fb->ports &&
            fa->config_index == fb->config_index;
        if (identical_share) {
          if (fa->ds == fb->ds) {
            violation(where(type, instance) + ": two fragments of " +
                      design.at(fa->ds).name + " share one block");
          } else if (design.conflicts(fa->ds, fb->ds)) {
            violation(where(type, instance) + ": conflicting structures " +
                      design.at(fa->ds).name + " and " +
                      design.at(fb->ds).name + " share storage");
          }
          continue;
        }
        if (port_overlap) {
          violation(where(type, instance) + ": port ranges of " +
                    design.at(fa->ds).name + " and " +
                    design.at(fb->ds).name + " overlap");
        }
        if (block_overlap) {
          violation(where(type, instance) + ": blocks of " +
                    design.at(fa->ds).name + " and " +
                    design.at(fb->ds).name + " overlap");
        }
      }
    }
  }
  return violations;
}

Certificate certify_mapping(const design::Design& design,
                            const arch::Board& board,
                            const GlobalAssignment& assignment,
                            const DetailedMapping& mapping,
                            double stitch_cost, const CostWeights& weights) {
  Certificate out{validate_mapping(design, board, assignment, mapping)};
  if (!out.ok()) return out;
  // Price only the n assigned plans, not the n x T table, summed in d
  // order so the value is CostTable::assignment_objective's to the bit.
  // validate_mapping has checked every type_of[d] is a board type.
  double total = 0.0;
  for (std::size_t d = 0; d < design.size(); ++d) {
    const arch::BankType& type =
        board.type(static_cast<std::size_t>(assignment.type_of[d]));
    total += assignment_cost(design.at(d), type,
                             plan_placement(design.at(d), type))
                 .total(weights);
  }
  out.objective = total + stitch_cost;
  if (std::abs(out.objective - assignment.objective) >
      1e-6 * std::max(1.0, std::abs(assignment.objective))) {
    out.problems.push_back(
        "objective " + std::to_string(assignment.objective) +
        " but the assignment costs " + std::to_string(out.objective));
  }
  return out;
}

}  // namespace gmm::mapping
