#include "design/partition.hpp"

#include <algorithm>
#include <numeric>

#include "support/assert.hpp"

namespace gmm::design {

namespace {

/// Refinement passes over all structures; each pass is O(E + V * parts).
constexpr int kRefinePasses = 8;

/// Weight of a structure for the balance constraint: its storage bits,
/// floored at 1 so zero-sized structures still occupy a slot.
std::int64_t weight_of(const Design& design, std::size_t d) {
  return std::max<std::int64_t>(design.at(d).bits(), 1);
}

struct Edge {
  std::size_t to;
  std::int64_t traffic;
};

}  // namespace

std::int64_t edge_traffic(const Design& design, std::size_t a,
                          std::size_t b) {
  const DataStructure& x = design.at(a);
  const DataStructure& y = design.at(b);
  const std::int64_t ax = x.effective_reads() + x.effective_writes();
  const std::int64_t ay = y.effective_reads() + y.effective_writes();
  return std::max<std::int64_t>(std::min(ax, ay), 1);
}

PartitionResult partition_design(const Design& design,
                                 const PartitionOptions& options) {
  const std::size_t n = design.size();
  const std::size_t parts = options.parts;
  GMM_ASSERT(parts >= 1, "partition_design needs >= 1 part");
  GMM_ASSERT(options.capacities.empty() || options.capacities.size() == parts,
             "capacities must be empty or one entry per part");

  for (const PartitionDimension& dim : options.extra_dimensions) {
    GMM_ASSERT(dim.weights.size() == n && dim.capacities.size() == parts,
               "extra dimension weights/capacities must match "
               "structures/parts");
  }

  PartitionResult result;
  result.part_of.assign(n, 0);
  result.part_bits.assign(parts, 0);
  if (n == 0) return result;
  if (parts == 1) {
    for (std::size_t d = 0; d < n; ++d) {
      result.part_bits[0] += weight_of(design, d);
    }
    return result;
  }

  // Adjacency of the conflict graph, traffic-weighted.
  std::vector<std::vector<Edge>> adjacent(n);
  for (const auto& [a, b] : design.conflict_pairs()) {
    const std::int64_t traffic = edge_traffic(design, a, b);
    adjacent[a].push_back({b, traffic});
    adjacent[b].push_back({a, traffic});
  }

  // Per-part hard caps: explicit capacities, or uniform balanced caps.
  std::vector<std::int64_t> caps = options.capacities;
  if (caps.empty()) {
    std::int64_t total = 0;
    for (std::size_t d = 0; d < n; ++d) total += weight_of(design, d);
    const double ideal =
        static_cast<double>(total) / static_cast<double>(parts);
    caps.assign(parts, static_cast<std::int64_t>(
                           ideal * (1.0 + options.balance_tolerance)) +
                           1);
  }

  // ---- greedy affinity growth -------------------------------------------
  // Heaviest structures first so the balance caps see them while there is
  // still slack everywhere; ties broken by index for determinism.
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return weight_of(design, a) > weight_of(design, b);
                   });

  std::vector<int> part_of(n, -1);
  std::vector<std::int64_t> load(parts, 0);
  const std::size_t dims = options.extra_dimensions.size();
  // extra_load[k * parts + p]: dimension k's load on part p.
  std::vector<std::int64_t> extra_load(dims * parts, 0);
  std::vector<std::int64_t> affinity(parts, 0);
  const auto fits = [&](std::size_t p, std::size_t d) {
    if (load[p] + weight_of(design, d) > caps[p]) return false;
    for (std::size_t k = 0; k < dims; ++k) {
      const PartitionDimension& dim = options.extra_dimensions[k];
      if (extra_load[k * parts + p] + dim.weights[d] > dim.capacities[p]) {
        return false;
      }
    }
    return true;
  };
  const auto place = [&](std::size_t d, int p, int previous) {
    part_of[d] = p;
    load[p] += weight_of(design, d);
    if (previous >= 0) load[previous] -= weight_of(design, d);
    for (std::size_t k = 0; k < dims; ++k) {
      const std::int64_t w = options.extra_dimensions[k].weights[d];
      extra_load[k * parts + static_cast<std::size_t>(p)] += w;
      if (previous >= 0) {
        extra_load[k * parts + static_cast<std::size_t>(previous)] -= w;
      }
    }
  };
  for (const std::size_t d : order) {
    std::fill(affinity.begin(), affinity.end(), 0);
    std::int64_t incident = 0;
    for (const Edge& e : adjacent[d]) {
      if (part_of[e.to] >= 0) affinity[part_of[e.to]] += e.traffic;
      incident += e.traffic;
    }
    // Score = normalized affinity minus the most-binding load share.  On
    // a near-complete conflict graph every partition has (almost) the
    // same cut, and raw affinity would just snowball everything into one
    // part until its cap — the two normalized terms then cancel and the
    // choice degrades to load balancing, while a genuinely clustered
    // graph still sees affinity dominate.
    const auto score = [&](std::size_t p) {
      const double value = incident > 0 ? static_cast<double>(affinity[p]) /
                                              static_cast<double>(incident)
                                        : 0.0;
      double share = caps[p] > 0
                         ? static_cast<double>(load[p] + weight_of(design, d)) /
                               static_cast<double>(caps[p])
                         : 1.0;
      for (std::size_t k = 0; k < dims; ++k) {
        const PartitionDimension& dim = options.extra_dimensions[k];
        if (dim.capacities[p] > 0 && dim.weights[d] > 0) {
          share = std::max(
              share, static_cast<double>(extra_load[k * parts + p] +
                                         dim.weights[d]) /
                         static_cast<double>(dim.capacities[p]));
        }
      }
      return value - share;
    };
    int best = -1;
    for (std::size_t p = 0; p < parts; ++p) {
      if (!fits(p, d)) continue;
      if (best < 0 || score(p) > score(best) ||
          (score(p) == score(best) && load[p] < load[best])) {
        best = static_cast<int>(p);
      }
    }
    if (best < 0) {
      // Fits nowhere: take the part with the most remaining slack; the
      // per-device solve will report infeasibility if it truly cannot fit.
      for (std::size_t p = 0; p < parts; ++p) {
        if (best < 0 || caps[p] - load[p] > caps[best] - load[best]) {
          best = static_cast<int>(p);
        }
      }
    }
    place(d, best, -1);
  }

  // ---- FM-style refinement ----------------------------------------------
  // Relocate single structures while a move strictly reduces the
  // traffic-weighted cut and respects the caps.  Index order + first
  // improvement keeps it deterministic.
  for (int pass = 0; pass < kRefinePasses; ++pass) {
    bool moved = false;
    for (std::size_t d = 0; d < n; ++d) {
      std::fill(affinity.begin(), affinity.end(), 0);
      for (const Edge& e : adjacent[d]) {
        affinity[part_of[e.to]] += e.traffic;
      }
      const int cur = part_of[d];
      int best = cur;
      for (std::size_t p = 0; p < parts; ++p) {
        if (static_cast<int>(p) == cur || !fits(p, d)) continue;
        const std::int64_t gain = affinity[p] - affinity[best];
        if (gain > 0 ||
            (gain == 0 && best != cur && load[p] < load[best])) {
          best = static_cast<int>(p);
        }
      }
      if (best != cur && affinity[best] > affinity[cur]) {
        place(d, best, cur);
        moved = true;
      }
    }
    if (!moved) break;
  }

  result.part_of = std::move(part_of);
  result.part_bits = std::move(load);
  for (const auto& [a, b] : design.conflict_pairs()) {
    if (result.part_of[a] != result.part_of[b]) {
      ++result.cut_edges;
      result.cut_traffic += edge_traffic(design, a, b);
    }
  }
  return result;
}

}  // namespace gmm::design
