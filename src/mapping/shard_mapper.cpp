#include "mapping/shard_mapper.hpp"

#include <algorithm>
#include <map>
#include <numeric>
#include <string>
#include <utility>

#include "ilp/mip_solver.hpp"
#include "lp/model.hpp"
#include "support/arithmetic.hpp"
#include "support/assert.hpp"
#include "support/log.hpp"
#include "support/thread_pool.hpp"
#include "support/timer.hpp"

namespace gmm::mapping {

namespace {

/// Migration rounds for parts that are infeasible on every device.
constexpr int kMaxRepairRounds = 8;

void accumulate(ModelSize& into, const ModelSize& from) {
  into.variables += from.variables;
  into.binaries += from.binaries;
  into.rows += from.rows;
  into.nonzeros += from.nonzeros;
}

bool solved(const PipelineResult& r) {
  return (r.status == lp::SolveStatus::kOptimal ||
          r.status == lp::SolveStatus::kFeasible) &&
         r.detailed.success;
}

/// The sub-design induced by `members` (global structure indices, in
/// order): the structures themselves plus every conflict pair with both
/// endpoints inside.
design::Design induced_subdesign(const design::Design& design,
                                 const std::vector<std::size_t>& members,
                                 std::string name) {
  design::Design sub(std::move(name));
  std::vector<int> local(design.size(), -1);
  for (const std::size_t d : members) {
    local[d] = static_cast<int>(sub.add(design.at(d)));
  }
  for (const auto& [a, b] : design.conflict_pairs()) {
    if (local[a] >= 0 && local[b] >= 0) {
      sub.add_conflict(static_cast<std::size_t>(local[a]),
                       static_cast<std::size_t>(local[b]));
    }
  }
  return sub;
}

/// Degenerate paths (single usable device, no devices at all, empty
/// design): the plain pipeline result, field for field — the board's flat
/// type indices are already the single device's indices, so nothing needs
/// remapping.
ShardResult single_device_result(const design::Design& design,
                                 const arch::Board& board,
                                 const ShardOptions& options,
                                 int device_index, int skipped) {
  PipelineResult r = map_pipeline(design, board, options.pipeline);
  ShardResult out;
  out.status = r.status;
  out.assignment = r.assignment;
  out.detailed = std::move(r.detailed);
  out.objective = out.assignment.objective;
  out.effort = r.effort;
  out.total_effort = r.effort;
  out.model_size = r.model_size;
  out.retries = r.retries;
  const bool mapped = solved(r);
  out.device_of.assign(design.size(), mapped ? device_index : -1);
  out.stats.devices = static_cast<int>(board.num_devices());
  out.stats.shards = mapped ? 1 : 0;
  out.stats.skipped_devices = skipped;
  out.stats.candidate_solves = 1;
  return out;
}

}  // namespace

ShardResult map_sharded(const design::Design& design,
                        const arch::Board& board,
                        const ShardOptions& options) {
  // Devices without a single bank are skipped, never solved against.
  std::vector<std::size_t> usable;
  for (std::size_t k = 0; k < board.num_devices(); ++k) {
    if (board.device_banks(k) > 0) usable.push_back(k);
  }
  const int skipped =
      static_cast<int>(board.num_devices()) - static_cast<int>(usable.size());

  if (usable.size() <= 1 || design.size() == 0) {
    // Zero-bank devices own no bank types, so the flat board IS the lone
    // usable device's view; the single-device pipeline applies unchanged.
    return single_device_result(
        design, board, options,
        usable.empty() ? -1 : static_cast<int>(usable.front()), skipped);
  }

  ShardResult out;
  out.stats.devices = static_cast<int>(board.num_devices());
  out.stats.skipped_devices = skipped;
  out.device_of.assign(design.size(), -1);

  const std::size_t parts = usable.size();
  std::vector<arch::Board> views;
  std::vector<std::vector<std::size_t>> flat_of;  // local -> flat type idx
  std::vector<std::int64_t> device_bits;
  std::vector<std::int64_t> device_pins;
  views.reserve(parts);
  for (const std::size_t k : usable) {
    views.push_back(board.device_view(k));
    flat_of.push_back(board.device_type_indices(k));
    device_bits.push_back(board.device_bits(k));
    device_pins.push_back(board.device(k).inter_device_pins);
  }

  // Balance caps: each part may hold its device's proportional share of
  // the design (plus tolerance), hard-ceilinged by the device capacity —
  // otherwise min-cut happily piles every conflicting structure onto one
  // device and the board's other FPGAs idle.
  std::int64_t board_bits = 0;
  for (const std::int64_t bits : device_bits) board_bits += bits;
  std::vector<std::int64_t> caps(parts, 0);
  const double total_design_bits =
      static_cast<double>(std::max<std::int64_t>(design.total_bits(), 1));
  for (std::size_t u = 0; u < parts; ++u) {
    const double share = board_bits > 0
                             ? static_cast<double>(device_bits[u]) /
                                   static_cast<double>(board_bits)
                             : 0.0;
    caps[u] = std::min(
        device_bits[u],
        static_cast<std::int64_t>(
            total_design_bits * share *
            (1.0 + options.partition.balance_tolerance)) +
            1);
  }
  design::PartitionOptions partition_options = options.partition;
  partition_options.parts = parts;
  partition_options.capacities = std::move(caps);
  // Extra balance dimensions.  Bits-balance alone lets min-cut pile the
  // whole design onto one device until its scarce resources are
  // hopelessly oversubscribed, so the partitioner also balances the two
  // resources that actually bind on the paper's board family:
  //
  //   * OFF-CHIP PORTS — which structures need them depends on the
  //     AGGREGATE on-chip capacity, not per-structure fit, so a
  //     smallest-first virtual fill of the board's on-chip bits
  //     (mirroring the solver's economics, which parks the smallest
  //     structures on chip) decides who is off-chip-bound; those weigh
  //     their cheapest off-chip consumed-port count, capped per part by
  //     the device's off-chip port total;
  //   * ON-CHIP BITS — the fill's on-chip residents weigh their bits,
  //     capped per part by the device's on-chip capacity, so a cluster
  //     of hot little tables cannot all claim the same device's RAM.
  design::PartitionDimension off_chip_ports_dim;
  design::PartitionDimension on_chip_bits_dim;
  off_chip_ports_dim.weights.assign(design.size(), 0);
  on_chip_bits_dim.weights.assign(design.size(), 0);
  {
    std::int64_t on_chip_bits = 0;
    for (const arch::BankType& type : board.types()) {
      if (type.on_chip()) on_chip_bits += type.total_bits();
    }
    std::vector<std::size_t> by_bits(design.size());
    std::iota(by_bits.begin(), by_bits.end(), std::size_t{0});
    std::stable_sort(by_bits.begin(), by_bits.end(),
                     [&design](std::size_t a, std::size_t b) {
                       return design.at(a).bits() < design.at(b).bits();
                     });
    std::int64_t filled = 0;
    for (const std::size_t d : by_bits) {
      bool fits_on_chip = false;
      std::int64_t min_off_chip_ports = -1;
      for (const arch::BankType& type : board.types()) {
        const PlacementPlan plan = plan_placement(design.at(d), type);
        if (!plan.feasible) continue;
        if (type.on_chip()) {
          fits_on_chip = true;
        } else if (min_off_chip_ports < 0 || plan.cp < min_off_chip_ports) {
          min_off_chip_ports = plan.cp;
        }
      }
      if (fits_on_chip && filled + design.at(d).bits() <= on_chip_bits) {
        filled += design.at(d).bits();
        on_chip_bits_dim.weights[d] = design.at(d).bits();
        continue;
      }
      off_chip_ports_dim.weights[d] =
          std::max<std::int64_t>(min_off_chip_ports, 1);
    }
  }
  off_chip_ports_dim.capacities.resize(parts);
  on_chip_bits_dim.capacities.resize(parts);
  for (std::size_t u = 0; u < parts; ++u) {
    std::int64_t off_chip_ports = 0;
    std::int64_t on_chip_bits = 0;
    for (const std::size_t t : flat_of[u]) {
      if (board.type(t).on_chip()) {
        on_chip_bits += board.type(t).total_bits();
      } else {
        off_chip_ports += board.type(t).total_ports();
      }
    }
    off_chip_ports_dim.capacities[u] = off_chip_ports;
    on_chip_bits_dim.capacities[u] = on_chip_bits;
  }
  partition_options.extra_dimensions = {off_chip_ports_dim,
                                        on_chip_bits_dim};
  const design::PartitionResult partition =
      design::partition_design(design, partition_options);
  std::vector<int> part_of = partition.part_of;

  const std::shared_ptr<const support::CancelToken>& token =
      options.pipeline.global.mip.cancel_token;
  const auto stopped = [&token, &out]() {
    if (token == nullptr || !token->should_stop()) return false;
    out.status = token->cancelled() ? lp::SolveStatus::kCancelled
                                    : lp::SolveStatus::kTimeLimit;
    return true;
  };

  /// Repair step for a part that cannot land anywhere: move its most
  /// resource-hungry structure (largest off-chip port weight, then
  /// largest bits) to the other part with the most off-chip-port slack.
  /// Each structure may migrate at most twice — a structure that keeps
  /// making its host infeasible wherever it goes is evidence of genuine
  /// infeasibility, not of a bad split, and unbounded migration would
  /// just ping-pong it between two parts until the round budget burns.
  std::vector<int> migration_count(design.size(), 0);
  const auto migrate = [&](int from,
                           const std::vector<std::int64_t>& part_bits) {
    const std::vector<std::int64_t>& port_weight =
        off_chip_ports_dim.weights;
    std::size_t victim = design.size();
    for (std::size_t d = 0; d < design.size(); ++d) {
      if (part_of[d] != from || migration_count[d] >= 2) continue;
      if (victim == design.size() ||
          port_weight[d] > port_weight[victim] ||
          (port_weight[d] == port_weight[victim] &&
           design.at(d).bits() > design.at(victim).bits())) {
        victim = d;
      }
    }
    if (victim == design.size()) return false;
    std::vector<std::int64_t> port_load(parts, 0);
    for (std::size_t d = 0; d < design.size(); ++d) {
      port_load[static_cast<std::size_t>(part_of[d])] += port_weight[d];
    }
    // Target choice: among parts the victim still FITS bits-wise on some
    // device, maximize off-chip-port slack (ties: lightest part).  Port
    // slack alone could land the victim on a bits-full part and bounce
    // it around until the round budget burns.
    const std::int64_t victim_bits = design.at(victim).bits();
    const std::int64_t max_device_bits =
        *std::max_element(device_bits.begin(), device_bits.end());
    int target = -1;
    for (const bool require_bit_fit : {true, false}) {
      for (std::size_t p = 0; p < parts; ++p) {
        if (static_cast<int>(p) == from) continue;
        if (require_bit_fit &&
            part_bits[p] + victim_bits > max_device_bits) {
          continue;
        }
        const std::int64_t slack =
            off_chip_ports_dim.capacities[p] - port_load[p];
        const std::int64_t best_slack =
            target < 0
                ? 0
                : off_chip_ports_dim
                          .capacities[static_cast<std::size_t>(target)] -
                      port_load[static_cast<std::size_t>(target)];
        if (target < 0 || slack > best_slack ||
            (slack == best_slack &&
             part_bits[p] < part_bits[static_cast<std::size_t>(target)])) {
          target = static_cast<int>(p);
        }
      }
      if (target >= 0) break;  // fall back to any part only if none fit
    }
    if (target < 0) return false;
    GMM_LOG(kInfo) << "shard repair: migrating '" << design.at(victim).name
                   << "' from part " << from << " to part " << target;
    part_of[victim] = target;
    ++migration_count[victim];
    ++out.stats.migrations;
    return true;
  };

  // Candidate solves keyed by (part member set, device): a migration only
  // changes two parts, so every other part's sub-design is bit-identical
  // next round and its pipeline result can be reused instead of re-paying
  // the ILP (each pipeline run is deterministic in its inputs).
  std::map<std::string, PipelineResult> candidate_cache;
  const auto candidate_key = [](const std::vector<std::size_t>& part_members,
                                std::size_t dev) {
    std::string key = std::to_string(dev) + "|";
    for (const std::size_t d : part_members) {
      key += std::to_string(d);
      key += ',';
    }
    return key;
  };

  support::ThreadPool pool(options.num_workers);  // candidate fan-out
  const char* infeasible_reason = "repair round budget exhausted";
  for (int round = 0; round <= kMaxRepairRounds; ++round) {
    if (stopped()) return out;

    // Materialize the current parts: member lists, induced sub-designs,
    // per-part bits and incident cut traffic.
    std::vector<std::vector<std::size_t>> members(parts);
    for (std::size_t d = 0; d < design.size(); ++d) {
      members[static_cast<std::size_t>(part_of[d])].push_back(d);
    }
    std::vector<design::Design> subs(parts);
    std::vector<std::int64_t> part_bits(parts, 0);
    std::vector<std::int64_t> cut_traffic(parts, 0);
    std::int64_t cut_edges = 0;
    for (std::size_t p = 0; p < parts; ++p) {
      if (members[p].empty()) continue;
      subs[p] = induced_subdesign(
          design, members[p], design.name() + "/part" + std::to_string(p));
      for (const std::size_t d : members[p]) {
        part_bits[p] += design.at(d).bits();
      }
    }
    for (const auto& [a, b] : design.conflict_pairs()) {
      if (part_of[a] == part_of[b]) continue;
      ++cut_edges;
      const std::int64_t traffic = design::edge_traffic(design, a, b);
      for (const int p : {part_of[a], part_of[b]}) {
        std::int64_t& sum = cut_traffic[static_cast<std::size_t>(p)];
        sum = support::saturating_add(sum, traffic);
      }
    }

    // Candidate (part, device) pairs whose bits fit the device at all.
    struct Candidate {
      std::size_t part;
      std::size_t dev;  // index into `usable`
    };
    std::vector<Candidate> candidates;
    std::vector<std::vector<std::size_t>> of_part(parts);  // candidate idx
    for (std::size_t p = 0; p < parts; ++p) {
      if (members[p].empty()) continue;
      for (std::size_t u = 0; u < parts; ++u) {
        if (part_bits[p] > device_bits[u]) continue;
        of_part[p].push_back(candidates.size());
        candidates.push_back({p, u});
      }
    }
    const auto needs_repair = [&](bool feasibility_known,
                                  const std::vector<std::size_t>& counts) {
      // The part with no (feasible) candidate, or -1 when none.
      for (std::size_t p = 0; p < parts; ++p) {
        if (members[p].empty()) continue;
        const std::size_t have =
            feasibility_known ? counts[p] : of_part[p].size();
        if (have == 0) return static_cast<int>(p);
      }
      return -1;
    };
    if (const int bad = needs_repair(false, {}); bad >= 0) {
      // A singleton part that fits nowhere can never be repaired by
      // migration: any part containing the structure inherits the
      // failure.  Report infeasible right away instead of thrashing.
      if (members[static_cast<std::size_t>(bad)].size() == 1) {
        infeasible_reason = "a lone structure fits no device";
        break;
      }
      out.stats.repair_rounds = round + 1;
      if (!migrate(bad, part_bits)) {
        infeasible_reason = "no migration target remains";
        break;
      }
      continue;
    }

    // Fan the UNCACHED candidate pipelines out over the pool.
    std::vector<const PipelineResult*> results(candidates.size(), nullptr);
    std::vector<std::size_t> uncached;
    for (std::size_t c = 0; c < candidates.size(); ++c) {
      const auto it = candidate_cache.find(
          candidate_key(members[candidates[c].part], candidates[c].dev));
      if (it != candidate_cache.end()) {
        results[c] = &it->second;
      } else {
        uncached.push_back(c);
      }
    }
    std::vector<PipelineResult> batch(uncached.size());
    support::parallel_for(pool, uncached.size(), [&](std::size_t i) {
      const Candidate& cand = candidates[uncached[i]];
      batch[i] = map_pipeline(subs[cand.part], views[cand.dev],
                              options.pipeline);
    });
    out.stats.candidate_solves += static_cast<std::int64_t>(uncached.size());
    for (std::size_t i = 0; i < uncached.size(); ++i) {
      const Candidate& cand = candidates[uncached[i]];
      out.total_effort += batch[i].effort;
      // std::map nodes are stable, so the pointer survives later inserts.
      results[uncached[i]] =
          &(candidate_cache[candidate_key(members[cand.part], cand.dev)] =
                std::move(batch[i]));
    }
    if (stopped()) return out;

    std::vector<std::size_t> feasible_count(parts, 0);
    for (std::size_t c = 0; c < candidates.size(); ++c) {
      if (solved(*results[c])) ++feasible_count[candidates[c].part];
    }
    if (const int bad = needs_repair(true, feasible_count); bad >= 0) {
      // Same singleton argument: a lone structure that no device can
      // take makes the whole design unmappable.
      if (members[static_cast<std::size_t>(bad)].size() == 1) {
        infeasible_reason = "a lone structure maps on no device";
        break;
      }
      out.stats.repair_rounds = round + 1;
      if (!migrate(bad, part_bits)) {
        infeasible_reason = "no migration target remains";
        break;
      }
      continue;
    }

    // Stitch: assign parts to devices over solved objective + transfer
    // cost.  Tiny (<= parts^2 binaries), solved exactly and serially so
    // the sharded objective is deterministic.
    support::WallTimer stitch_timer;
    lp::Model stitch;
    std::vector<lp::Index> var_of(candidates.size(), -1);
    for (std::size_t c = 0; c < candidates.size(); ++c) {
      if (!solved(*results[c])) continue;
      const Candidate& cand = candidates[c];
      const double transfer = static_cast<double>(cut_traffic[cand.part]) *
                              static_cast<double>(device_pins[cand.dev]);
      var_of[c] =
          stitch.add_binary(results[c]->assignment.objective + transfer);
    }
    for (std::size_t p = 0; p < parts; ++p) {
      if (members[p].empty()) continue;
      lp::LinExpr row;
      for (const std::size_t c : of_part[p]) {
        if (var_of[c] >= 0) row.add(var_of[c], 1.0);
      }
      stitch.add_constraint(row, lp::Sense::kEqual, 1.0);
    }
    for (std::size_t u = 0; u < parts; ++u) {
      lp::LinExpr row;
      for (std::size_t c = 0; c < candidates.size(); ++c) {
        if (candidates[c].dev == u && var_of[c] >= 0) {
          row.add(var_of[c], 1.0);
        }
      }
      if (!row.empty()) {
        stitch.add_constraint(row, lp::Sense::kLessEqual, 1.0);
      }
    }
    ilp::MipOptions stitch_options;
    stitch_options.num_threads = 1;
    stitch_options.rel_gap = 0.0;
    stitch_options.abs_gap = 0.0;
    const ilp::MipResult stitched = ilp::solve_mip(stitch, stitch_options);
    // Failed rounds' stitch time is real work (total_effort, stats) but
    // not work behind the returned mapping; out.effort only gets the
    // successful stitch, below.
    const double stitch_seconds = stitch_timer.seconds();
    out.stats.stitch_seconds += stitch_seconds;
    out.total_effort.solve_seconds += stitch_seconds;
    out.stats.stitch_model = {.variables = stitch.num_vars(),
                              .binaries = stitch.num_vars(),
                              .rows = stitch.num_rows(),
                              .nonzeros = static_cast<std::int64_t>(
                                  stitch.num_nonzeros())};
    if (stitched.status != lp::SolveStatus::kOptimal ||
        !stitched.has_incumbent()) {
      // Hall-type blockage: several parts compete for the same devices.
      // Shrink the most constrained part and retry.
      int tightest = -1;
      for (std::size_t p = 0; p < parts; ++p) {
        if (members[p].empty()) continue;
        if (tightest < 0 ||
            feasible_count[p] <
                feasible_count[static_cast<std::size_t>(tightest)]) {
          tightest = static_cast<int>(p);
        }
      }
      out.stats.repair_rounds = round + 1;
      if (tightest < 0 || !migrate(tightest, part_bits)) {
        infeasible_reason = "stitch blocked and no migration remains";
        break;
      }
      continue;
    }

    // Assemble the chosen candidates into one flat-index mapping.
    out.effort.solve_seconds += stitch_seconds;
    out.assignment.type_of.assign(design.size(), -1);
    bool all_optimal = true;
    for (std::size_t c = 0; c < candidates.size(); ++c) {
      if (var_of[c] < 0 || stitched.x[static_cast<std::size_t>(var_of[c])] <
                               0.5) {
        continue;
      }
      const Candidate& cand = candidates[c];
      const PipelineResult& r = *results[c];
      const std::vector<std::size_t>& flat = flat_of[cand.dev];
      for (std::size_t j = 0; j < members[cand.part].size(); ++j) {
        const std::size_t d = members[cand.part][j];
        out.assignment.type_of[d] = static_cast<int>(
            flat[static_cast<std::size_t>(r.assignment.type_of[j])]);
        out.device_of[d] = static_cast<int>(usable[cand.dev]);
      }
      for (PlacedFragment fragment : r.detailed.fragments) {
        fragment.ds = members[cand.part][fragment.ds];
        fragment.type = flat[fragment.type];
        out.detailed.fragments.push_back(fragment);
      }
      out.objective += r.assignment.objective;
      out.stats.stitch_cost += static_cast<double>(cut_traffic[cand.part]) *
                               static_cast<double>(device_pins[cand.dev]);
      out.retries += r.retries;
      out.effort += r.effort;
      accumulate(out.model_size, r.model_size);
      if (r.status != lp::SolveStatus::kOptimal) all_optimal = false;
      ++out.stats.shards;
    }
    out.objective += out.stats.stitch_cost;
    out.assignment.objective = out.objective;
    out.detailed.success = true;
    out.stats.cut_edges = cut_edges;
    out.status = all_optimal ? lp::SolveStatus::kOptimal
                             : lp::SolveStatus::kFeasible;
    return out;
  }

  GMM_LOG(kInfo) << "sharded mapping infeasible: " << infeasible_reason;
  out.status = lp::SolveStatus::kInfeasible;
  return out;
}

}  // namespace gmm::mapping
