#include "mapping/detailed_mapper.hpp"

#include <algorithm>
#include <map>
#include <vector>

#include "support/assert.hpp"
#include "support/log.hpp"

namespace gmm::mapping {

namespace {

/// Buddy allocator over one instance's bit space.  All block sizes are
/// powers of two and the capacity is a power of two, so allocation never
/// fails while free space >= requested block (the buddy invariant).
class BuddyAllocator {
 public:
  explicit BuddyAllocator(std::int64_t capacity_bits)
      : capacity_(capacity_bits) {
    free_[capacity_bits].push_back(0);
  }

  /// Allocate a power-of-two block; returns the offset or -1.
  std::int64_t allocate(std::int64_t size) {
    auto it = free_.lower_bound(size);
    while (it != free_.end() && it->second.empty()) ++it;
    if (it == free_.end()) return -1;
    std::int64_t block_size = it->first;
    std::int64_t offset = it->second.back();
    it->second.pop_back();
    // Split down to the requested size, returning the upper halves.
    while (block_size > size) {
      block_size /= 2;
      free_[block_size].push_back(offset + block_size);
    }
    return offset;
  }

  [[nodiscard]] std::int64_t capacity() const { return capacity_; }

 private:
  std::int64_t capacity_;
  std::map<std::int64_t, std::vector<std::int64_t>> free_;
};

/// One shared block that lifetime-disjoint structures may co-occupy.
/// Sharing is time-multiplexing of the identical storage AND wiring: a
/// joiner must match the block size, configuration and port demand, and
/// it reuses the same port range (no extra ports consumed).
struct SharedBlock {
  std::int64_t offset = 0;
  std::int64_t size = 0;
  int config_index = -1;
  std::int64_t ports = 0;
  std::int64_t first_port = 0;
  std::vector<std::size_t> occupants;  // data-structure indices
};

struct InstanceState {
  explicit InstanceState(std::int64_t capacity_bits)
      : buddy(capacity_bits) {}
  std::int64_t ports_used = 0;
  BuddyAllocator buddy;
  std::vector<SharedBlock> blocks;
};

/// A single fragment awaiting placement.
struct PendingFragment {
  std::size_t ds;
  const FragmentGroup* group;
};

}  // namespace

std::int64_t DetailedMapping::instances_used(std::size_t t) const {
  std::vector<std::int64_t> seen;
  for (const PlacedFragment& f : fragments) {
    if (f.type == t) seen.push_back(f.instance);
  }
  std::sort(seen.begin(), seen.end());
  seen.erase(std::unique(seen.begin(), seen.end()), seen.end());
  return static_cast<std::int64_t>(seen.size());
}

std::int64_t DetailedMapping::fragment_count(std::size_t d) const {
  std::int64_t count = 0;
  for (const PlacedFragment& f : fragments) {
    if (f.ds == d) ++count;
  }
  return count;
}

DetailedMapping map_detailed(const design::Design& design,
                             const arch::Board& board, const CostTable& table,
                             const GlobalAssignment& assignment,
                             const DetailedOptions& options) {
  DetailedMapping mapping;
  const std::size_t num_ds = design.size();
  GMM_ASSERT(assignment.type_of.size() == num_ds,
             "assignment does not match the design");

  // On an all-conflicting design (the paper's) no block can be shared, so
  // the overlap pass is skipped and no block is recorded for it.
  const bool overlap = options.allow_overlap && !design.all_conflicting();

  for (std::size_t t = 0; t < board.num_types(); ++t) {
    const arch::BankType& type = board.type(t);

    // Gather this type's fragments.
    std::vector<PendingFragment> pending;
    for (std::size_t d = 0; d < num_ds; ++d) {
      if (assignment.type_of[d] != static_cast<int>(t)) continue;
      const PlacementPlan& plan = table.plan(d, t);
      GMM_ASSERT(plan.feasible,
                 "assignment routed a structure to an infeasible type");
      for (const FragmentGroup& g : plan.groups) {
        for (std::int64_t k = 0; k < g.count; ++k) {
          pending.push_back(PendingFragment{d, &g});
        }
      }
    }
    if (pending.empty()) continue;

    // The paper's rule: assign in order of decreasing fraction (port)
    // size; ties broken by block size, then structure index for
    // determinism.
    std::stable_sort(pending.begin(), pending.end(),
                     [](const PendingFragment& a, const PendingFragment& b) {
                       if (a.group->ports_each != b.group->ports_each) {
                         return a.group->ports_each > b.group->ports_each;
                       }
                       if (a.group->block_bits != b.group->block_bits) {
                         return a.group->block_bits > b.group->block_bits;
                       }
                       return a.ds < b.ds;
                     });

    std::vector<InstanceState> instances;
    instances.reserve(static_cast<std::size_t>(type.instances));

    for (const PendingFragment& frag : pending) {
      const FragmentGroup& g = *frag.group;
      bool placed = false;

      // Pass 1 (overlap): join an identical block (size, config, port
      // demand) whose occupants are all lifetime-compatible with this
      // structure; the joiner time-multiplexes the same storage and
      // ports, so neither capacity nor ports are charged again.
      if (overlap) {
        for (std::size_t i = 0; i < instances.size() && !placed; ++i) {
          InstanceState& inst = instances[i];
          for (SharedBlock& block : inst.blocks) {
            if (block.size != g.block_bits ||
                block.config_index != g.config_index ||
                block.ports != g.ports_each) {
              continue;
            }
            const bool compatible = std::none_of(
                block.occupants.begin(), block.occupants.end(),
                [&](std::size_t other) {
                  return other == frag.ds ||
                         design.conflicts(frag.ds, other);
                });
            if (!compatible) continue;
            mapping.fragments.push_back(PlacedFragment{
                .ds = frag.ds,
                .type = t,
                .instance = static_cast<std::int64_t>(i),
                .config_index = g.config_index,
                .kind = g.kind,
                .ports = g.ports_each,
                .first_port = block.first_port,
                .offset_bits = block.offset,
                .block_bits = g.block_bits,
                .words_covered = g.words_covered,
                .bits_covered = g.bits_covered,
            });
            block.occupants.push_back(frag.ds);
            placed = true;
            break;
          }
        }
      }

      // Pass 2: first instance with free ports and a fresh buddy block.
      for (std::size_t i = 0; i < instances.size() && !placed; ++i) {
        InstanceState& inst = instances[i];
        if (inst.ports_used + g.ports_each > type.ports) continue;
        const std::int64_t offset = inst.buddy.allocate(g.block_bits);
        if (offset < 0) continue;
        mapping.fragments.push_back(PlacedFragment{
            .ds = frag.ds,
            .type = t,
            .instance = static_cast<std::int64_t>(i),
            .config_index = g.config_index,
            .kind = g.kind,
            .ports = g.ports_each,
            .first_port = inst.ports_used,
            .offset_bits = offset,
            .block_bits = g.block_bits,
            .words_covered = g.words_covered,
            .bits_covered = g.bits_covered,
        });
        inst.ports_used += g.ports_each;
        if (overlap) {
          inst.blocks.push_back(SharedBlock{
              offset, g.block_bits, g.config_index, g.ports_each,
              mapping.fragments.back().first_port, {frag.ds}});
        }
        placed = true;
      }

      // Pass 3: open a new instance.
      if (!placed) {
        if (static_cast<std::int64_t>(instances.size()) >= type.instances) {
          mapping.success = false;
          mapping.failed_type = static_cast<int>(t);
          mapping.failure = "type " + type.name +
                            ": out of instances while placing a fragment of "
                            + design.at(frag.ds).name;
          GMM_LOG(kInfo) << "detailed: " << mapping.failure;
          return mapping;
        }
        instances.emplace_back(type.capacity_bits());
        InstanceState& inst = instances.back();
        GMM_ASSERT(g.ports_each <= type.ports,
                   "fragment needs more ports than an instance offers");
        const std::int64_t offset = inst.buddy.allocate(g.block_bits);
        GMM_ASSERT(offset == 0, "fresh instance must allocate at offset 0");
        mapping.fragments.push_back(PlacedFragment{
            .ds = frag.ds,
            .type = t,
            .instance = static_cast<std::int64_t>(instances.size()) - 1,
            .config_index = g.config_index,
            .kind = g.kind,
            .ports = g.ports_each,
            .first_port = 0,
            .offset_bits = offset,
            .block_bits = g.block_bits,
            .words_covered = g.words_covered,
            .bits_covered = g.bits_covered,
        });
        inst.ports_used = g.ports_each;
        if (overlap) {
          inst.blocks.push_back(SharedBlock{offset, g.block_bits,
                                            g.config_index, g.ports_each,
                                            0, {frag.ds}});
        }
      }
    }
  }

  mapping.success = true;
  return mapping;
}

}  // namespace gmm::mapping
