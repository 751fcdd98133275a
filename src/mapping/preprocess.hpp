// ILP pre-processing (paper Section 4.1.1, Figures 2 and 3).
//
// For a data structure d of Dd words x Wd bits considered on bank type t,
// the pre-processor picks two configurations:
//
//   alpha — the configuration with the smallest width >= Wd (or the widest
//           configuration when Wd exceeds every width), and
//   beta  — when the structure's width does not divide evenly into alpha
//           columns, the configuration with the smallest width >= the
//           width remainder.
//
// The structure is then decomposed into the Figure-2 rectangle:
//
//         | full columns (alpha)      | remainder column (beta) |
//   ------+---------------------------+-------------------------+
//   full  | FP: rows x cols fully     | WP: one fragment per    |
//   rows  | used instances, all ports | row, EP(D_a, D_b) ports |
//   ------+---------------------------+-------------------------+
//   rem.  | DP: one fragment per      | WDP: single corner      |
//   row   | column, EP(rem, D_a)      | fragment, EP(rem, D_b)  |
//
// Port consumption of one fragment follows Figure 3: round the fragment
// depth up to a power of two (so no base-address adders are needed), take
// the fraction of the bank depth it occupies, and charge
// ceil(fraction * Pt) ports.  The totals CP/CW/CD feed the global ILP's
// port and capacity constraints; the fragment groups feed the detailed
// mapper and the complete (flat) formulation.
#pragma once

#include <array>
#include <cstdint>

#include "arch/memory_bank.hpp"
#include "design/data_structure.hpp"

namespace gmm::mapping {

/// Figure-3 fractional port consumption.  `fragment_depth` words placed on
/// a bank configured `bank_depth` deep with `ports` ports.  Returns 0 for
/// an empty fragment.
std::int64_t consumed_ports(std::int64_t fragment_depth,
                            std::int64_t bank_depth, std::int64_t ports);

/// Role of a fragment group in the Figure-2 decomposition.
enum class FragmentKind : std::uint8_t {
  kFull,         // FP: fully utilized instances
  kWidthColumn,  // WP: width-remainder column
  kDepthRow,     // DP: depth-remainder row
  kCorner,       // WDP: corner fragment
};

constexpr const char* to_string(FragmentKind k) {
  switch (k) {
    case FragmentKind::kFull:
      return "full";
    case FragmentKind::kWidthColumn:
      return "width-column";
    case FragmentKind::kDepthRow:
      return "depth-row";
    case FragmentKind::kCorner:
      return "corner";
  }
  return "?";
}

/// A group of identical fragments of one data structure on one bank type.
struct FragmentGroup {
  FragmentKind kind = FragmentKind::kFull;
  int config_index = -1;         // configuration the fragment's ports use
  std::int64_t count = 0;        // identical fragments in this group
  std::int64_t ports_each = 0;   // EP: ports consumed per fragment
  std::int64_t block_depth = 0;  // pow-2 words reserved per fragment
  std::int64_t block_bits = 0;   // block_depth * config width (reserved)
  std::int64_t words_covered = 0;  // actual structure words per fragment
  std::int64_t bits_covered = 0;   // actual structure width per fragment
};

/// A plan's fragment groups, at most one per Figure-2 role and in that
/// order, held inline (a fixed array plus a count) so that a plan, and
/// the CostTable built on every solve, replay and certification, makes
/// no heap allocation.  Read it like a std::span: size(), [i], range-for.
class FragmentGroups {
 public:
  static constexpr std::size_t kCapacity = 4;

  void push_back(const FragmentGroup& group);
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] const FragmentGroup& operator[](std::size_t i) const {
    return items_[i];
  }
  [[nodiscard]] const FragmentGroup* begin() const { return items_.data(); }
  [[nodiscard]] const FragmentGroup* end() const {
    return items_.data() + size_;
  }

 private:
  std::array<FragmentGroup, kCapacity> items_{};
  std::size_t size_ = 0;
};

/// Pre-processing result for one (data structure, bank type) pair.
struct PlacementPlan {
  /// False when the structure cannot be hosted by this type at all (the
  /// aggregate port or capacity demand exceeds the whole type).
  bool feasible = false;
  int alpha = -1;  // config index; always set when feasible
  int beta = -1;   // config index of the width remainder; -1 if none
  std::int64_t cp = 0;  // consumed ports     (paper CP_dt)
  std::int64_t cw = 0;  // consumed width     (paper CW_dt)
  std::int64_t cd = 0;  // consumed depth     (paper CD_dt)
  /// Component breakdown of cp (paper: CP = FP + WP + DP + WDP).
  std::int64_t fp = 0, wp = 0, dp = 0, wdp = 0;
  FragmentGroups groups;

  /// Total number of fragments (= number of instances touched when no two
  /// fragments share an instance; packing may use fewer).
  [[nodiscard]] std::int64_t total_fragments() const;
  /// Reserved bits summed over fragments (block padding included).
  [[nodiscard]] std::int64_t reserved_bits() const;
};

/// Compute the plan for structure `ds` on bank type `type`.
PlacementPlan plan_placement(const design::DataStructure& ds,
                             const arch::BankType& type);

}  // namespace gmm::mapping
