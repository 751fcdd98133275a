#include "mapping/preprocess.hpp"

#include <algorithm>

#include "support/arithmetic.hpp"
#include "support/assert.hpp"

namespace gmm::mapping {

namespace {

using support::ceil_div;
using support::round_up_pow2;

/// Index of the configuration with the smallest width >= `width`, or the
/// widest configuration when none qualifies (paper's alpha/beta rule).
int config_for_width(const arch::BankType& type, std::int64_t width) {
  int best = -1;
  int widest = 0;
  for (int c = 0; c < static_cast<int>(type.configs.size()); ++c) {
    const std::int64_t w = type.configs[c].width;
    if (w > type.configs[widest].width) widest = c;
    if (w >= width && (best < 0 || w < type.configs[best].width)) {
      best = c;
    }
  }
  return best >= 0 ? best : widest;
}

}  // namespace

std::int64_t consumed_ports(std::int64_t fragment_depth,
                            std::int64_t bank_depth, std::int64_t ports) {
  GMM_ASSERT(bank_depth > 0 && ports > 0,
             "consumed_ports requires a real bank");
  if (fragment_depth <= 0) return 0;
  // Figure 3: depth = round(Dd, pow(2)); fraction = depth / Dt;
  // EP = ceil(fraction * Pt).
  const std::int64_t depth = round_up_pow2(fragment_depth);
  GMM_ASSERT(depth <= bank_depth,
             "fragment deeper than the bank configuration");
  return ceil_div(depth * ports, bank_depth);
}

void FragmentGroups::push_back(const FragmentGroup& group) {
  GMM_ASSERT(size_ < kCapacity, "a plan has at most four fragment groups");
  items_[size_++] = group;
}

std::int64_t PlacementPlan::total_fragments() const {
  std::int64_t total = 0;
  for (const FragmentGroup& g : groups) total += g.count;
  return total;
}

std::int64_t PlacementPlan::reserved_bits() const {
  std::int64_t total = 0;
  for (const FragmentGroup& g : groups) total += g.count * g.block_bits;
  return total;
}

PlacementPlan plan_placement(const design::DataStructure& ds,
                             const arch::BankType& type) {
  GMM_ASSERT(ds.depth > 0 && ds.width > 0, "empty data structure");
  PlacementPlan plan;

  // ---- alpha / beta configuration selection ---------------------------
  plan.alpha = config_for_width(type, ds.width);
  const arch::BankConfig& ca = type.configs[plan.alpha];
  const std::int64_t w_alpha = ca.width;
  const std::int64_t d_alpha = ca.depth;

  const std::int64_t full_cols = ds.width / w_alpha;
  const std::int64_t w_rem = ds.width % w_alpha;
  const std::int64_t full_rows = ds.depth / d_alpha;
  const std::int64_t d_rem = ds.depth % d_alpha;

  std::int64_t w_beta = 0;
  std::int64_t d_beta = 0;
  if (w_rem != 0) {
    plan.beta = config_for_width(type, w_rem);
    w_beta = type.configs[plan.beta].width;
    d_beta = type.configs[plan.beta].depth;
  }

  // ---- the four CP components (paper Section 4.1.1) --------------------
  //   FP : fully-used instances consume every port.
  plan.fp = full_rows * full_cols * type.ports;
  //   WP : one width-remainder fragment per full row, depth d_alpha words
  //        hosted on a beta-configured instance.
  plan.wp = w_rem == 0 ? 0
                       : full_rows * consumed_ports(d_alpha, d_beta,
                                                    type.ports);
  //   DP : one depth-remainder fragment per full column.
  plan.dp = full_cols * consumed_ports(d_rem, d_alpha, type.ports);
  //   WDP: the corner fragment.
  plan.wdp = (w_rem == 0 || d_rem == 0)
                 ? 0
                 : consumed_ports(d_rem, d_beta, type.ports);
  plan.cp = plan.fp + plan.wp + plan.dp + plan.wdp;

  // ---- consumed width / depth ------------------------------------------
  plan.cw = full_cols * w_alpha + (w_rem != 0 ? w_beta : 0);
  plan.cd = full_rows * d_alpha + (d_rem != 0 ? round_up_pow2(d_rem) : 0);

  // ---- fragment groups ---------------------------------------------------
  if (plan.fp > 0) {
    plan.groups.push_back(FragmentGroup{
        .kind = FragmentKind::kFull,
        .config_index = plan.alpha,
        .count = full_rows * full_cols,
        .ports_each = type.ports,
        .block_depth = d_alpha,
        .block_bits = d_alpha * w_alpha,
        .words_covered = d_alpha,
        .bits_covered = w_alpha,
    });
  }
  if (w_rem != 0 && full_rows > 0) {
    plan.groups.push_back(FragmentGroup{
        .kind = FragmentKind::kWidthColumn,
        .config_index = plan.beta,
        .count = full_rows,
        .ports_each = consumed_ports(d_alpha, d_beta, type.ports),
        .block_depth = round_up_pow2(d_alpha),
        .block_bits = round_up_pow2(d_alpha) * w_beta,
        .words_covered = d_alpha,
        .bits_covered = w_rem,
    });
  }
  if (d_rem != 0 && full_cols > 0) {
    plan.groups.push_back(FragmentGroup{
        .kind = FragmentKind::kDepthRow,
        .config_index = plan.alpha,
        .count = full_cols,
        .ports_each = consumed_ports(d_rem, d_alpha, type.ports),
        .block_depth = round_up_pow2(d_rem),
        .block_bits = round_up_pow2(d_rem) * w_alpha,
        .words_covered = d_rem,
        .bits_covered = w_alpha,
    });
  }
  if (d_rem != 0 && w_rem != 0) {
    plan.groups.push_back(FragmentGroup{
        .kind = FragmentKind::kCorner,
        .config_index = plan.beta,
        .count = 1,
        .ports_each = consumed_ports(d_rem, d_beta, type.ports),
        .block_depth = round_up_pow2(d_rem),
        .block_bits = round_up_pow2(d_rem) * w_beta,
        .words_covered = d_rem,
        .bits_covered = w_rem,
    });
  }

  // ---- aggregate feasibility against the whole type ----------------------
  plan.feasible = plan.cp <= type.total_ports() &&
                  plan.cw * plan.cd <= type.total_bits();
  return plan;
}

}  // namespace gmm::mapping
