#include "design/design.hpp"

#include <utility>

#include "support/assert.hpp"

namespace gmm::design {

std::size_t Design::add(DataStructure ds) {
  GMM_ASSERT(ds.depth > 0 && ds.width > 0,
             "data structure dimensions must be positive");
  structures_.push_back(std::move(ds));
  return structures_.size() - 1;
}

namespace {

/// Slot of the pair a < b in the lower-triangular conflict index; it does
/// not depend on the structure count, so adding structures keeps it valid.
std::size_t pair_slot(std::size_t a, std::size_t b) {
  return b * (b - 1) / 2 + a;
}

}  // namespace

void Design::add_conflict(std::size_t a, std::size_t b) {
  GMM_ASSERT(a < size() && b < size() && a != b,
             "conflict references unknown structures");
  if (a > b) std::swap(a, b);
  if (conflicts(a, b)) return;
  const std::size_t slot = pair_slot(a, b);
  if (slot >= conflict_index_.size()) conflict_index_.resize(slot + 1);
  conflict_index_[slot] = true;
  pairs_.emplace_back(a, b);
}

void Design::set_all_conflicting() {
  const std::size_t n = size();
  pairs_.clear();
  pairs_.reserve(pair_slot(0, n));
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = a + 1; b < n; ++b) pairs_.emplace_back(a, b);
  }
  conflict_index_.assign(pair_slot(0, n), true);
}

void Design::derive_conflicts_from_lifetimes() {
  pairs_.clear();
  for (std::size_t a = 0; a < size(); ++a) {
    for (std::size_t b = a + 1; b < size(); ++b) {
      const auto& la = structures_[a].lifetime;
      const auto& lb = structures_[b].lifetime;
      // Unknown lifetimes conflict with everything (safe default).
      if (!la.has_value() || !lb.has_value() || la->overlaps(*lb)) {
        pairs_.emplace_back(a, b);
      }
    }
  }
  rebuild_conflict_index();
}

void Design::rebuild_conflict_index() {
  conflict_index_.assign(pair_slot(0, size()), false);
  for (const auto& [a, b] : pairs_) conflict_index_[pair_slot(a, b)] = true;
}

bool Design::conflicts(std::size_t a, std::size_t b) const {
  if (a == b) return false;
  if (a > b) std::swap(a, b);
  const std::size_t slot = pair_slot(a, b);
  return slot < conflict_index_.size() && conflict_index_[slot];
}

std::int64_t Design::total_bits() const {
  std::int64_t total = 0;
  for (const DataStructure& ds : structures_) total += ds.bits();
  return total;
}

}  // namespace gmm::design
