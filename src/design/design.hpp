// A design: the set of data structures to map, plus the conflict relation
// (pairs whose lifetimes overlap and therefore cannot share storage).
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "design/data_structure.hpp"

namespace gmm::design {

class Design {
 public:
  Design() = default;
  explicit Design(std::string name) : name_(std::move(name)) {}

  /// Add a structure; returns its index.
  std::size_t add(DataStructure ds);

  [[nodiscard]] const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  [[nodiscard]] std::size_t size() const { return structures_.size(); }
  [[nodiscard]] const DataStructure& at(std::size_t d) const {
    return structures_[d];
  }
  [[nodiscard]] const std::vector<DataStructure>& structures() const {
    return structures_;
  }

  /// Declare that structures a and b may NOT share storage.
  void add_conflict(std::size_t a, std::size_t b);
  /// Declare every pair conflicting (no storage overlap anywhere); this is
  /// the conservative default the Table-3 experiments use.  The pairs come
  /// in canonical order, (0,1), (0,2), ..., (1,2), ...: a complete
  /// relation written by write_design reads back in this order whatever
  /// order it was declared in.
  void set_all_conflicting();
  /// Derive the conflict set from the structures' lifetime intervals;
  /// structures without a lifetime conflict with everything.
  void derive_conflicts_from_lifetimes();

  [[nodiscard]] bool conflicts(std::size_t a, std::size_t b) const;
  [[nodiscard]] const std::vector<std::pair<std::size_t, std::size_t>>&
  conflict_pairs() const {
    return pairs_;
  }
  [[nodiscard]] std::size_t num_conflicts() const { return pairs_.size(); }
  /// True when there are at least two structures and every pair of them
  /// conflicts — the one-line `conflicts all` relation.  O(1): the pairs
  /// are unique, so the count alone says the relation is complete.
  [[nodiscard]] bool all_conflicting() const {
    return size() >= 2 && pairs_.size() == size() * (size() - 1) / 2;
  }

  /// Total bits over all structures.
  [[nodiscard]] std::int64_t total_bits() const;

 private:
  void rebuild_conflict_index();

  std::string name_;
  std::vector<DataStructure> structures_;
  // Insertion order: writers, fingerprints and round trips read it.
  std::vector<std::pair<std::size_t, std::size_t>> pairs_;  // a < b
  // Membership of pairs_, one bit per pair a < b at b(b-1)/2 + a, so
  // conflicts() and add_conflict() are O(1).
  std::vector<bool> conflict_index_;
};

}  // namespace gmm::design
