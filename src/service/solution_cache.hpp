// Fingerprint-keyed solution cache for the mapping service.
//
// Serving workloads repeat themselves: CAD flows re-submit the same
// design/board pair while iterating on unrelated parts of a system, and
// profile-driven flows re-submit the same STRUCTURE with updated traffic
// counts.  Both patterns pay a full branch & bound per request unless the
// service remembers what it already proved.  This cache closes that gap
// with two lookups:
//
//   * EXACT HIT — a canonical 128-bit fingerprint over everything that
//     can influence the mapping objective: per-structure parameters
//     (depth, width, effective reads/writes — names excluded), the
//     conflict graph (via Weisfeiler-Leman refinement, so the key is
//     invariant under structure reordering and renaming), the board's
//     bank types and device grouping (invariant under type reordering;
//     config LISTS hash in order, because config_index and the placement
//     planner's config choice depend on list position), the formulation,
//     and the effective relative gap.  The fingerprint is only an index:
//     refinement cannot tell some non-isomorphic conflict graphs apart,
//     so a hit also requires the entry's conflict relation and
//     per-structure parameters over canonical ranks to equal the
//     request's, and a collision is a plain miss.  A hit replays the
//     cached mapping through the canonical permutations back into the
//     request's own index space — and is then RE-VERIFIED
//     (mapping::certify_mapping against the cached objective) before
//     being served, so a corrupted entry degrades to a miss, never a
//     wrong answer.
//
//   * NEAR MISS — a second, traffic-excluded STRUCTURAL fingerprint
//     indexes entries by shape alone.  A request that matches an entry
//     structurally (and in its conflict relation over canonical ranks)
//     but not exactly changed only access counts; the lookup then hands
//     back the cached assignment as a prior (MIP start) plus the
//     structures whose full parameter hashes still match (pins) for
//     mapping::remap, instead of a cold solve.  Placement feasibility
//     never depends on traffic, so the warm start is always valid.
//
// Only PROVED results are inserted (solve status kOptimal with B&B stop
// reason kOptimal): node/time budgets then never need to be part of the
// key, and a replayed answer is exactly what a fresh solve would return.
// Entries live in an LRU list under an internal mutex; capacity 0
// disables the cache entirely.  Only this module knows canonical ranks.
#pragma once

#include <cstddef>
#include <cstdint>
#include <list>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "arch/board.hpp"
#include "design/design.hpp"
#include "mapping/solve.hpp"
#include "mapping/types.hpp"

namespace gmm::service {

/// 128-bit cache key; two independently mixed 64-bit lanes keep the
/// chance of an accidental hash collision negligible at serving scale.
/// Graphs the refinement cannot separate still collide, which
/// CacheEntry::same_problem turns into a miss.
struct Fingerprint {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;

  friend bool operator==(const Fingerprint&, const Fingerprint&) = default;
  friend auto operator<=>(const Fingerprint&, const Fingerprint&) = default;
};

/// The fingerprints and canonical orderings of one map request.
struct RequestFingerprint {
  /// Everything objective-relevant (see file comment) — the exact-hit key.
  Fingerprint full;
  /// `full` minus the per-structure traffic (effective reads/writes) —
  /// the near-miss index.  Depth/width/lifetime-derived conflicts stay.
  Fingerprint structural;
  /// Canonical rank of each structure (a permutation of [0, size)),
  /// ordered by traffic-EXCLUDED refinement hashes so the ranks of
  /// traffic-mutated resubmissions still line up with the cached entry.
  std::vector<std::size_t> structure_rank;
  /// Canonical rank of each flat bank-type index.
  std::vector<std::size_t> type_rank;
  /// Per-structure FULL parameter hash (traffic included), indexed by
  /// canonical rank — the near-miss path pins exactly the ranks whose
  /// hashes are unchanged.
  std::vector<std::uint64_t> param_hash_by_rank;
  /// The conflict relation over canonical ranks: an upper-triangular
  /// bitset of n(n-1)/2 bits packed 64 to a word, the pair of ranks r < s
  /// at bit s(s-1)/2 + r.  The fingerprints only index the cache; this is
  /// what tells two colliding conflict graphs apart.
  std::vector<std::uint64_t> conflicts_by_rank;
};

/// Formulation tag folded into both fingerprints.  Sharded solves are
/// never cached (their objective includes a stitch term the replay
/// verifier cannot recompute).
enum class CachedFormulation : int {
  kGlobal = 0,
  kComplete = 1,
};

/// Compute both fingerprints and the canonical orderings for a request.
/// `rel_gap` must be the EFFECTIVE gap the solve will run with (knob
/// default already applied) — two requests at different gaps are
/// different quality contracts and must never share an entry.
RequestFingerprint fingerprint_request(const design::Design& design,
                                       const arch::Board& board,
                                       CachedFormulation formulation,
                                       double rel_gap);

/// One cached proved mapping, stored entirely in CANONICAL index space
/// (structure ranks / type ranks) so any permutation of the same request
/// replays it.
struct CacheEntry {
  Fingerprint key;         // full fingerprint
  Fingerprint structural;  // traffic-excluded fingerprint
  std::size_t num_structures = 0;
  std::size_t num_types = 0;
  /// Canonical structure rank -> canonical type rank.
  std::vector<int> type_of_by_rank;
  /// Placed fragments with ds/type rewritten to canonical ranks.
  std::vector<mapping::PlacedFragment> fragments_by_rank;
  /// Full per-structure parameter hashes by rank (for near-miss pinning).
  std::vector<std::uint64_t> param_hash_by_rank;
  /// The proved problem's conflict relation over canonical ranks.
  std::vector<std::uint64_t> conflicts_by_rank;
  double objective = 0.0;
  int retries = 0;
  std::string solve_status;  // wire "solve_status" of the original solve
};

/// What one map request found in the cache, in its own index space.
struct CacheLookup {
  /// An exact hit, replayed and certified: the answer, no solve needed.
  bool hit = false;
  mapping::DetailedMapping replay;
  double objective = 0.0;  // the certificate's recompute
  int retries = 0;
  std::string solve_status;
  bool verify_failed = false;  // a probed entry failed and was evicted
  /// Near-miss prior and pins (mapping::SolveSpec); empty = none.
  std::vector<int> prior_type_of;
  std::vector<std::size_t> pinned_structures;
  /// The request's fingerprints; none for a formulation never cached.
  std::optional<RequestFingerprint> key;
};

/// Thread-safe LRU store.  Lookups copy the entry out (a reference could
/// be evicted by a concurrent insert while the caller replays it).
class SolutionCache {
 public:
  /// `capacity` = maximum entries; 0 disables every operation.
  explicit SolutionCache(std::size_t capacity) : capacity_(capacity) {}

  [[nodiscard]] bool enabled() const { return capacity_ > 0; }

  /// Fingerprint a request and probe its formulation's key (a sharded
  /// request has none).  A hit is replayed and certified; one that fails
  /// is evicted and logged once per fingerprint (labelled with
  /// `request_id`).  A global miss gets a near-miss prior.
  [[nodiscard]] CacheLookup lookup(const design::Design& design,
                                   const arch::Board& board,
                                   mapping::Formulation formulation,
                                   double rel_gap,
                                   const std::string& request_id);

  /// File a fresh answer under `lookup`'s key: only a PROVED (status and
  /// stop reason kOptimal), cold (no near-miss prior) answer is kept.
  void insert_solved(const CacheLookup& lookup, const design::Design& design,
                     const arch::Board& board,
                     const mapping::SolveOutcome& outcome);

  /// Exact lookup; refreshes LRU recency on hit.
  [[nodiscard]] std::optional<CacheEntry> find(const Fingerprint& key);

  /// Near-miss lookup: the most recently used entry with this structural
  /// fingerprint.  Does NOT refresh recency (the caller is about to
  /// re-solve and insert the fresh result under its own key).
  [[nodiscard]] std::optional<CacheEntry> find_structural(
      const Fingerprint& structural);

  /// Insert (or refresh) an entry; evicts the least recently used entry
  /// beyond capacity.
  void insert(CacheEntry entry);

  /// Drop an entry — the verify-fail path poisons the colliding key so
  /// it cannot fail again on every future request.
  void erase(const Fingerprint& key);

  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::int64_t insertions() const;
  [[nodiscard]] std::int64_t evictions() const;

 private:
  using Lru = std::list<CacheEntry>;

  void unindex_structural(const Lru::iterator it);

  const std::size_t capacity_;
  mutable std::mutex mutex_;
  Lru lru_;  // front = most recently used
  std::map<Fingerprint, Lru::iterator> index_;
  /// structural fingerprint -> full key of the most recent entry with it.
  std::map<Fingerprint, Fingerprint> structural_index_;
  std::int64_t insertions_ = 0;
  std::int64_t evictions_ = 0;
  /// Poisoned fingerprints already logged (guarded by mutex_): one bad
  /// entry must not become a log storm.
  std::set<Fingerprint> logged_poisoned_;
};

}  // namespace gmm::service
