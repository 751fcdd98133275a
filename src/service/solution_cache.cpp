#include "service/solution_cache.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <numeric>

#include "mapping/validate.hpp"
#include "support/fault.hpp"
#include "support/log.hpp"

namespace gmm::service {

namespace {

// splitmix64 finalizer — the mixing step behind every hash here.
constexpr std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Order-SENSITIVE accumulator.  Order-invariance comes from two places:
/// feeding sorted sequences, or folding an unordered multiset as the
/// wrapping sum of its members' mixed hashes.  Addition mod 2^64 keeps
/// multiplicities (two copies of v add 2*mix64(v), three add 3*mix64(v)),
/// and mixing first makes the members pseudo-random words, so two
/// different multisets share a sum only by a 2^-64 coincidence.  An XOR
/// fold would cancel every pair of equal members: {v, v, w} and {w}
/// would agree, and so would {u, u} and {v, v}.
constexpr std::uint64_t combine(std::uint64_t h, std::uint64_t v) {
  return mix64(h ^ (v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2)));
}

std::uint64_t double_bits(double x) {
  // -0.0 and 0.0 compare equal but differ in bits; normalize.
  if (x == 0.0) x = 0.0;
  return std::bit_cast<std::uint64_t>(x);
}

/// Per-structure parameter hash with traffic (the exact-key seed and the
/// near-miss pin comparison).  Names and lifetimes are EXCLUDED: names
/// never reach the cost model, and lifetimes act only through the
/// conflict pairs, which the graph refinement hashes separately.
std::uint64_t param_hash_full(const design::DataStructure& ds) {
  std::uint64_t h = 0x5157f3a1c0ffee01ULL;
  h = combine(h, static_cast<std::uint64_t>(ds.depth));
  h = combine(h, static_cast<std::uint64_t>(ds.width));
  h = combine(h, static_cast<std::uint64_t>(ds.effective_reads()));
  h = combine(h, static_cast<std::uint64_t>(ds.effective_writes()));
  return h;
}

/// Traffic-excluded parameter hash (the structural/near-miss seed).
/// Depth and width stay: they decide placement feasibility, so two
/// designs differing in them are never remap candidates for each other.
std::uint64_t param_hash_structural(const design::DataStructure& ds) {
  std::uint64_t h = 0x5157f3a1c0ffee02ULL;
  h = combine(h, static_cast<std::uint64_t>(ds.depth));
  h = combine(h, static_cast<std::uint64_t>(ds.width));
  return h;
}

/// The conflict graph in compressed sparse row form: structure d's
/// neighbors are peers[offset[d] .. offset[d + 1]).
struct Adjacency {
  std::vector<std::size_t> offset;
  std::vector<std::size_t> peers;
};

Adjacency csr_adjacency(const design::Design& design) {
  const std::size_t n = design.size();
  Adjacency adj;
  adj.offset.assign(n + 1, 0);
  for (const auto& [a, b] : design.conflict_pairs()) {
    ++adj.offset[a + 1];
    ++adj.offset[b + 1];
  }
  for (std::size_t d = 0; d < n; ++d) adj.offset[d + 1] += adj.offset[d];
  adj.peers.resize(adj.offset[n]);
  std::vector<std::size_t> next(adj.offset.begin(), adj.offset.end() - 1);
  for (const auto& [a, b] : design.conflict_pairs()) {
    adj.peers[next[a]++] = b;
    adj.peers[next[b]++] = a;
  }
  return adj;
}

/// Weisfeiler-Leman refinement over the conflict graph.  Each round mixes
/// every structure's hash once, then gives each structure a new hash that
/// folds its own hash, its degree and the wrapping sum of its neighbors'
/// mixed hashes (an additive multiset hash, see combine), so a round
/// costs O(n + E) with no sort.  After a few rounds two structures hash
/// equal only when their local graph neighborhoods are indistinguishable
/// to the refinement — which makes the hash multiset invariant under any
/// reordering/renaming of the design.
std::vector<std::uint64_t> wl_refine(std::vector<std::uint64_t> hash,
                                     const Adjacency& adj) {
  constexpr int kRounds = 3;
  const std::size_t n = hash.size();
  std::vector<std::uint64_t> mixed(n);
  for (int round = 0; round < kRounds; ++round) {
    for (std::size_t d = 0; d < n; ++d) mixed[d] = mix64(hash[d]);
    for (std::size_t d = 0; d < n; ++d) {
      std::uint64_t peers = 0;
      for (std::size_t k = adj.offset[d]; k < adj.offset[d + 1]; ++k) {
        peers += mixed[adj.peers[k]];
      }
      const std::size_t degree = adj.offset[d + 1] - adj.offset[d];
      hash[d] = combine(combine(mixed[d], degree), peers);
    }
  }
  return hash;
}

/// Content hash of one bank type.  Configs hash IN LIST ORDER:
/// config_index in placements and the planner's alpha/beta choice depend
/// on list position, so two boards differing only in config order are
/// (conservatively) distinct keys.  Bank-TYPE order, by contrast, is
/// canonicalized away by the caller sorting these hashes.
std::uint64_t type_hash(const arch::BankType& type) {
  std::uint64_t h = 0x5157f3a1c0ffee03ULL;
  h = combine(h, static_cast<std::uint64_t>(type.instances));
  h = combine(h, static_cast<std::uint64_t>(type.ports));
  h = combine(h, static_cast<std::uint64_t>(type.read_latency));
  h = combine(h, static_cast<std::uint64_t>(type.write_latency));
  h = combine(h, static_cast<std::uint64_t>(type.pins_traversed));
  h = combine(h, type.configs.size());
  for (const arch::BankConfig& config : type.configs) {
    h = combine(h, static_cast<std::uint64_t>(config.depth));
    h = combine(h, static_cast<std::uint64_t>(config.width));
  }
  return h;
}

/// Board hash: sorted multiset of per-device hashes, each the device's
/// pin count plus the sorted multiset of its types' content hashes —
/// invariant under type AND device reordering, sensitive to grouping.
std::uint64_t board_hash(const arch::Board& board,
                         const std::vector<std::uint64_t>& th) {
  std::vector<std::uint64_t> devices;
  devices.reserve(board.num_devices());
  for (std::size_t k = 0; k < board.num_devices(); ++k) {
    std::uint64_t h = 0x5157f3a1c0ffee04ULL;
    h = combine(h, static_cast<std::uint64_t>(board.device(k).inter_device_pins));
    std::vector<std::size_t> members = board.device_type_indices(k);
    std::vector<std::uint64_t> hashes;
    hashes.reserve(members.size());
    for (const std::size_t t : members) hashes.push_back(th[t]);
    std::sort(hashes.begin(), hashes.end());
    h = combine(h, hashes.size());
    for (const std::uint64_t v : hashes) h = combine(h, v);
    devices.push_back(h);
  }
  std::sort(devices.begin(), devices.end());
  std::uint64_t h = combine(0x5157f3a1c0ffee05ULL,
                            board.has_explicit_devices() ? 1u : 0u);
  h = combine(h, devices.size());
  for (const std::uint64_t v : devices) h = combine(h, v);
  return h;
}

/// Fold one lane of a fingerprint over the request's component hashes.
/// Both lanes fold the same components under different seeds.
std::uint64_t assemble_lane(std::uint64_t seed,
                            const std::vector<std::uint64_t>& node_hashes,
                            std::size_t num_edges, std::uint64_t edge_sum,
                            std::uint64_t board, int formulation,
                            double rel_gap) {
  std::uint64_t h = mix64(seed);
  h = combine(h, node_hashes.size());
  for (const std::uint64_t v : node_hashes) h = combine(h, v);
  h = combine(h, num_edges);
  h = combine(h, edge_sum);
  h = combine(h, board);
  h = combine(h, static_cast<std::uint64_t>(formulation));
  h = combine(h, double_bits(rel_gap));
  return h;
}

/// The node multiset folds sorted; the edge multiset folds as its size
/// plus the wrapping sum of per-edge hashes.  An edge hashes as the mix of
/// its endpoints' summed hashes: symmetric in the endpoints, and the mix
/// keeps the fold from collapsing to sum(degree * hash), which the node
/// multiset already determines.
Fingerprint assemble(const std::vector<std::uint64_t>& wl,
                     const std::vector<std::pair<std::size_t, std::size_t>>&
                         conflict_pairs,
                     std::uint64_t board, int formulation, double rel_gap) {
  std::vector<std::uint64_t> nodes = wl;
  std::sort(nodes.begin(), nodes.end());
  std::uint64_t edge_sum = 0;
  for (const auto& [a, b] : conflict_pairs) edge_sum += mix64(wl[a] + wl[b]);
  Fingerprint fp;
  fp.hi = assemble_lane(0x8badf00ddeadbeefULL, nodes, conflict_pairs.size(),
                        edge_sum, board, formulation, rel_gap);
  fp.lo = assemble_lane(0x0123456789abcdefULL, nodes, conflict_pairs.size(),
                        edge_sum, board, formulation, rel_gap);
  return fp;
}

/// Inverse of a rank permutation: the index holding each rank.
std::vector<std::size_t> by_rank(const std::vector<std::size_t>& rank) {
  std::vector<std::size_t> index(rank.size());
  for (std::size_t i = 0; i < rank.size(); ++i) index[rank[i]] = i;
  return index;
}

/// `fragments` with ds and type renumbered through `ds_map` and
/// `type_map` into `out`; false when one is out of range.
bool renumber(const std::vector<mapping::PlacedFragment>& fragments,
              const std::vector<std::size_t>& ds_map,
              const std::vector<std::size_t>& type_map,
              std::vector<mapping::PlacedFragment>& out) {
  out.reserve(fragments.size());
  for (const mapping::PlacedFragment& f : fragments) {
    if (f.ds >= ds_map.size() || f.type >= type_map.size()) return false;
    out.push_back(f);
    out.back().ds = ds_map[f.ds];
    out.back().type = type_map[f.type];
  }
  return true;
}

/// Bank type per structure from `entry`, in the request's index space;
/// empty when the entry does not fit this design and board.
std::vector<int> type_of_from(const CacheEntry& entry,
                              const RequestFingerprint& key,
                              const design::Design& design,
                              const arch::Board& board) {
  if (entry.num_structures != design.size() ||
      entry.num_types != board.num_types() ||
      entry.type_of_by_rank.size() != design.size()) {
    return {};
  }
  const std::vector<std::size_t> type_by_rank = by_rank(key.type_rank);
  std::vector<int> type_of(design.size(), -1);
  for (std::size_t d = 0; d < type_of.size(); ++d) {
    const int tr = entry.type_of_by_rank[key.structure_rank[d]];
    if (tr < 0 || tr >= static_cast<int>(board.num_types())) return {};
    type_of[d] = static_cast<int>(type_by_rank[static_cast<std::size_t>(tr)]);
  }
  return type_of;
}

/// Replay an exact hit through `key`'s canonical permutations and certify
/// it against THIS request's design and board: a poisoned entry degrades
/// to a verify-fail miss, never a wrong answer.
bool replay(const CacheEntry& entry, const RequestFingerprint& key,
            const design::Design& design, const arch::Board& board,
            CacheLookup& out) {
  mapping::GlobalAssignment assignment;
  assignment.type_of = type_of_from(entry, key, design, board);
  if (assignment.type_of.empty()) return false;
  assignment.objective = entry.objective;
  mapping::DetailedMapping mapped;
  mapped.success =
      renumber(entry.fragments_by_rank, by_rank(key.structure_rank),
               by_rank(key.type_rank), mapped.fragments);
  if (!mapped.success) return false;
  const mapping::Certificate certificate =
      mapping::certify_mapping(design, board, assignment, mapped);
  // Injected entry corruption: the replay certified fine, but we pretend
  // it did not — driving the exact poison/cold-solve/alert path a
  // genuinely corrupted entry would take.
  if (!certificate.ok() || GMM_FAULT("cache.verify", "corrupt")) return false;
  out.hit = true;
  out.replay = std::move(mapped);
  out.objective = certificate.objective;
  out.retries = entry.retries;
  out.solve_status = entry.solve_status;
  return true;
}

}  // namespace

RequestFingerprint fingerprint_request(const design::Design& design,
                                       const arch::Board& board,
                                       CachedFormulation formulation,
                                       double rel_gap) {
  const std::size_t n = design.size();
  const Adjacency adjacency = csr_adjacency(design);

  std::vector<std::uint64_t> full_seed(n);
  std::vector<std::uint64_t> structural_seed(n);
  for (std::size_t d = 0; d < n; ++d) {
    full_seed[d] = param_hash_full(design.at(d));
    structural_seed[d] = param_hash_structural(design.at(d));
  }
  const std::vector<std::uint64_t> fwl = wl_refine(full_seed, adjacency);
  const std::vector<std::uint64_t> swl =
      wl_refine(structural_seed, adjacency);

  std::vector<std::uint64_t> th(board.num_types());
  for (std::size_t t = 0; t < board.num_types(); ++t) {
    th[t] = type_hash(board.type(t));
  }
  const std::uint64_t bh = board_hash(board, th);
  const int form = static_cast<int>(formulation);

  RequestFingerprint out;
  out.full = assemble(fwl, design.conflict_pairs(), bh, form, rel_gap);
  out.structural =
      assemble(swl, design.conflict_pairs(), bh, form, rel_gap);

  // Canonical structure order: traffic-excluded keys FIRST so the ranks
  // of a traffic-mutated resubmission still align with the cached entry;
  // the full hash only breaks structural ties, and residual ties (fully
  // WL-equivalent structures) fall back to index order.  Tied structures
  // share their parameters but need not be interchangeable in the graph;
  // the conflict relation over ranks below is what a lookup compares.
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(),
            [&](const std::size_t a, const std::size_t b) {
              if (swl[a] != swl[b]) return swl[a] < swl[b];
              if (fwl[a] != fwl[b]) return fwl[a] < fwl[b];
              return a < b;
            });
  out.structure_rank.resize(n);
  out.param_hash_by_rank.resize(n);
  for (std::size_t rank = 0; rank < n; ++rank) {
    out.structure_rank[order[rank]] = rank;
    out.param_hash_by_rank[rank] = full_seed[order[rank]];
  }
  out.conflicts_by_rank.assign((n * (n - 1) / 2 + 63) / 64, 0);
  for (const auto& [a, b] : design.conflict_pairs()) {
    const auto [lo, hi] =
        std::minmax(out.structure_rank[a], out.structure_rank[b]);
    const std::size_t bit = hi * (hi - 1) / 2 + lo;
    out.conflicts_by_rank[bit / 64] |= std::uint64_t{1} << (bit % 64);
  }

  std::vector<std::size_t> type_order(board.num_types());
  std::iota(type_order.begin(), type_order.end(), std::size_t{0});
  std::sort(type_order.begin(), type_order.end(),
            [&](const std::size_t a, const std::size_t b) {
              if (th[a] != th[b]) return th[a] < th[b];
              return a < b;
            });
  out.type_rank.resize(board.num_types());
  for (std::size_t rank = 0; rank < board.num_types(); ++rank) {
    out.type_rank[type_order[rank]] = rank;
  }
  return out;
}

CacheLookup SolutionCache::lookup(const design::Design& design,
                                  const arch::Board& board,
                                  mapping::Formulation formulation,
                                  double rel_gap,
                                  const std::string& request_id) {
  CacheLookup out;
  if (formulation == mapping::Formulation::kSharded) return out;
  out.key = fingerprint_request(design, board,
                                formulation == mapping::Formulation::kComplete
                                    ? CachedFormulation::kComplete
                                    : CachedFormulation::kGlobal,
                                rel_gap);
  const RequestFingerprint& key = *out.key;
  const std::optional<CacheEntry> hit = find(key.full);
  // A colliding fingerprint whose conflict relation or parameters over
  // canonical ranks differ is another problem: a plain miss.  With both
  // checks a collision can only cost a hit, never serve another answer.
  if (hit.has_value() && hit->conflicts_by_rank == key.conflicts_by_rank &&
      hit->param_hash_by_rank == key.param_hash_by_rank) {
    if (replay(*hit, key, design, board, out)) return out;
    // Poison the key (left in place it would fail on every resubmission)
    // and alert once per fingerprint, not once per replay.
    erase(key.full);
    out.verify_failed = true;
    const std::scoped_lock lock(mutex_);
    if (logged_poisoned_.insert(key.full).second) {
      GMM_LOG(kWarn) << "cache: poisoned entry evicted, fingerprint "
                     << key.full.hi << ":" << key.full.lo
                     << " failed replay verification (request '"
                     << request_id << "'); answering with a cold solve";
    }
  }
  // Near-miss warm re-solves are global only (SolveSpec's prior).
  if (formulation != mapping::Formulation::kGlobal) return out;
  const std::optional<CacheEntry> prior = find_structural(key.structural);
  // Pins and the MIP start only carry over within one conflict relation;
  // a colliding structural key is a plain miss too.
  if (!prior.has_value() || prior->conflicts_by_rank != key.conflicts_by_rank) {
    return out;
  }
  out.prior_type_of = type_of_from(*prior, key, design, board);
  for (std::size_t d = 0; d < out.prior_type_of.size(); ++d) {
    const std::size_t r = key.structure_rank[d];
    if (key.param_hash_by_rank[r] == prior->param_hash_by_rank[r]) {
      out.pinned_structures.push_back(d);
    }
  }
  return out;
}

void SolutionCache::insert_solved(const CacheLookup& lookup,
                                  const design::Design& design,
                                  const arch::Board& board,
                                  const mapping::SolveOutcome& outcome) {
  // Sharded requests carry no key; near-miss answers stay out: their
  // proof is for the pinned model.
  if (!lookup.key.has_value() || !lookup.prior_type_of.empty() ||
      outcome.status != lp::SolveStatus::kOptimal ||
      outcome.mip.stop_reason != lp::SolveStatus::kOptimal ||
      !outcome.has_mapping()) {
    return;
  }
  const RequestFingerprint& key = *lookup.key;
  CacheEntry entry;
  entry.key = key.full;
  entry.structural = key.structural;
  entry.num_structures = design.size();
  entry.num_types = board.num_types();
  entry.type_of_by_rank.assign(design.size(), -1);
  for (std::size_t d = 0; d < design.size(); ++d) {
    const int t = outcome.assignment.type_of[d];
    if (t < 0 || t >= static_cast<int>(board.num_types())) return;
    entry.type_of_by_rank[key.structure_rank[d]] =
        static_cast<int>(key.type_rank[static_cast<std::size_t>(t)]);
  }
  if (!renumber(outcome.detailed.fragments, key.structure_rank,
                key.type_rank, entry.fragments_by_rank)) {
    return;
  }
  entry.param_hash_by_rank = key.param_hash_by_rank;
  entry.conflicts_by_rank = key.conflicts_by_rank;
  entry.objective = outcome.assignment.objective;
  entry.retries = outcome.retries;
  entry.solve_status = lp::to_string(outcome.status);
  insert(std::move(entry));
}

std::optional<CacheEntry> SolutionCache::find(const Fingerprint& key) {
  if (capacity_ == 0) return std::nullopt;
  const std::scoped_lock lock(mutex_);
  const auto it = index_.find(key);
  if (it == index_.end()) return std::nullopt;
  lru_.splice(lru_.begin(), lru_, it->second);
  return *it->second;
}

std::optional<CacheEntry> SolutionCache::find_structural(
    const Fingerprint& structural) {
  if (capacity_ == 0) return std::nullopt;
  const std::scoped_lock lock(mutex_);
  const auto st = structural_index_.find(structural);
  if (st == structural_index_.end()) return std::nullopt;
  const auto it = index_.find(st->second);
  if (it == index_.end()) return std::nullopt;
  return *it->second;
}

void SolutionCache::insert(CacheEntry entry) {
  if (capacity_ == 0) return;
  const std::scoped_lock lock(mutex_);
  const auto it = index_.find(entry.key);
  if (it != index_.end()) {
    // Refresh: same key means same proved problem; keep the newer entry.
    unindex_structural(it->second);
    lru_.erase(it->second);
    index_.erase(it);
  }
  lru_.push_front(std::move(entry));
  index_[lru_.front().key] = lru_.begin();
  structural_index_[lru_.front().structural] = lru_.front().key;
  ++insertions_;
  while (lru_.size() > capacity_) {
    const auto victim = std::prev(lru_.end());
    unindex_structural(victim);
    index_.erase(victim->key);
    lru_.erase(victim);
    ++evictions_;
  }
}

void SolutionCache::erase(const Fingerprint& key) {
  if (capacity_ == 0) return;
  const std::scoped_lock lock(mutex_);
  const auto it = index_.find(key);
  if (it == index_.end()) return;
  unindex_structural(it->second);
  lru_.erase(it->second);
  index_.erase(it);
}

void SolutionCache::unindex_structural(const Lru::iterator it) {
  const auto st = structural_index_.find(it->structural);
  if (st == structural_index_.end() || st->second != it->key) return;
  // The departing entry owns the structural slot.  Erasing the slot
  // outright would orphan any *surviving* entries that share the same
  // structural fingerprint (same conflict graph, different traffic):
  // a near-miss lookup after an eviction or a poisoning erase would
  // then miss even though a usable prior mapping is still cached.
  // Repoint the slot at the most-recently-used survivor instead, and
  // erase it only when no entry with this structural fingerprint
  // remains.
  for (auto other = lru_.begin(); other != lru_.end(); ++other) {
    if (other == it) continue;
    if (other->structural == it->structural) {
      st->second = other->key;
      return;
    }
  }
  structural_index_.erase(st);
}

std::size_t SolutionCache::size() const {
  const std::scoped_lock lock(mutex_);
  return lru_.size();
}

std::int64_t SolutionCache::insertions() const {
  const std::scoped_lock lock(mutex_);
  return insertions_;
}

std::int64_t SolutionCache::evictions() const {
  const std::scoped_lock lock(mutex_);
  return evictions_;
}

}  // namespace gmm::service
