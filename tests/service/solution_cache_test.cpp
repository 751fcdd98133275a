// Solution-cache correctness wall.
//
// Property tests (300 seeds per design shape: small sparse, complete at
// the nine Table-3 sizes, density 0.9, repeated parameters): the request
// fingerprint is invariant under structure reordering, renaming, and
// bank-type reordering — and differs whenever ANY objective-relevant
// field differs (structure shape, traffic, conflicts, bank parameters,
// formulation, gap).  The traffic-excluded STRUCTURAL fingerprint is
// additionally invariant under traffic mutation, which is what near-miss
// detection keys on.  Fixed graph pairs pin the refinement's additive
// neighbor fold and its edge term.
//
// Service tests: an exact resubmission (even permuted and renamed)
// replays from the cache with "cached" set and an identical objective; a
// traffic-only mutation takes the incremental near-miss path; no_cache
// bypasses; the hit/miss/bypass accounting always sums to the
// accepted-request count; and two designs whose fingerprints collide
// each get their own proved optimum.
#include "service/solution_cache.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "arch/arch_io.hpp"
#include "arch/board.hpp"
#include "design/design.hpp"
#include "design/design_io.hpp"
#include "service/mapping_service.hpp"
#include "support/rng.hpp"
#include "workload/table3_suite.hpp"
#include "workload/workload_gen.hpp"

namespace gmm::service {
namespace {

// ---- random problem generators --------------------------------------------

/// The design shapes the fingerprint wall draws.  kSparse is the small,
/// sparse family (3-10 structures, conflict density 0.4).  The others are
/// the shapes serving traffic has — every paper and benchmark design is a
/// complete conflict graph of 22-132 structures — plus dense graphs and
/// repeated structure parameters, which leave the refinement ties to
/// break.
enum class Shape { kSparse, kComplete, kDense, kRepeated };
constexpr Shape kShapes[] = {Shape::kSparse, Shape::kComplete, Shape::kDense,
                             Shape::kRepeated};

/// Seed offset per shape; kSparse keeps the wall's original seeds.
std::uint64_t shape_seed(Shape shape) {
  return 10'000'000ULL * static_cast<std::uint64_t>(shape);
}

design::DataStructure random_structure(support::Rng& rng) {
  design::DataStructure ds;
  ds.depth = rng.uniform_int(8, 256);
  ds.width = rng.uniform_int(1, 32);
  // 0 = "unknown" (cost models fall back to depth); mixing both forms
  // exercises the effective_* normalization in the fingerprint.
  ds.reads = rng.bernoulli(0.5) ? rng.uniform_int(1, 4096) : 0;
  ds.writes = rng.bernoulli(0.5) ? rng.uniform_int(1, 4096) : 0;
  return ds;
}

design::Design random_design(support::Rng& rng, Shape shape = Shape::kSparse) {
  std::size_t n = 0;
  double density = 1.0;
  std::vector<design::DataStructure> palette;  // kRepeated: shared params
  switch (shape) {
    case Shape::kSparse:
      n = static_cast<std::size_t>(rng.uniform_int(3, 10));
      density = 0.4;
      break;
    case Shape::kComplete: {
      const auto& points = workload::table3_points();
      n = static_cast<std::size_t>(points[rng.index(points.size())].segments);
      break;
    }
    case Shape::kDense:
      n = static_cast<std::size_t>(rng.uniform_int(3, 40));
      density = 0.9;
      break;
    case Shape::kRepeated:
      n = static_cast<std::size_t>(rng.uniform_int(3, 16));
      density = rng.pick(std::vector<double>{0.4, 0.9, 1.0});
      for (std::int64_t k = rng.uniform_int(1, 3); k > 0; --k) {
        palette.push_back(random_structure(rng));
      }
      break;
  }
  design::Design out("d");
  for (std::size_t i = 0; i < n; ++i) {
    design::DataStructure ds = palette.empty()
                                   ? random_structure(rng)
                                   : palette[rng.index(palette.size())];
    ds.name = "s" + std::to_string(i);
    out.add(ds);
  }
  if (density == 1.0) {
    out.set_all_conflicting();
    return out;
  }
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = a + 1; b < n; ++b) {
      if (rng.bernoulli(density)) out.add_conflict(a, b);
    }
  }
  return out;
}

bool is_complete(const design::Design& design) {
  const std::size_t n = design.size();
  return design.num_conflicts() == n * (n - 1) / 2;
}

arch::Board random_board(support::Rng& rng) {
  arch::Board out("b");
  const int types = static_cast<int>(rng.uniform_int(2, 4));
  for (int t = 0; t < types; ++t) {
    arch::BankType type;
    type.name = "t" + std::to_string(t);
    type.instances = rng.uniform_int(2, 8);
    type.ports = rng.uniform_int(1, 2);
    type.read_latency = rng.uniform_int(1, 3);
    type.write_latency = rng.uniform_int(1, 3);
    type.pins_traversed = rng.uniform_int(0, 4);
    // Constant-capacity power-of-two configs (BankType::validate).
    const int log_capacity = static_cast<int>(rng.uniform_int(12, 15));
    const int configs = static_cast<int>(rng.uniform_int(1, 3));
    for (int c = 0; c < configs; ++c) {
      const int log_depth = log_capacity - 2 - c;
      type.configs.push_back(
          {.depth = std::int64_t{1} << log_depth,
           .width = std::int64_t{1} << (log_capacity - log_depth)});
    }
    out.add_bank_type(type);
  }
  return out;
}

arch::Board test_board() {
  const auto board =
      workload::board_from_totals({.banks = 24, .ports = 36, .configs = 50});
  EXPECT_TRUE(board.has_value());
  return *board;
}

/// Rebuild `design` with structures in `order` and fresh names; conflict
/// pairs are remapped through the permutation.
design::Design permute_design(const design::Design& design,
                              const std::vector<std::size_t>& order) {
  std::vector<std::size_t> position(design.size());
  for (std::size_t j = 0; j < order.size(); ++j) position[order[j]] = j;
  design::Design out("renamed");
  for (std::size_t j = 0; j < order.size(); ++j) {
    design::DataStructure ds = design.at(order[j]);
    ds.name = "x" + std::to_string(j);
    out.add(ds);
  }
  for (const auto& [a, b] : design.conflict_pairs()) {
    out.add_conflict(position[a], position[b]);
  }
  return out;
}

arch::Board permute_board(const arch::Board& board,
                          const std::vector<std::size_t>& order) {
  arch::Board out(board.name());
  for (const std::size_t t : order) {
    arch::BankType type = board.type(t);
    type.name = "r" + std::to_string(t);
    out.add_bank_type(type);
  }
  return out;
}

RequestFingerprint fp_of(const design::Design& design,
                         const arch::Board& board,
                         double gap = 1e-4) {
  return fingerprint_request(design, board, CachedFormulation::kGlobal, gap);
}

// ---- fingerprint properties -----------------------------------------------

/// Failure label: which input family and seed drew the failing input.
std::string where(Shape shape, std::uint64_t seed) {
  return "shape " + std::to_string(static_cast<int>(shape)) + " seed " +
         std::to_string(seed);
}

TEST(SolutionCacheFingerprint, InvariantUnderReorderingAndRenaming) {
  for (const Shape shape : kShapes) {
    for (std::uint64_t seed = 0; seed < 300; ++seed) {
      support::Rng rng(seed + shape_seed(shape));
      const design::Design design = random_design(rng, shape);
      const arch::Board board = random_board(rng);

      std::vector<std::size_t> ds_order(design.size());
      std::iota(ds_order.begin(), ds_order.end(), std::size_t{0});
      rng.shuffle(ds_order);
      std::vector<std::size_t> type_order(board.num_types());
      std::iota(type_order.begin(), type_order.end(), std::size_t{0});
      rng.shuffle(type_order);

      const RequestFingerprint a = fp_of(design, board);
      const RequestFingerprint b = fp_of(permute_design(design, ds_order),
                                         permute_board(board, type_order));

      ASSERT_EQ(a.full, b.full) << where(shape, seed);
      ASSERT_EQ(a.structural, b.structural) << where(shape, seed);
      // The canonical-rank views must agree too — that is what makes a
      // cached entry replayable onto any permutation of the same request.
      ASSERT_EQ(a.param_hash_by_rank, b.param_hash_by_rank)
          << where(shape, seed);
      // Structures the refinement ties are ranked by index, so a permuted
      // sparse graph may relabel its relation (and miss); a complete
      // graph, the shape of all serving traffic, never does.
      if (is_complete(design)) {
        ASSERT_EQ(a.conflicts_by_rank, b.conflicts_by_rank)
            << where(shape, seed);
      }
    }
  }
}

TEST(SolutionCacheFingerprint, SeparatesEveryObjectiveRelevantField) {
  for (const Shape shape : kShapes) {
    for (std::uint64_t seed = 0; seed < 300; ++seed) {
      support::Rng rng(seed + 1'000'000 + shape_seed(shape));
      const design::Design design = random_design(rng, shape);
      const arch::Board board = random_board(rng);
      const RequestFingerprint base = fp_of(design, board);

      const auto expect_differs = [&](const design::Design& d,
                                      const arch::Board& b, const char* what) {
        const RequestFingerprint mutated = fp_of(d, b);
        ASSERT_NE(base.full, mutated.full) << what << " " << where(shape, seed);
      };

      const std::size_t victim = rng.index(design.size());
      {  // depth: full AND structural change
        design::Design d("d");
        for (std::size_t i = 0; i < design.size(); ++i) {
          design::DataStructure ds = design.at(i);
          if (i == victim) ds.depth += 1;
          d.add(ds);
        }
        for (const auto& [a, b] : design.conflict_pairs()) d.add_conflict(a, b);
        const RequestFingerprint mutated = fp_of(d, board);
        ASSERT_NE(base.full, mutated.full) << "depth " << where(shape, seed);
        ASSERT_NE(base.structural, mutated.structural)
            << "depth " << where(shape, seed);
      }
      {  // traffic: full changes, STRUCTURAL stays (the near-miss property)
        design::Design d("d");
        for (std::size_t i = 0; i < design.size(); ++i) {
          design::DataStructure ds = design.at(i);
          if (i == victim) ds.reads = ds.effective_reads() + 7;
          d.add(ds);
        }
        for (const auto& [a, b] : design.conflict_pairs()) d.add_conflict(a, b);
        const RequestFingerprint mutated = fp_of(d, board);
        ASSERT_NE(base.full, mutated.full) << "reads " << where(shape, seed);
        ASSERT_EQ(base.structural, mutated.structural)
            << "reads " << where(shape, seed);
      }
      if (design.size() >= 2) {  // conflict edge flip
        design::Design d("d");
        for (std::size_t i = 0; i < design.size(); ++i) d.add(design.at(i));
        const std::size_t a = 0;
        const std::size_t b = 1;
        const bool had = design.conflicts(a, b);
        for (const auto& [x, y] : design.conflict_pairs()) {
          if (had && x == a && y == b) continue;
          d.add_conflict(x, y);
        }
        if (!had) d.add_conflict(a, b);
        expect_differs(d, board, "conflict flip");
      }
      {  // bank-type parameter changes
        const std::size_t t = rng.index(board.num_types());
        for (const int field : {0, 1, 2, 3, 4}) {
          arch::Board b("b");
          for (std::size_t k = 0; k < board.num_types(); ++k) {
            arch::BankType type = board.type(k);
            if (k == t) {
              switch (field) {
                case 0: type.instances += 1; break;
                case 1: type.ports += 1; break;
                case 2: type.read_latency += 1; break;
                case 3: type.write_latency += 1; break;
                case 4: type.pins_traversed += 1; break;
              }
            }
            b.add_bank_type(type);
          }
          expect_differs(design, b, "bank field");
        }
      }
      {  // formulation and gap are part of the contract
        const RequestFingerprint complete = fingerprint_request(
            design, board, CachedFormulation::kComplete, 1e-4);
        ASSERT_NE(base.full, complete.full)
            << "formulation " << where(shape, seed);
        const RequestFingerprint loose = fp_of(design, board, 0.05);
        ASSERT_NE(base.full, loose.full) << "gap " << where(shape, seed);
      }
    }
  }
}

/// `n` identical structures conflicting on `pairs`.
design::Design identical_structures(
    std::size_t n, const std::vector<std::pair<std::size_t, std::size_t>>& pairs) {
  design::Design out("d");
  for (std::size_t i = 0; i < n; ++i) {
    design::DataStructure ds;
    ds.name = "s" + std::to_string(i);
    ds.depth = 64;
    ds.width = 8;
    out.add(ds);
  }
  for (const auto& [a, b] : pairs) out.add_conflict(a, b);
  return out;
}

TEST(SolutionCacheFingerprint, SeparatesGraphsThatNeedEveryRefinementTerm) {
  const arch::Board board = test_board();
  // A diamond (K4 less one edge) beside a K4, against a diamond whose two
  // degree-2 tips join opposite corners of a 4-cycle: same degrees, same
  // edge count.  Folding neighbors by XOR cancels equal pairs, so a
  // structure with two degree-2 neighbors and one degree-3 neighbor
  // would look like one with three degree-3 neighbors and the two would
  // collide; the wrapping sum keeps the multiplicities.
  const design::Design diamond_and_k4 = identical_structures(
      8, {{0, 2}, {0, 5}, {1, 2}, {1, 5}, {2, 5},
          {3, 4}, {3, 6}, {3, 7}, {4, 6}, {4, 7}, {6, 7}});
  const design::Design diamond_on_cycle = identical_structures(
      8, {{2, 3}, {2, 4}, {3, 4}, {3, 7}, {4, 7},
          {0, 2}, {6, 7}, {0, 1}, {1, 6}, {6, 5}, {5, 0}});
  EXPECT_NE(fp_of(diamond_and_k4, board).full,
            fp_of(diamond_on_cycle, board).full);

  // A 13-path against a 6-path plus a 7-cycle.  Three rounds see the
  // same multiset of neighborhoods (a structure three or more steps from
  // a path end looks like a cycle structure); only the edge term sees
  // that the 6-path's two structures two steps from an end are joined to
  // each other, while each of the 13-path's is joined to an interior
  // structure.
  std::vector<std::pair<std::size_t, std::size_t>> path, path_and_cycle;
  for (std::size_t i = 0; i + 1 < 13; ++i) path.emplace_back(i, i + 1);
  for (std::size_t i = 0; i + 1 < 6; ++i) path_and_cycle.emplace_back(i, i + 1);
  for (std::size_t i = 6; i < 13; ++i) {
    path_and_cycle.emplace_back(i, i + 1 < 13 ? i + 1 : 6);
  }
  EXPECT_NE(fp_of(identical_structures(13, path), board).full,
            fp_of(identical_structures(13, path_and_cycle), board).full);
}

// ---- LRU store -------------------------------------------------------------

CacheEntry entry_with_key(std::uint64_t key, std::uint64_t structural) {
  CacheEntry e;
  e.key = {key, key ^ 0xabcdULL};
  e.structural = {structural, structural ^ 0x1234ULL};
  e.num_structures = 1;
  e.num_types = 1;
  e.type_of_by_rank = {0};
  e.objective = static_cast<double>(key);
  return e;
}

TEST(SolutionCacheStore, LruEvictsLeastRecentlyUsed) {
  SolutionCache cache(2);
  cache.insert(entry_with_key(1, 101));
  cache.insert(entry_with_key(2, 102));
  // Touch 1 so 2 becomes the LRU victim.
  ASSERT_TRUE(cache.find({1, 1 ^ 0xabcdULL}).has_value());
  cache.insert(entry_with_key(3, 103));

  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.insertions(), 3);
  EXPECT_EQ(cache.evictions(), 1);
  EXPECT_TRUE(cache.find({1, 1 ^ 0xabcdULL}).has_value());
  EXPECT_FALSE(cache.find({2, 2 ^ 0xabcdULL}).has_value());
  EXPECT_TRUE(cache.find({3, 3 ^ 0xabcdULL}).has_value());
}

TEST(SolutionCacheStore, StructuralIndexAndErase) {
  SolutionCache cache(4);
  cache.insert(entry_with_key(1, 500));
  const auto near = cache.find_structural({500, 500 ^ 0x1234ULL});
  ASSERT_TRUE(near.has_value());
  EXPECT_EQ(near->key, (Fingerprint{1, 1 ^ 0xabcdULL}));

  cache.erase({1, 1 ^ 0xabcdULL});
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.find({1, 1 ^ 0xabcdULL}).has_value());
  EXPECT_FALSE(cache.find_structural({500, 500 ^ 0x1234ULL}).has_value());
}

TEST(SolutionCacheStore, EraseRepointsStructuralIndexToSurvivor) {
  // Two entries share a structural fingerprint (same conflict graph and
  // shapes, different traffic).  The LAST insert owns the structural
  // slot; erasing the owner (poisoning path) must repoint the slot at
  // the survivor, not orphan it — a near-miss lookup afterwards still
  // has a usable prior mapping in the cache.
  SolutionCache cache(4);
  cache.insert(entry_with_key(1, 500));
  cache.insert(entry_with_key(2, 500));
  auto near = cache.find_structural({500, 500 ^ 0x1234ULL});
  ASSERT_TRUE(near.has_value());
  EXPECT_EQ(near->key, (Fingerprint{2, 2 ^ 0xabcdULL}));

  cache.erase({2, 2 ^ 0xabcdULL});
  near = cache.find_structural({500, 500 ^ 0x1234ULL});
  ASSERT_TRUE(near.has_value()) << "structural slot orphaned by erase";
  EXPECT_EQ(near->key, (Fingerprint{1, 1 ^ 0xabcdULL}));

  cache.erase({1, 1 ^ 0xabcdULL});
  EXPECT_FALSE(cache.find_structural({500, 500 ^ 0x1234ULL}).has_value());
}

TEST(SolutionCacheStore, EvictionRepointsStructuralIndexToSurvivor) {
  SolutionCache cache(2);
  cache.insert(entry_with_key(1, 500));
  cache.insert(entry_with_key(2, 500));  // slot owner, currently MRU
  // Touch 1 so the slot OWNER becomes the LRU victim.
  ASSERT_TRUE(cache.find({1, 1 ^ 0xabcdULL}).has_value());
  cache.insert(entry_with_key(3, 777));  // evicts 2

  EXPECT_FALSE(cache.find({2, 2 ^ 0xabcdULL}).has_value());
  const auto near = cache.find_structural({500, 500 ^ 0x1234ULL});
  ASSERT_TRUE(near.has_value()) << "structural slot orphaned by eviction";
  EXPECT_EQ(near->key, (Fingerprint{1, 1 ^ 0xabcdULL}));
  EXPECT_TRUE(cache.find_structural({777, 777 ^ 0x1234ULL}).has_value());
}

TEST(SolutionCacheStore, RefreshInsertKeepsStructuralIndexValid) {
  SolutionCache cache(4);
  cache.insert(entry_with_key(1, 500));
  CacheEntry refreshed = entry_with_key(1, 500);
  refreshed.objective = 42.0;
  cache.insert(refreshed);  // same key: refresh path erases + reinserts
  EXPECT_EQ(cache.size(), 1u);
  const auto near = cache.find_structural({500, 500 ^ 0x1234ULL});
  ASSERT_TRUE(near.has_value());
  EXPECT_DOUBLE_EQ(near->objective, 42.0);
}

TEST(SolutionCacheStore, CapacityZeroDisablesEverything) {
  SolutionCache cache(0);
  EXPECT_FALSE(cache.enabled());
  cache.insert(entry_with_key(1, 1));
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.insertions(), 0);
  EXPECT_FALSE(cache.find({1, 1 ^ 0xabcdULL}).has_value());
}

// ---- end-to-end service replay ---------------------------------------------

class Collector {
 public:
  MappingService::ResponseSink sink() {
    return [this](const Response& r) {
      const std::scoped_lock lock(mutex_);
      responses_.push_back(r);
    };
  }
  [[nodiscard]] Response only(const std::string& id) const {
    const std::scoped_lock lock(mutex_);
    const Response* found = nullptr;
    int count = 0;
    for (const Response& r : responses_) {
      if (r.id == id && r.method == "map") {
        found = &r;
        ++count;
      }
    }
    EXPECT_EQ(count, 1) << "id " << id << " got " << count << " responses";
    return found != nullptr ? *found : Response{};
  }

 private:
  mutable std::mutex mutex_;
  std::vector<Response> responses_;
};

Request map_request(const std::string& id, std::string design_text) {
  Request r;
  r.method = Method::kMap;
  r.id = id;
  r.map.design_text = std::move(design_text);
  return r;
}

std::string demo_design_text() {
  return "design demo\n"
         "segment coeffs depth 64 width 8 reads 100 writes 50\n"
         "segment window depth 128 width 8 reads 200 writes 10\n"
         "segment taps depth 32 width 16\n"
         "conflicts all\n";
}

/// Same problem, segments renamed and reordered.
std::string permuted_design_text() {
  return "design other\n"
         "segment b depth 128 width 8 reads 200 writes 10\n"
         "segment c depth 32 width 16\n"
         "segment a depth 64 width 8 reads 100 writes 50\n"
         "conflicts all\n";
}

TEST(SolutionCacheService, ExactRepeatReplaysWithIdenticalObjective) {
  Collector out;
  MappingService service({test_board()}, {.workers = 1}, out.sink());
  service.handle(map_request("cold", demo_design_text()));
  service.handle(map_request("warm", demo_design_text()));
  service.handle(map_request("permuted", permuted_design_text()));
  service.drain();

  const Response cold = out.only("cold");
  ASSERT_EQ(cold.status, ResponseStatus::kOk) << cold.error;
  EXPECT_FALSE(cold.cached);

  for (const char* id : {"warm", "permuted"}) {
    const Response hit = out.only(id);
    ASSERT_EQ(hit.status, ResponseStatus::kOk) << hit.error;
    EXPECT_TRUE(hit.cached) << id;
    EXPECT_EQ(hit.solve_status, "optimal");
    EXPECT_DOUBLE_EQ(hit.objective, cold.objective) << id;
    EXPECT_EQ(hit.placements.size(), cold.placements.size()) << id;
    EXPECT_EQ(hit.nodes, 0) << id;
  }

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.cache.hits, 2);
  EXPECT_EQ(stats.cache.misses, 1);
  EXPECT_EQ(stats.cache.bypasses, 0);
  EXPECT_EQ(stats.cache.insertions, 1);
  EXPECT_EQ(stats.cache.entries, 1);
  EXPECT_EQ(stats.cache.hits + stats.cache.misses + stats.cache.bypasses,
            stats.accepted);
  // Only the cold request actually solved.
  EXPECT_EQ(stats.solves, 1);
}

TEST(SolutionCacheService, NoCacheKnobBypassesLookupAndInsert) {
  Collector out;
  MappingService service({test_board()}, {.workers = 1}, out.sink());
  Request opt_out = map_request("first", demo_design_text());
  opt_out.map.knobs.no_cache = true;
  service.handle(opt_out);
  Request again = map_request("second", demo_design_text());
  again.map.knobs.no_cache = true;
  service.handle(again);
  service.drain();

  EXPECT_FALSE(out.only("first").cached);
  EXPECT_FALSE(out.only("second").cached);
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.cache.bypasses, 2);
  EXPECT_EQ(stats.cache.hits, 0);
  EXPECT_EQ(stats.cache.insertions, 0);
  EXPECT_EQ(stats.solves, 2);
}

TEST(SolutionCacheService, CapacityZeroBehavesLikeNoCache) {
  Collector out;
  MappingService service({test_board()},
                         {.workers = 1, .cache_capacity = 0}, out.sink());
  service.handle(map_request("a", demo_design_text()));
  service.handle(map_request("b", demo_design_text()));
  service.drain();

  EXPECT_FALSE(out.only("a").cached);
  EXPECT_FALSE(out.only("b").cached);
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.cache.bypasses, 2);
  EXPECT_EQ(stats.cache.entries, 0);
}

TEST(SolutionCacheService, TrafficMutationTakesNearMissPath) {
  Collector out;
  MappingService service({test_board()}, {.workers = 1}, out.sink());
  service.handle(map_request("cold", demo_design_text()));
  // Same structures and conflicts, different access counts only.
  service.handle(map_request("mutated",
                             "design demo\n"
                             "segment coeffs depth 64 width 8 reads 900 "
                             "writes 50\n"
                             "segment window depth 128 width 8 reads 200 "
                             "writes 10\n"
                             "segment taps depth 32 width 16\n"
                             "conflicts all\n"));
  service.drain();

  const Response mutated = out.only("mutated");
  ASSERT_EQ(mutated.status, ResponseStatus::kOk) << mutated.error;
  EXPECT_FALSE(mutated.cached);  // near miss solves; only exact hits replay

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.cache.hits, 0);
  EXPECT_EQ(stats.cache.misses, 2);
  EXPECT_EQ(stats.cache.near_misses, 1);
  EXPECT_EQ(stats.cache.hits + stats.cache.misses + stats.cache.bypasses,
            stats.accepted);
}

TEST(SolutionCacheService, NearMissStillFiresAfterExactHitTouchedTheEntry) {
  // Regression for the LRU-touch / structural-index interaction.  An
  // exact hit splices the cached entry to the front of the LRU list; the
  // structural index must keep resolving afterwards (it maps to the
  // entry's KEY, never to a list position).  Sequence: cold solve, exact
  // hit (touch), then two successive traffic mutations — each must take
  // the near-miss path off the still-indexed entry.
  const auto demo_with_reads = [](int reads) {
    return "design demo\n"
           "segment coeffs depth 64 width 8 reads " +
           std::to_string(reads) +
           " writes 50\n"
           "segment window depth 128 width 8 reads 200 writes 10\n"
           "segment taps depth 32 width 16\n"
           "conflicts all\n";
  };
  Collector out;
  MappingService service({test_board()}, {.workers = 1}, out.sink());
  service.handle(map_request("cold", demo_with_reads(100)));
  service.handle(map_request("warm", demo_with_reads(100)));
  service.handle(map_request("variant1", demo_with_reads(900)));
  service.handle(map_request("variant2", demo_with_reads(500)));
  service.drain();

  for (const char* id : {"cold", "warm", "variant1", "variant2"}) {
    ASSERT_EQ(out.only(id).status, ResponseStatus::kOk) << id;
  }
  EXPECT_TRUE(out.only("warm").cached);
  EXPECT_FALSE(out.only("variant1").cached);
  EXPECT_FALSE(out.only("variant2").cached);

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.cache.hits, 1);
  // BOTH mutations near-missed: the slot survived the exact-hit touch
  // and the first near-miss lookup (near-miss results are not inserted,
  // so the cold entry keeps owning its structural slot).
  EXPECT_EQ(stats.cache.near_misses, 2);
  EXPECT_EQ(stats.cache.hits + stats.cache.misses + stats.cache.bypasses,
            stats.accepted);
}

TEST(SolutionCacheService, DifferentGapContractsNeverShareEntries) {
  Collector out;
  MappingService service({test_board()}, {.workers = 1}, out.sink());
  service.handle(map_request("tight", demo_design_text()));
  Request loose = map_request("loose", demo_design_text());
  loose.map.knobs.gap = 0.25;
  service.handle(loose);
  // The formulation is part of the contract too: after the global proof a
  // complete request solves, and its repeat replays the complete entry.
  for (const char* id : {"complete", "complete-again"}) {
    Request complete = map_request(id, demo_design_text());
    complete.map.formulation = mapping::Formulation::kComplete;
    service.handle(complete);
  }
  service.drain();

  EXPECT_TRUE(out.only("tight").status == ResponseStatus::kOk);
  EXPECT_FALSE(out.only("loose").cached);  // different quality contract
  const Response complete = out.only("complete");
  ASSERT_EQ(complete.status, ResponseStatus::kOk) << complete.error;
  EXPECT_FALSE(complete.cached);
  const Response again = out.only("complete-again");
  ASSERT_EQ(again.status, ResponseStatus::kOk) << again.error;
  EXPECT_TRUE(again.cached);
  EXPECT_DOUBLE_EQ(again.objective, complete.objective);
}

// ---- fingerprint collisions ----------------------------------------------
//
// Six identical segments: the two-triangle conflict graph and the
// six-cycle are both 2-regular, so the refinement gives every structure
// the same hash and the two designs share both fingerprints.  On a board
// with four cheap single-ported banks, the triangles and the cycle need
// different mappings; each must still get its own proved optimum.

arch::Board collision_board() {
  const arch::BoardParseResult parsed = arch::parse_board_string(
      "board collide\n"
      "banktype cheap instances 4 ports 1 rl 1 wl 1 pins 0\n"
      "config 1024 4\n"
      "end\n"
      "banktype slow instances 8 ports 1 rl 3 wl 3 pins 4\n"
      "config 1024 4\n"
      "end\n");
  EXPECT_TRUE(parsed.ok) << parsed.error;
  return parsed.board;
}

/// Six `depth 2048 width 4` segments (s0 with `s0_traffic` appended)
/// conflicting on the given pairs.
std::string six_segment_design(
    const std::vector<std::pair<int, int>>& conflicts,
    const std::string& s0_traffic = "") {
  std::string text = "design six\n";
  for (int i = 0; i < 6; ++i) {
    text += "segment s" + std::to_string(i) + " depth 2048 width 4";
    if (i == 0) text += s0_traffic;
    text += "\n";
  }
  for (const auto& [a, b] : conflicts) {
    text += "conflict s" + std::to_string(a) + " s" + std::to_string(b) + "\n";
  }
  return text;
}

const std::vector<std::pair<int, int>> kTwoTriangles = {
    {0, 1}, {1, 2}, {0, 2}, {3, 4}, {4, 5}, {3, 5}};
const std::vector<std::pair<int, int>> kSixCycle = {
    {0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0}};

RequestFingerprint fp_of_text(const std::string& text,
                              const arch::Board& board) {
  const design::DesignParseResult parsed = design::parse_design_string(text);
  EXPECT_TRUE(parsed.ok) << parsed.error;
  return fp_of(parsed.design, board);
}

TEST(SolutionCacheService, CollidingExactKeyIsAMissNotAnotherDesignsAnswer) {
  const arch::Board board = collision_board();
  const std::string triangles = six_segment_design(kTwoTriangles);
  const std::string cycle = six_segment_design(kSixCycle);
  // The premise: the two designs share the exact key.
  ASSERT_EQ(fp_of_text(triangles, board).full, fp_of_text(cycle, board).full);

  Collector out;
  MappingService service({board}, {.workers = 1}, out.sink());
  service.handle(map_request("triangles", triangles));
  service.handle(map_request("cycle", cycle));
  Request fresh = map_request("cycle_fresh", cycle);
  fresh.map.knobs.no_cache = true;
  service.handle(fresh);
  service.drain();

  const Response proved = out.only("cycle_fresh");
  ASSERT_EQ(proved.status, ResponseStatus::kOk) << proved.error;
  EXPECT_EQ(proved.solve_status, "optimal");
  EXPECT_DOUBLE_EQ(proved.objective, 24576.0);

  const Response served = out.only("cycle");
  ASSERT_EQ(served.status, ResponseStatus::kOk) << served.error;
  EXPECT_FALSE(served.cached);
  EXPECT_EQ(served.solve_status, "optimal");
  EXPECT_DOUBLE_EQ(served.objective, proved.objective);

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.cache.hits, 0);
  EXPECT_EQ(stats.cache.near_misses, 0);
  EXPECT_EQ(stats.cache.verify_fails, 0);  // a plain miss, no poisoning
}

TEST(SolutionCacheService, CollidingStructuralKeyIsNotANearMiss) {
  const arch::Board board = collision_board();
  const std::string triangles = six_segment_design(kTwoTriangles);
  const std::string hot_cycle = six_segment_design(kSixCycle, " reads 3000");
  ASSERT_EQ(fp_of_text(triangles, board).structural,
            fp_of_text(hot_cycle, board).structural);

  Collector out;
  MappingService service({board}, {.workers = 1}, out.sink());
  service.handle(map_request("triangles", triangles));
  service.handle(map_request("hot_cycle", hot_cycle));
  Request fresh = map_request("hot_cycle_fresh", hot_cycle);
  fresh.map.knobs.no_cache = true;
  service.handle(fresh);
  service.drain();

  const Response proved = out.only("hot_cycle_fresh");
  ASSERT_EQ(proved.status, ResponseStatus::kOk) << proved.error;
  EXPECT_EQ(proved.solve_status, "optimal");
  EXPECT_DOUBLE_EQ(proved.objective, 25528.0);

  const Response served = out.only("hot_cycle");
  ASSERT_EQ(served.status, ResponseStatus::kOk) << served.error;
  EXPECT_FALSE(served.cached);
  EXPECT_EQ(served.solve_status, "optimal");
  EXPECT_DOUBLE_EQ(served.objective, proved.objective);

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.cache.hits, 0);
  EXPECT_EQ(stats.cache.near_misses, 0);
  EXPECT_EQ(stats.cache.verify_fails, 0);
}

}  // namespace
}  // namespace gmm::service
