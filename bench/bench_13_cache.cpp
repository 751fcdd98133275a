// Solution-cache bench: what the fingerprint cache and the incremental
// re-solve actually buy on the serving path.  JSON mirror:
// BENCH_cache.json.
//
//   (probe)     — generated instances vary wildly in hardness (some
//       close in a handful of B&B nodes, where neither replay nor pins
//       have anything to save), so the bench first solves a few
//       candidate instances and keeps the one with the deepest tree;
//       (a) and (b) measure the cache mechanisms on THAT instance.
//   (a) replay  — one cold solve through MappingService, then N exact
//       resubmissions: every one must replay from the cache
//       ("cached":true, identical objective), and the headline is the
//       cold-seconds / median-replay-seconds speedup (target >= 10x —
//       replay pays fingerprint + verification only, no B&B).
//   (b) warm    — traffic-mutated re-solves, cold map_pipeline vs
//       mapping::remap from the prior assignment with every structure but
//       the mutated one pinned onto its prior type and a 1e-3 migration
//       penalty (the service's near-miss configuration).  The pinned model
//       is a restriction of the cold one, so the proved objective must
//       still match the cold optimum exactly on this workload; the claim
//       is strictly fewer total B&B nodes.
//   (c) stream  — a mixed request stream (repeats / traffic mutants /
//       fresh designs) through the service; reports the hit/miss/
//       near-miss split and the end-to-end hit rate.
//
// The process exits non-zero when (a) misses the 10x bar, when (b) fails
// objective parity or node reduction, or when a replayed objective
// diverges — this is the acceptance gate CI's bench-smoke lane runs.
//
// Environment knobs (on top of bench_common's):
//   GMM_BENCH_CACHE_SEGMENTS  segments per generated design (default 32)
//   GMM_BENCH_CACHE_PROBES    candidate instances probed (default 8)
//   GMM_BENCH_CACHE_REPLAYS   exact resubmissions in part (a) (default 20)
//   GMM_BENCH_CACHE_MUTANTS   traffic mutants in part (b) (default 6)
//   GMM_BENCH_CACHE_STREAM    requests in part (c) (default 40)
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "design/design_io.hpp"
#include "lp/types.hpp"
#include "mapping/cost_model.hpp"
#include "mapping/pipeline.hpp"
#include "mapping/remap.hpp"
#include "service/mapping_service.hpp"
#include "service/protocol.hpp"
#include "support/rng.hpp"
#include "support/string_util.hpp"
#include "workload/workload_gen.hpp"

namespace {

using namespace gmm;

std::int64_t env_knob(const char* name, std::int64_t fallback,
                      std::int64_t min, std::int64_t max) {
  const char* raw = std::getenv(name);
  std::int64_t value = 0;
  if (raw != nullptr && support::parse_int(raw, value) && value >= min &&
      value <= max) {
    return value;
  }
  return fallback;
}

arch::Board bench_board() {
  return *workload::board_from_totals({.banks = 23, .ports = 45,
                                       .configs = 100});
}

design::Design base_design(std::uint64_t salt) {
  workload::DesignGenOptions gen;
  gen.num_segments = env_knob("GMM_BENCH_CACHE_SEGMENTS", 32, 2, 256);
  gen.seed = bench::env_seed() + salt;
  return workload::generate_design(bench_board(), gen);
}

/// The same design with one structure's read traffic bumped — identical
/// shape and conflicts, so the serving path treats it as a near miss.
design::Design traffic_mutant(const design::Design& base, int which,
                              std::int64_t bump) {
  design::Design out(base.name());
  for (std::size_t d = 0; d < base.size(); ++d) {
    design::DataStructure ds = base.at(d);
    if (d == static_cast<std::size_t>(which) % base.size()) {
      ds.reads = ds.effective_reads() + bump;
    }
    out.add(ds);
  }
  for (const auto& [a, b] : base.conflict_pairs()) out.add_conflict(a, b);
  return out;
}

/// Collects terminal responses from an in-process MappingService; the
/// bench drives the service synchronously (handle then drain), so lookup
/// by id is race-free after drain().
class Collector {
 public:
  service::MappingService::ResponseSink sink() {
    return [this](const service::Response& r) {
      const std::scoped_lock lock(mutex_);
      responses_.push_back(r);
    };
  }
  [[nodiscard]] service::Response take(const std::string& id) {
    const std::scoped_lock lock(mutex_);
    for (const service::Response& r : responses_) {
      if (r.id == id && r.method == "map") return r;
    }
    return {};
  }

 private:
  std::mutex mutex_;
  std::vector<service::Response> responses_;
};

service::Request map_request(const std::string& id,
                             const design::Design& design) {
  service::Request r;
  r.method = service::Method::kMap;
  r.id = id;
  r.map.design_text = design::design_to_string(design);
  return r;
}

}  // namespace

int main() {
  bench::BenchJson json("cache");
  int exit_code = 0;

  const arch::Board board = bench_board();
  const std::int64_t probes = env_knob("GMM_BENCH_CACHE_PROBES", 8, 1, 64);
  const std::int64_t replays = env_knob("GMM_BENCH_CACHE_REPLAYS", 20, 1, 10'000);
  const std::int64_t mutants = env_knob("GMM_BENCH_CACHE_MUTANTS", 6, 1, 1'000);
  const std::int64_t stream = env_knob("GMM_BENCH_CACHE_STREAM", 40, 1, 100'000);

  // Exact sub-integer-gap contract so (b)'s "identical objective" is an
  // equality, not a tolerance (see tests/mapping/pins_test.cpp).
  mapping::PipelineOptions exact;
  exact.global.mip.num_threads = 1;
  exact.global.mip.rel_gap = 0.0;
  exact.global.mip.abs_gap = 0.5;

  // ---- probe: keep the hardest tractable instance -------------------------
  // A probe that cannot prove optimality inside its per-solve budget is
  // skipped (parts (a)/(b) need a proved baseline in sane wall clock).
  std::uint64_t hard_salt = 0;
  std::int64_t hard_nodes = -1;
  mapping::PipelineResult prior;  // exact base solve of the hard instance
  {
    mapping::PipelineOptions probe_options = exact;
    probe_options.global.mip.time_limit_seconds = 5.0;
    for (std::int64_t salt = 0; salt < probes; ++salt) {
      const mapping::PipelineResult r = mapping::map_pipeline(
          base_design(static_cast<std::uint64_t>(salt)), board,
          probe_options);
      if (r.status != lp::SolveStatus::kOptimal) continue;
      if (r.effort.bnb_nodes > hard_nodes) {
        hard_nodes = r.effort.bnb_nodes;
        hard_salt = static_cast<std::uint64_t>(salt);
        prior = r;
      }
    }
    if (hard_nodes < 0) {
      std::fprintf(stderr, "probe: no instance proved optimal in budget\n");
      return 1;
    }
    std::printf("probe: instance %llu is hardest of %lld (%lld nodes)\n",
                static_cast<unsigned long long>(hard_salt),
                static_cast<long long>(probes),
                static_cast<long long>(hard_nodes));
    json.write("probe", {bench::jint("probes", probes),
                         bench::jint("hard_salt", static_cast<std::int64_t>(
                                         hard_salt)),
                         bench::jint("hard_nodes", hard_nodes)});
  }
  const design::Design design = base_design(hard_salt);

  // ---- (a) exact-hit replay vs cold solve ---------------------------------
  {
    Collector out;
    service::MappingService svc({board}, {.workers = 1}, out.sink());
    svc.handle(map_request("cold", design));
    svc.drain();
    const service::Response cold = out.take("cold");
    if (cold.status != service::ResponseStatus::kOk || cold.cached) {
      std::fprintf(stderr, "replay: cold solve failed (%s)\n",
                   cold.error.c_str());
      return 1;
    }
    std::vector<double> replay_seconds;
    for (std::int64_t i = 0; i < replays; ++i) {
      const std::string id = "replay-" + std::to_string(i);
      svc.handle(map_request(id, design));
      svc.drain();
      const service::Response r = out.take(id);
      if (r.status != service::ResponseStatus::kOk || !r.cached ||
          r.objective != cold.objective) {
        std::fprintf(stderr, "replay %lld: not a faithful cache hit\n",
                     static_cast<long long>(i));
        exit_code = 1;
        continue;
      }
      replay_seconds.push_back(std::max(r.seconds, 1e-9));
    }
    std::sort(replay_seconds.begin(), replay_seconds.end());
    const double median =
        replay_seconds.empty() ? 0.0
                               : replay_seconds[replay_seconds.size() / 2];
    const double speedup = median > 0.0 ? cold.seconds / median : 0.0;
    std::printf("replay: cold %.6fs, median replay %.6fs over %zu hits "
                "-> %.1fx\n",
                cold.seconds, median, replay_seconds.size(), speedup);
    if (replay_seconds.size() != static_cast<std::size_t>(replays) ||
        speedup < 10.0) {
      std::fprintf(stderr,
                   "replay: FAILED the 10x bar (%zu/%lld hits, %.1fx)\n",
                   replay_seconds.size(), static_cast<long long>(replays),
                   speedup);
      exit_code = 1;
    }
    json.write("replay",
               {bench::jnum("cold_seconds", cold.seconds),
                bench::jnum("median_replay_seconds", median),
                bench::jint("replays", static_cast<std::int64_t>(
                                replay_seconds.size())),
                bench::jnum("speedup", speedup),
                bench::jnum("objective", cold.objective),
                bench::jbool("pass", speedup >= 10.0)});
  }

  // ---- (b) pinned re-solve vs cold on traffic mutants ---------------------
  {
    const design::Design& base = design;
    std::int64_t cold_nodes = 0, warm_nodes = 0;
    double cold_seconds = 0.0, warm_seconds = 0.0;
    bool parity = true;
    for (std::int64_t k = 0; k < mutants; ++k) {
      // Small traffic deltas — the "local reconfiguration" regime the
      // near-miss path targets; a bump big enough to reshuffle the whole
      // mapping is a different problem, not an incremental one.
      const design::Design mutant =
          traffic_mutant(base, static_cast<int>(k), 10 * (k + 1));
      const mapping::PipelineResult cold =
          mapping::map_pipeline(mutant, board, exact);
      // The service's near-miss configuration: every traffic-unchanged
      // structure pinned onto its prior type, and the (reporting-neutral)
      // migration bias.  The solver proves the
      // optimum of the delta only — the parity check below asserts that
      // equals the full cold optimum on this workload.
      mapping::RemapOptions remap_options{.pipeline = exact,
                                          .migration_penalty = 1e-3};
      for (std::size_t d = 0; d < mutant.size(); ++d) {
        if (d != static_cast<std::size_t>(k) % mutant.size()) {
          remap_options.pinned_structures.push_back(d);
        }
      }
      const mapping::RemapResult warm = mapping::remap(
          mutant, board, prior.assignment.type_of, remap_options);
      const bool ok = cold.status == lp::SolveStatus::kOptimal &&
                      warm.result.status == lp::SolveStatus::kOptimal &&
                      !warm.fell_back_cold &&
                      warm.result.assignment.objective ==
                          cold.assignment.objective;
      if (!ok) parity = false;
      cold_nodes += cold.effort.bnb_nodes;
      warm_nodes += warm.result.effort.bnb_nodes;
      cold_seconds += cold.effort.total_seconds();
      warm_seconds += warm.result.effort.total_seconds();
      std::printf("warm: mutant %lld cold %6lld nodes %.3fs | warm %6lld "
                  "nodes %.3fs%s\n",
                  static_cast<long long>(k),
                  static_cast<long long>(cold.effort.bnb_nodes),
                  cold.effort.total_seconds(),
                  static_cast<long long>(warm.result.effort.bnb_nodes),
                  warm.result.effort.total_seconds(),
                  ok ? "" : "  [OBJECTIVE MISMATCH]");
    }
    const bool fewer = warm_nodes < cold_nodes;
    std::printf("warm: totals cold %lld nodes %.3fs | warm %lld nodes %.3fs "
                "-> %s\n",
                static_cast<long long>(cold_nodes), cold_seconds,
                static_cast<long long>(warm_nodes), warm_seconds,
                parity && fewer ? "pass" : "FAIL");
    if (!parity || !fewer) exit_code = 1;
    json.write("warm_resolve",
               {bench::jint("mutants", mutants),
                bench::jint("cold_nodes", cold_nodes),
                bench::jint("warm_nodes", warm_nodes),
                bench::jnum("cold_seconds", cold_seconds),
                bench::jnum("warm_seconds", warm_seconds),
                bench::jbool("objective_parity", parity),
                bench::jbool("pass", parity && fewer)});
  }

  // ---- (c) mixed request stream hit rate ----------------------------------
  {
    Collector out;
    service::MappingService svc({board}, {.workers = 1}, out.sink());
    support::Rng rng(bench::env_seed());
    constexpr int kPool = 5;
    for (std::int64_t i = 0; i < stream; ++i) {
      const int slot = static_cast<int>(rng.uniform_int(0, kPool - 1));
      const design::Design base = base_design(10 + slot);
      const double roll = rng.uniform_real();
      design::Design request = base;
      if (roll < 0.2) {  // traffic mutant: near miss (or mutant repeat)
        request = traffic_mutant(base, static_cast<int>(rng.uniform_int(0, 3)),
                                 100 * (1 + rng.uniform_int(0, 2)));
      } else if (roll < 0.3) {  // fresh one-off design: guaranteed miss
        request = base_design(1000 + static_cast<std::uint64_t>(i));
      }
      svc.handle(map_request("s" + std::to_string(i), request));
    }
    svc.drain();
    const service::ServiceStats stats = svc.stats();
    const double denom = static_cast<double>(stats.accepted);
    const double hit_rate =
        denom > 0.0 ? static_cast<double>(stats.cache.hits) / denom : 0.0;
    std::printf("stream: %lld requests -> %lld hits, %lld misses "
                "(%lld near), %lld bypasses; hit rate %.2f\n",
                static_cast<long long>(stats.accepted),
                static_cast<long long>(stats.cache.hits),
                static_cast<long long>(stats.cache.misses),
                static_cast<long long>(stats.cache.near_misses),
                static_cast<long long>(stats.cache.bypasses), hit_rate);
    if (stats.cache.hits + stats.cache.misses + stats.cache.bypasses !=
        stats.accepted) {
      std::fprintf(stderr, "stream: cache accounting leaked a request\n");
      exit_code = 1;
    }
    json.write("stream",
               {bench::jint("requests", stats.accepted),
                bench::jint("hits", stats.cache.hits),
                bench::jint("misses", stats.cache.misses),
                bench::jint("near_misses", stats.cache.near_misses),
                bench::jint("bypasses", stats.cache.bypasses),
                bench::jint("insertions", stats.cache.insertions),
                bench::jint("evictions", stats.cache.evictions),
                bench::jnum("hit_rate", hit_rate)});
  }

  std::printf("\nJSON mirror: %s\n", json.path().c_str());
  return exit_code;
}
