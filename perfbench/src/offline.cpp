// table3_global and table3_complete: closed-loop solve suites over the
// paper's nine Table-3 points, plus the in-process layer tracer the
// serving workload reuses.
//
// One caller solves one instance after another.  Per instance the suite
// also replays the proved answer the way a cache hit is re-verified
// (fingerprint, CostTable, validate, objective recompute) and re-solves a
// traffic-only mutant through mapping::remap, so the three request classes
// of the serving workload have in-process counterparts here.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <optional>

#include "design/design_io.hpp"
#include "mapping/complete_mapper.hpp"
#include "mapping/detailed_mapper.hpp"
#include "mapping/global_mapper.hpp"
#include "mapping/pipeline.hpp"
#include "mapping/remap.hpp"
#include "service/json.hpp"
#include "service/solution_cache.hpp"
#include "workload/table3_suite.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using gmm::lp::SolveStatus;

// Suite sizes and budgets, fixed here so both commits of a comparison run
// the same work.  Node budgets bound the long tail: at 1 thread the node
// counts, and so the work, repeat exactly.
struct SuiteConfig {
  bool complete = false;     // map_complete instead of map_pipeline
  std::int64_t node_budget = 0;
  double cap_seconds = 0.0;  // wall-clock safety cap (0 = none)
  int seeds_per_point = 1;   // design seeds per Table-3 point
  int near_mutants = 1;      // traffic-only mutants remapped per instance
  int hit_replays = 1;       // replay-verify samples per proved instance
};
// table3_global: the paper instance plus 15 more designs per point; few
// enough that every instance solves in about ten rounds of a 45 s run.
constexpr SuiteConfig kGlobalSuite{false, 5'000, 0.0, 16, 2, 3};
// table3_complete: the nine paper instances; the flat LPs are large, so
// few nodes.  The wall-clock cap is a safety net only: point 9 takes
// 12-25 s on a contended host, and a cap it could reach would make its
// proof status depend on the host's speed.
constexpr SuiteConfig kCompleteSuite{true, 200, 60.0, 1, 30, 120};
constexpr int kNearChanged = 2;      // structures a near-miss mutant changes
constexpr double kMigrationPenalty = 1e-3;  // the service's default
constexpr int kSetupRepeats = 3;  // at least, one more per round
constexpr std::uint64_t kPaperSeed = 2001;

struct Mutant {
  gmm::design::Design design;  // traffic-only near-miss variant
  std::vector<std::size_t> pinned;
};

struct Instance {
  int point = 0;
  std::uint64_t design_seed = 0;
  gmm::arch::Board board;
  gmm::design::Design design;
  std::string request_line;
  std::vector<Mutant> mutants;

  [[nodiscard]] bool paper() const { return design_seed == kPaperSeed; }
};

/// Every point's paper instance first, then its other designs; each with
/// its request line and near-miss mutants.  The designs are the same for
/// every workload seed: B&B effort is heavy-tailed, and a few hundred
/// designs drawn afresh per seed moved the suite's p90 by 40% from seed to
/// seed.  The workload seed draws the near-miss mutants.
std::vector<Instance> build_suite(std::uint64_t seed,
                                  const SuiteConfig& config) {
  std::vector<Instance> suite;
  for (const gmm::workload::Table3Point& point :
       gmm::workload::table3_points()) {
    for (int j = 0; j < config.seeds_per_point; ++j) {
      const std::uint64_t s = kPaperSeed + 100 * static_cast<std::uint64_t>(j);
      gmm::workload::Table3Instance built =
          gmm::workload::build_instance(point, s);
      Instance inst;
      inst.point = point.index;
      inst.design_seed = s;
      inst.board = std::move(built.board);
      inst.design = std::move(built.design);
      inst.request_line = map_request_line(
          "t" + std::to_string(suite.size()),
          gmm::design::design_to_string(inst.design), inst.board.name(),
          config.complete, -1, -1.0);
      for (int k = 0; k < config.near_mutants; ++k) {
        Mutant m;
        m.pinned = mutate_traffic(
            inst.design,
            mix(seed ^ (s * 977 + static_cast<std::uint64_t>(
                                      point.index * 64 + k))),
            kNearChanged, m.design);
        inst.mutants.push_back(std::move(m));
      }
      suite.push_back(std::move(inst));
    }
  }
  return suite;
}

gmm::ilp::MipOptions suite_mip(const SuiteConfig& config) {
  gmm::ilp::MipOptions mip;
  mip.num_threads = 1;
  mip.node_limit = config.node_budget;
  if (config.cap_seconds > 0) mip.time_limit_seconds = config.cap_seconds;
  return mip;
}

/// Near misses re-solve through the global pipeline, as the service does.
gmm::mapping::RemapOptions near_options(const Mutant& m) {
  gmm::mapping::RemapOptions remap;
  remap.pipeline.global.mip = suite_mip(kGlobalSuite);
  remap.pinned_structures = m.pinned;
  remap.migration_penalty = kMigrationPenalty;
  return remap;
}

bool proved(const gmm::ilp::MipResult& mip, SolveStatus status) {
  return status == SolveStatus::kOptimal &&
         mip.stop_reason == SolveStatus::kOptimal;
}

/// A solved instance: the answer and its cost, in the mapper's own types.
struct Solved {
  SolveStatus status = SolveStatus::kNumericalFailure;
  gmm::mapping::GlobalAssignment assignment;
  gmm::mapping::DetailedMapping detailed;
  gmm::ilp::MipResult mip;
  gmm::mapping::SolveEffort effort;
  int retries = 0;
};

Solved solve(const Instance& inst, bool complete,
             const gmm::ilp::MipOptions& mip) {
  Solved out;
  if (complete) {
    const gmm::mapping::CostTable table(inst.design, inst.board);
    gmm::mapping::CompleteOptions options;
    options.mip = mip;
    gmm::mapping::CompleteResult r =
        gmm::mapping::map_complete(inst.design, inst.board, table, options);
    out.status = r.status;
    out.assignment = std::move(r.assignment);
    out.detailed = std::move(r.detailed);
    out.mip = std::move(r.mip);
    out.effort = r.effort;
  } else {
    gmm::mapping::PipelineOptions options;
    options.global.mip = mip;
    gmm::mapping::PipelineResult r =
        gmm::mapping::map_pipeline(inst.design, inst.board, options);
    out.status = r.status;
    out.assignment = std::move(r.assignment);
    out.detailed = std::move(r.detailed);
    out.mip = std::move(r.mip);
    out.effort = r.effort;
    out.retries = r.retries;
  }
  return out;
}

gmm::service::Response to_response(const std::string& id,
                                   const gmm::design::Design& design,
                                   const gmm::arch::Board& board,
                                   const Solved& s) {
  gmm::service::Response response;
  response.id = id;
  response.method = "map";
  response.v = 2;
  response.status = gmm::service::ResponseStatus::kOk;
  response.has_result = true;
  response.solve_status = gmm::lp::to_string(s.status);
  response.objective = s.assignment.objective;
  response.nodes = s.effort.bnb_nodes;
  response.seconds = s.effort.total_seconds();
  response.retries = s.retries;
  response.placements = to_wire(design, board, s.detailed);
  return response;
}

/// What one cold solve produced.
struct ColdRun {
  double cold_ms = 0.0;
  bool proved = false;
  std::string error;  // "" = the answer checked out
};

/// Replay-verify a proved answer the way the service re-verifies a cache
/// hit before serving it.  Returns "" when the replay checks out.
std::string replay_verify(const Instance& inst, bool complete,
                          const Solved& s) {
  const auto fp = gmm::service::fingerprint_request(
      inst.design, inst.board,
      complete ? gmm::service::CachedFormulation::kComplete
               : gmm::service::CachedFormulation::kGlobal,
      gmm::ilp::MipOptions{}.rel_gap);
  if (fp.structure_rank.size() != inst.design.size()) return "fingerprint";
  const gmm::mapping::CostTable table(inst.design, inst.board);
  return check_answer(inst.design, inst.board, table, s.assignment,
                      s.detailed, s.assignment.objective);
}

/// Paper instances must reproduce the recorded proved objectives.
std::string check_reference(const Instance& inst, double objective,
                            bool is_proved, double gap) {
  if (!inst.paper()) return "";
  const double reference = paper_reference_objective(inst.point);
  if (is_proved && !within_gap(objective, reference, gap)) {
    return "proved " + std::to_string(objective) + ", reference " +
           std::to_string(reference);
  }
  // An unproved incumbent can only be worse than the optimum.
  if (!is_proved && objective < reference * (1.0 - gap) - 1e-6) {
    return "incumbent below the proved reference";
  }
  return "";
}

/// Cold solve plus its checks; the answer lands in `s`.
ColdRun solve_cold(const Instance& inst, const SuiteConfig& config,
                   Solved& s) {
  const gmm::ilp::MipOptions mip = suite_mip(config);
  ColdRun run;
  const Clock::time_point start = Clock::now();
  s = solve(inst, config.complete, mip);
  run.cold_ms = seconds_since(start) * 1e3;
  if (!s.detailed.success || !s.assignment.complete()) {
    run.error = "no mapping (" + std::string(gmm::lp::to_string(s.status)) +
                ")";
    return run;
  }
  run.proved = proved(s.mip, s.status);
  const gmm::mapping::CostTable table(inst.design, inst.board);
  run.error = check_answer(inst.design, inst.board, table, s.assignment,
                           s.detailed, s.assignment.objective);
  if (run.error.empty()) {
    run.error = check_reference(inst, s.assignment.objective, run.proved,
                                mip.rel_gap);
  }
  return run;
}

/// The hit replays (proved answers only: the service caches nothing else)
/// and the near-miss remaps of one solved instance.  Returns "" when every
/// answer checked out.
std::string play_classes(const Instance& inst, const SuiteConfig& config,
                         const Solved& s, bool is_proved,
                         std::vector<double>& hit_ms,
                         std::vector<double>& near_ms) {
  for (int r = 0; is_proved && r < config.hit_replays; ++r) {
    const Clock::time_point start = Clock::now();
    const std::string error = replay_verify(inst, config.complete, s);
    hit_ms.push_back(seconds_since(start) * 1e3);
    if (!error.empty()) return error;
  }
  for (const Mutant& m : inst.mutants) {
    const Clock::time_point start = Clock::now();
    const gmm::mapping::RemapResult near = gmm::mapping::remap(
        m.design, inst.board, s.assignment.type_of, near_options(m));
    near_ms.push_back(seconds_since(start) * 1e3);
    const gmm::mapping::PipelineResult& nr = near.result;
    if (!nr.detailed.success || !nr.assignment.complete()) {
      return "near-miss remap produced no mapping";
    }
    const gmm::mapping::CostTable table(m.design, inst.board);
    const std::string error = check_answer(m.design, inst.board, table,
                                           nr.assignment, nr.detailed,
                                           nr.assignment.objective);
    if (!error.empty()) return "near-miss: " + error;
  }
  return "";
}

}  // namespace

std::string map_request_line(const std::string& id,
                             const std::string& design_text,
                             const std::string& board_name, bool complete,
                             std::int64_t max_nodes, double deadline_ms,
                             bool no_cache) {
  gmm::service::JsonObject request;
  request["v"] = 2;
  request["id"] = id;
  request["method"] = std::string("map");
  request["board"] = board_name;
  request["design_text"] = design_text;
  if (complete) request["formulation"] = std::string("complete");
  gmm::service::JsonObject knobs;
  knobs["threads"] = 1;
  if (max_nodes > 0) knobs["max_nodes"] = max_nodes;
  if (no_cache) knobs["no_cache"] = true;
  request["options"] = std::move(knobs);
  if (deadline_ms >= 0.0) request["deadline_ms"] = deadline_ms;
  return gmm::service::Json(std::move(request)).dump();
}

TracedAnswer trace_request(Trace& trace, LayerSums& sums, std::int64_t id,
                           const gmm::arch::Board& board,
                           const std::string& request_line, bool complete,
                           const gmm::ilp::MipOptions& mip) {
  TracedAnswer answer;
  Scope whole(trace, "request", id);
  gmm::service::Request request;
  {
    Scope span(trace, "service.parse", id);
    request = gmm::service::parse_request_line(request_line);
  }
  if (request.method != gmm::service::Method::kMap) {
    answer.error = "request did not parse: " + request.error;
    return answer;
  }
  gmm::design::DesignParseResult parsed;
  {
    Scope span(trace, "design.parse", id);
    parsed = gmm::design::parse_design_string(request.map.design_text);
  }
  if (!parsed.ok) {
    answer.error = "design did not parse: " + parsed.error;
    return answer;
  }
  const gmm::design::Design& design = parsed.design;
  {
    Scope span(trace, "service.fingerprint", id);
    const auto fp = gmm::service::fingerprint_request(
        design, board,
        complete ? gmm::service::CachedFormulation::kComplete
                 : gmm::service::CachedFormulation::kGlobal,
        mip.rel_gap);
    if (fp.structure_rank.size() != design.size()) answer.error = "fingerprint";
  }
  Solved s;
  std::optional<gmm::mapping::CostTable> table;
  {
    Scope solve_span(trace, "mapping.solve", id);
    {
      Scope span(trace, "mapping.cost_table", id);
      table.emplace(design, board);
    }
    if (complete) {
      Scope span(trace, "mapping.complete", id);
      gmm::mapping::CompleteOptions options;
      options.mip = mip;
      gmm::mapping::CompleteResult r =
          gmm::mapping::map_complete(design, board, *table, options);
      s.status = r.status;
      s.assignment = std::move(r.assignment);
      s.detailed = std::move(r.detailed);
      s.mip = std::move(r.mip);
      s.effort = r.effort;
    } else {
      // map_pipeline's first attempt, layer by layer; a packing failure
      // falls back to the pipeline itself, which owns the retry loop.
      gmm::mapping::GlobalOptions global;
      global.mip = mip;
      gmm::mapping::GlobalResult g;
      {
        Scope span(trace, "mapping.global", id);
        g = gmm::mapping::map_global(design, board, *table, global);
      }
      s.status = g.status;
      s.assignment = g.assignment;
      s.mip = g.mip;
      s.effort = g.effort;
      if (g.status == SolveStatus::kOptimal ||
          g.status == SolveStatus::kFeasible) {
        Scope span(trace, "mapping.detailed", id);
        s.detailed =
            gmm::mapping::map_detailed(design, board, *table, g.assignment);
      }
      if (!s.detailed.success) {
        Scope span(trace, "mapping.pipeline_retry", id);
        gmm::mapping::PipelineOptions options;
        options.global.mip = mip;
        gmm::mapping::PipelineResult r =
            gmm::mapping::map_pipeline(design, board, options);
        s.status = r.status;
        s.assignment = std::move(r.assignment);
        s.detailed = std::move(r.detailed);
        s.mip = std::move(r.mip);
        s.effort = r.effort;
        s.retries = r.retries;
      }
    }
  }
  sums.requests += 1;
  sums.nodes += static_cast<double>(s.mip.nodes);
  sums.mip_seconds += s.mip.seconds;
  sums.cuts += static_cast<double>(s.mip.cover_cuts + s.mip.clique_cuts);
  sums.rc_fixed += static_cast<double>(s.mip.rc_fixed);
  sums.basis_loaded += static_cast<double>(s.mip.basis.loaded);
  sums.basis_cold_pops += static_cast<double>(s.mip.basis.cold_pops);
  sums.pop_pivots += static_cast<double>(s.mip.basis.warm_pop_pivots +
                                         s.mip.basis.cold_pop_pivots);
  const double gap = s.mip.gap();
  sums.gap_sum += std::isfinite(gap) ? gap : 1.0;
  sums.pivots += static_cast<double>(s.mip.lp_iterations);
  sums.refactorizations += static_cast<double>(s.mip.simplex_refactorizations);
  sums.work_units += static_cast<double>(s.mip.lp_work_units);
  sums.formulate_seconds += s.effort.formulate_seconds;
  sums.retries += s.retries;
  if (!s.detailed.success || !s.assignment.complete()) {
    answer.error = "no mapping";
    return answer;
  }
  {
    Scope span(trace, "mapping.validate", id);
    if (answer.error.empty()) {
      answer.error = check_answer(design, board, *table, s.assignment,
                                  s.detailed, s.assignment.objective);
    }
  }
  {
    Scope span(trace, "service.serialize", id);
    const std::string line =
        to_response("r" + std::to_string(id), design, board, s).to_line();
    if (line.empty()) answer.error = "empty response line";
  }
  answer.objective = s.assignment.objective;
  answer.proved = proved(s.mip, s.status);
  return answer;
}

void fill_layers(const Trace& trace, const LayerSums& sums, Layers& m) {
  const auto mean_us = [&](const char* name) {
    const auto totals = trace.totals();
    const auto it = totals.find(name);
    if (it == totals.end() || it->second.second == 0) return 0.0;
    return it->second.first * 1e6 / static_cast<double>(it->second.second);
  };
  const auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  m.ilp_nodes = sums.nodes;
  m.ilp_us_per_node = ratio(sums.mip_seconds * 1e6, sums.nodes);
  m.ilp_cuts = sums.cuts;
  m.ilp_rc_fixed = sums.rc_fixed;
  m.ilp_basis_hit_rate =
      ratio(sums.basis_loaded, sums.basis_loaded + sums.basis_cold_pops);
  m.ilp_pivots_per_pop =
      ratio(sums.pop_pivots, sums.basis_loaded + sums.basis_cold_pops);
  m.ilp_gap_at_stop = ratio(sums.gap_sum, sums.requests);
  m.lp_pivots = sums.pivots;
  m.lp_us_per_pivot = ratio(sums.mip_seconds * 1e6, sums.pivots);
  m.lp_pivots_per_node = ratio(sums.pivots, sums.nodes);
  m.lp_refactorizations = sums.refactorizations;
  m.lp_work_units = sums.work_units;
  m.mapping_cost_table_us = mean_us("mapping.cost_table");
  m.mapping_formulate_us = ratio(sums.formulate_seconds * 1e6, sums.requests);
  m.mapping_detailed_us = mean_us("mapping.detailed");
  m.mapping_validate_us = mean_us("mapping.validate");
  m.mapping_retries = sums.retries;
  m.mapping_remap_ms = mean_us("mapping.remap") / 1e3;
  m.design_parse_us = mean_us("design.parse");
  m.service_parse_us = mean_us("service.parse");
  m.service_fingerprint_us = mean_us("service.fingerprint");
  m.service_serialize_us = mean_us("service.serialize");
}

Result run_table3(const Options& options, bool complete, Header& header) {
  Result result;
  const SuiteConfig& config = complete ? kCompleteSuite : kGlobalSuite;
  const gmm::ilp::MipOptions mip = suite_mip(config);
  header.extra["node_budget"] = std::to_string(config.node_budget);
  header.extra["threads"] = "1";
  if (complete) header.extra["cap_seconds"] = std::to_string(config.cap_seconds);
  header.extra["remap_node_budget"] = std::to_string(kGlobalSuite.node_budget);
  header.extra["seeds_per_point"] = std::to_string(config.seeds_per_point);
  header.extra["near_mutants"] = std::to_string(config.near_mutants);
  header.extra["hit_replays"] = std::to_string(config.hit_replays);

  // ---- set-up: boards, designs, request lines, mutants -------------------
  // Repeated once per round below as well, so the median spans the run.
  std::vector<double> setup_s;
  std::vector<Instance> suite;
  const auto set_up = [&] {
    const Clock::time_point start = Clock::now();
    std::vector<Instance> built = build_suite(options.seed, config);
    setup_s.push_back(seconds_since(start));
    return built;
  };
  suite = set_up();
  const std::size_t n = suite.size();
  header.extra["instances"] = std::to_string(n);

  // ---- rounds over the suite while time remains -------------------------
  // Each round re-solves every instance whose last solve still fits in the
  // time left, and replays the hits and near misses of every solved one
  // (those are cheap, so point 9 of the complete suite plays them each
  // round even though it solves once).  The host's speed drifts by tens of
  // percent within seconds, so each figure is a median over rounds spread
  // across the run and each figure takes every instance's fastest round.
  // A traced run makes one untraced round (the overhead baseline).
  std::vector<Solved> solved(n);
  std::vector<std::vector<double>> cold(n), hit(n), near(n);
  std::vector<double> all_cold_ms;  // every solve
  HostSpeed speed;  // sampled before every solve
  std::vector<double> cost_s(n, 0.0);
  std::vector<bool> answered(n, false), is_proved(n, false);
  const Clock::time_point measure_start = Clock::now();
  const auto fail = [&](const Instance& inst, const std::string& error) {
    ++result.failed;
    std::fprintf(stderr, "FAIL point %d seed %llu: %s\n", inst.point,
                 static_cast<unsigned long long>(inst.design_seed),
                 error.c_str());
  };
  int rounds = 0;
  for (bool ran = true; ran; ++rounds) {
    ran = false;
    for (std::size_t i = 0; i < n; ++i) {
      if (rounds > 0 && (options.trace || !answered[i])) continue;
      if (rounds == 0 ||
          seconds_since(measure_start) + cost_s[i] <= options.seconds) {
        ran = true;
        Solved s;
        speed.sample();
        const ColdRun run = solve_cold(suite[i], config, s);
        cost_s[i] = run.cold_ms / 1e3;
        ++result.attempted;
        std::string error = run.error;
        if (error.empty() && answered[i] &&
            (run.proved != is_proved[i] ||
             (run.proved && !within_gap(s.assignment.objective,
                                        solved[i].assignment.objective,
                                        1e-9)))) {
          error = "proof changed between rounds";
        }
        if (!error.empty()) {
          fail(suite[i], error);
          if (!answered[i]) continue;
        } else {
          answered[i] = true;
          is_proved[i] = run.proved;
          solved[i] = std::move(s);
          cold[i].push_back(run.cold_ms);
          all_cold_ms.push_back(run.cold_ms);
        }
      } else if (seconds_since(measure_start) > options.seconds) {
        continue;
      }
      const std::string error = play_classes(suite[i], config, solved[i],
                                             is_proved[i], hit[i], near[i]);
      if (!error.empty()) fail(suite[i], error);
    }
    if (ran && rounds > 0) set_up();
  }
  while (static_cast<int>(setup_s.size()) < kSetupRepeats) set_up();
  result.correct = result.failed == 0;
  result.note("rounds", std::to_string(rounds - 1));

  result.note("failed_share",
              std::to_string(static_cast<double>(result.failed) /
                             static_cast<double>(result.attempted)));
  // Fastest repeats: per instance for solves and hit replays, per mutant
  // for near misses (each round remaps an instance's mutants in order).
  const auto fastest = [](const std::vector<double>& v) {
    return *std::min_element(v.begin(), v.end());
  };
  const auto mutants = static_cast<std::size_t>(config.near_mutants);
  std::vector<double> cold_ms, hit_ms, near_ms, all_hit_ms;
  std::int64_t proved_count = 0;
  double table3_s = 0.0;
  int table3_count = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (!answered[i]) continue;
    cold_ms.push_back(fastest(cold[i]));
    for (std::size_t k = 0; k < std::min(mutants, near[i].size()); ++k) {
      double best = near[i][k];
      for (std::size_t j = k; j < near[i].size(); j += mutants) {
        best = std::min(best, near[i][j]);
      }
      near_ms.push_back(best);
    }
    if (!hit[i].empty()) {
      hit_ms.push_back(fastest(hit[i]));
      all_hit_ms.insert(all_hit_ms.end(), hit[i].begin(), hit[i].end());
    }
    if (is_proved[i]) ++proved_count;
    if (suite[i].paper()) {
      table3_s += cold_ms.back() / 1e3;
      ++table3_count;
    }
  }

  if (options.trace) {
    // The same suite again, carried through every layer under spans.
    Trace trace(true);
    LayerSums sums;
    Layers layers;
    const double cpu_before = cpu_seconds();
    double untraced_s = 0.0;
    for (std::size_t i = 0, k = 0; i < n; ++i) {
      if (!answered[i]) continue;
      untraced_s += cold_ms[k++] / 1e3;
      const auto id = static_cast<std::int64_t>(i);
      const TracedAnswer a = trace_request(trace, sums, id, suite[i].board,
                                           suite[i].request_line, complete,
                                           mip);
      if (!a.error.empty()) {
        fail(suite[i], "traced: " + a.error);
      } else if (a.proved && is_proved[i] &&
                 !within_gap(a.objective, solved[i].assignment.objective,
                             1e-9)) {
        fail(suite[i], "traced: proved objective differs");
      }
      for (const Mutant& m : suite[i].mutants) {
        Scope span(trace, "mapping.remap", id);
        const gmm::mapping::RemapResult nr =
            gmm::mapping::remap(m.design, suite[i].board,
                                solved[i].assignment.type_of,
                                near_options(m));
        if (!nr.result.detailed.success) fail(suite[i], "traced remap");
      }
    }
    result.correct = result.failed == 0;
    fill_layers(trace, sums, layers);
    layers.service_cpu_ms_per_request =
        (cpu_seconds() - cpu_before) * 1e3 / std::max(sums.requests, 1.0);
    // The traced solves (cost table, formulate+solve, detailed) against
    // the same instances' untraced map_pipeline / map_complete calls.
    layers.bench_tracing_overhead =
        untraced_s > 0
            ? trace.totals()["mapping.solve"].first / untraced_s - 1.0
            : 0.0;
    // The untraced round's request classes, as one caller sees them.
    layers.client.p99_ms = percentile(all_cold_ms, 0.99);
    layers.client.cold_p50_ms = percentile(cold_ms, 0.50);
    layers.client.cold_p90_ms = percentile(cold_ms, 0.90);
    layers.client.hit_p50_ms = percentile(all_hit_ms, 0.50);
    layers.client.hit_p99_ms = percentile(all_hit_ms, 0.99);
    layers.client.near_p50_ms = percentile(near_ms, 0.50);
    layers.client.near_p90_ms = percentile(near_ms, 0.90);
    layers.tails.solve_p90_ms = layers.client.cold_p90_ms;
    layers.tails.near_p90_ms = layers.client.near_p90_ms;
    // Paper instances per second of their summed walls (one caller).
    layers.tails.max_rate_rps = table3_s > 0 ? table3_count / table3_s : 0.0;
    trace.count("ilp.nodes", sums.nodes);
    trace.count("lp.pivots", sums.pivots);
    trace.write(options.out_dir + "/trace-" + options.workload + "-" +
                std::to_string(options.seed) + ".jsonl");
    add_layers(result, layers);
    return result;
  }

  // ---- end-to-end metrics --------------------------------------------------
  EndToEnd m;
  m.setup_s = median(setup_s);
  // The Table-3 column: the nine paper instances' fastest walls, summed.
  m.solve_s = table3_s;
  m.solve_p50_ms = percentile(cold_ms, 0.50);
  m.proved_share =
      static_cast<double>(proved_count) / static_cast<double>(n);
  m.peak_rss_mb = peak_rss_mb();
  m.hit_p50_ms = percentile(hit_ms, 0.50);
  m.near_p50_ms = percentile(near_ms, 0.50);
  result.note("solve_p50_ms", format_percentile(m.solve_p50_ms));
  result.note("hit_p50_ms", format_percentile(m.hit_p50_ms));
  result.note("near_p50_ms", format_percentile(m.near_p50_ms));
  result.note("proved", std::to_string(proved_count) + "/" + std::to_string(n));
  add_end_to_end(result, m, speed);
  return result;
}

}  // namespace perfbench
