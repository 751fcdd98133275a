#include "mapping/solve.hpp"

#include <algorithm>
#include <iterator>
#include <thread>
#include <utility>

#include "mapping/complete_mapper.hpp"
#include "mapping/cost_model.hpp"
#include "mapping/remap.hpp"
#include "mapping/validate.hpp"
#include "support/fault.hpp"
#include "support/timer.hpp"

namespace gmm::mapping {

namespace {

/// Indexed by Formulation.
constexpr const char* kFormulationNames[] = {"global", "complete", "sharded"};

/// Fan-out workers for `tasks` concurrent solves: workers times per-solve
/// B&B threads stay within the thread budget, never more workers than
/// solves, never fewer than one.
std::size_t fan_out_workers(const SolveSpec& spec, std::size_t tasks) {
  const int cores =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  const int budget = spec.max_threads > 0 ? spec.max_threads : cores;
  // num_threads 0 = every core per solve, so the fan-out serializes.
  const int threads = spec.pipeline.global.mip.num_threads;
  const int per_solve = threads > 0 ? threads : cores;
  return std::clamp<std::size_t>(static_cast<std::size_t>(budget / per_solve),
                                 1, std::max<std::size_t>(tasks, 1));
}

/// An engine's result as a SolveOutcome (the fields it has; the mapping
/// is moved out of `r`).
template <typename Result>
SolveOutcome outcome_of(Result&& r) {
  SolveOutcome out;
  out.status = r.status;
  out.assignment = std::move(r.assignment);
  out.detailed = std::move(r.detailed);
  out.model_size = r.model_size;
  out.effort = r.effort;
  out.total_effort = r.effort;
  if constexpr (requires { r.retries; }) out.retries = r.retries;
  if constexpr (requires { r.mip; }) out.mip = std::move(r.mip);
  return out;
}

SolveOutcome solve_global(const design::Design& design,
                          const arch::Board& board, const SolveSpec& spec) {
  RemapOptions options;
  options.pipeline = spec.pipeline;
  options.pinned_structures = spec.pinned_structures;
  options.migration_penalty = spec.migration_penalty;
  return outcome_of(remap(design, board, spec.prior_type_of, options).result);
}

SolveOutcome solve_complete(const design::Design& design,
                            const arch::Board& board, const SolveSpec& spec) {
  CompleteOptions options;
  options.mip = spec.pipeline.global.mip;
  // The cost table is this formulation's pre-processing; charge it as the
  // pipeline charges its own, so times follow Table 3's accounting.
  const support::WallTimer table_timer;
  const CostTable table(design, board, spec.pipeline.global.weights);
  const double table_seconds = table_timer.seconds();
  CompleteResult r = map_complete(design, board, table, options);
  r.effort.preprocess_seconds += table_seconds;
  return outcome_of(r);
}

SolveOutcome solve_sharded(const design::Design& design,
                           const arch::Board& board, const SolveSpec& spec) {
  ShardOptions options;
  options.pipeline = spec.pipeline;
  std::size_t usable = 0;
  for (std::size_t k = 0; k < board.num_devices(); ++k) {
    if (board.device_banks(k) > 0) ++usable;
  }
  // One candidate solve per (part, device) pair.
  options.num_workers = fan_out_workers(spec, usable * usable);
  ShardResult r = map_sharded(design, board, options);
  SolveOutcome out = outcome_of(r);
  out.total_effort = r.total_effort;
  out.device_of = std::move(r.device_of);
  out.shard = r.stats;
  return out;
}

/// Certify a fresh answer; one that fails keeps no mapping.
void certify(const design::Design& design, const arch::Board& board,
             const SolveSpec& spec, SolveOutcome& out) {
  if (!out.has_mapping()) return;
  Certificate certificate =
      certify_mapping(design, board, out.assignment, out.detailed,
                      out.shard.stitch_cost, spec.pipeline.global.weights);
  // Injected certification failure: the answer was fine, but take the
  // exact path a wrong one would.
  if (certificate.ok() && GMM_FAULT("mapping.certify", "corrupt")) {
    certificate.problems.emplace_back("injected fault: certification failure");
  }
  if (certificate.ok()) return;
  for (const std::string& problem : certificate.problems) {
    out.certify_failure += (out.certify_failure.empty() ? "" : "; ") + problem;
  }
  out.status = lp::SolveStatus::kNumericalFailure;
  out.detailed.success = false;
  out.detailed.failure = "certification failed";
  out.detailed.fragments.clear();
}

}  // namespace

const char* to_string(Formulation formulation) {
  return kFormulationNames[static_cast<std::size_t>(formulation)];
}

std::optional<Formulation> parse_formulation(std::string_view name) {
  for (std::size_t f = 0; f < std::size(kFormulationNames); ++f) {
    if (name == kFormulationNames[f]) return static_cast<Formulation>(f);
  }
  return std::nullopt;
}

SolveOutcome solve(const design::Design& design, const arch::Board& board,
                   const SolveSpec& spec) {
  SolveOutcome out;
  switch (spec.formulation) {
    case Formulation::kGlobal:
      out = solve_global(design, board, spec);
      break;
    case Formulation::kComplete:
      out = solve_complete(design, board, spec);
      break;
    case Formulation::kSharded:
      out = solve_sharded(design, board, spec);
      break;
  }
  certify(design, board, spec, out);
  return out;
}

}  // namespace gmm::mapping
