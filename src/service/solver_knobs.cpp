#include "service/solver_knobs.hpp"

#include <algorithm>

namespace gmm::service {

namespace {

/// Read one numeric knob; false (with `reason` set, quoting `range_text`)
/// when present but mistyped or outside [lo, hi].
bool knob_number(const Json& object, const char* key, double lo, double hi,
                 const char* range_text, bool& present, double& out,
                 std::string& reason) {
  const Json* field = object.find(key);
  if (field == nullptr) {
    present = false;
    return true;
  }
  if (!field->is_number() || field->as_number() < lo ||
      field->as_number() > hi) {
    reason = std::string("'") + key + "' must be a number in " + range_text;
    return false;
  }
  present = true;
  out = field->as_number();
  return true;
}

bool knob_int(const Json& object, const char* key, std::int64_t lo,
              std::int64_t hi, const char* range_text, bool& present,
              std::int64_t& out, std::string& reason) {
  double value = 0.0;
  if (!knob_number(object, key, static_cast<double>(lo),
                   static_cast<double>(hi), range_text, present, value,
                   reason)) {
    reason = std::string("'") + key + "' must be an integer in " + range_text;
    return false;
  }
  if (present) {
    if (value != static_cast<double>(static_cast<std::int64_t>(value))) {
      reason =
          std::string("'") + key + "' must be an integer in " + range_text;
      return false;
    }
    out = static_cast<std::int64_t>(value);
  }
  return true;
}

}  // namespace

bool parse_solver_knobs(const Json& request, SolverKnobs& out,
                        std::string& reject_reason) {
  out = SolverKnobs{};
  bool present = false;

  // Legacy flat v1 field first, so a v2 "options" ask overrides it.
  std::int64_t flat_threads = 0;
  if (!knob_int(request, "threads", 0, SolverKnobs::kMaxThreads, "[0, 1024]",
                present, flat_threads, reject_reason)) {
    return false;
  }
  if (present) out.threads = static_cast<int>(flat_threads);

  const Json* options = request.find("options");
  if (options == nullptr) return true;
  if (!options->is_object()) {
    reject_reason = "'options' must be an object of solver knobs";
    return false;
  }
  // A misspelled knob silently ignored would hand back an answer under
  // the wrong quality contract; unknown keys inside "options" reject.
  for (const auto& [key, value] : options->as_object()) {
    (void)value;
    if (key != "gap" && key != "max_nodes" && key != "time_limit_ms" &&
        key != "threads" && key != "max_stored_bases" && key != "no_cache") {
      reject_reason = "unknown solver knob '" + key + "' in 'options'";
      return false;
    }
  }
  if (!knob_number(*options, "gap", 0.0, 1.0, "[0, 1]", present, out.gap,
                   reject_reason)) {
    return false;
  }
  if (!knob_int(*options, "max_nodes", 1, SolverKnobs::kMaxNodes,
                "[1, 50000000]", present, out.max_nodes, reject_reason)) {
    return false;
  }
  // The lower bound is kMinTimeLimitMs, not 0: time_limit_ms = 0 is
  // ambiguous on the wire ("no time" vs "no limit") and a knob that
  // silently became "unlimited" would be the worst failure mode, so the
  // boundary is reject-not-clamp like every other knob.
  double time_limit = 0.0;
  if (!knob_number(*options, "time_limit_ms", SolverKnobs::kMinTimeLimitMs,
                   SolverKnobs::kMaxTimeLimitMs, "[1, 3600000]", present,
                   time_limit, reject_reason)) {
    return false;
  }
  if (present) out.time_limit_ms = time_limit;
  std::int64_t threads = 0;
  if (!knob_int(*options, "threads", 0, SolverKnobs::kMaxThreads, "[0, 1024]",
                present, threads, reject_reason)) {
    return false;
  }
  if (present) out.threads = static_cast<int>(threads);
  if (!knob_int(*options, "max_stored_bases", 0, SolverKnobs::kMaxStoredBases,
                "[0, 1048576]", present, out.max_stored_bases,
                reject_reason)) {
    return false;
  }
  const Json* no_cache = options->find("no_cache");
  if (no_cache != nullptr) {
    if (!no_cache->is_bool()) {
      reject_reason = "'no_cache' must be a boolean";
      return false;
    }
    out.no_cache = no_cache->as_bool();
  }
  return true;
}

void apply_solver_knobs(const SolverKnobs& knobs, int max_threads_per_solve,
                        ilp::MipOptions& mip) {
  if (knobs.gap >= 0.0) mip.rel_gap = knobs.gap;
  if (knobs.max_nodes >= 0) mip.node_limit = knobs.max_nodes;
  if (knobs.time_limit_ms >= 0.0) {
    // Boundary contract: any SET value — including a programmatic 0.0,
    // which the wire parser never admits — becomes a finite budget.
    // time_limit_seconds = 0.0 is an already-expired budget (the solver
    // stops with kTimeLimit at its first limits check); it must never
    // silently fall through to MipOptions' "no limit" default (kInf).
    // Only the unset sentinel (< 0) keeps the infinite default.
    mip.time_limit_seconds = knobs.time_limit_ms / 1000.0;
  }
  if (knobs.max_stored_bases >= 0) {
    mip.max_stored_bases = static_cast<std::size_t>(knobs.max_stored_bases);
  }
  mip.num_threads =
      std::min(knobs.threads <= 0 ? max_threads_per_solve : knobs.threads,
               max_threads_per_solve);
}

}  // namespace gmm::service
