#include "mapping/remap.hpp"

#include "support/log.hpp"

namespace gmm::mapping {

namespace {

bool has_mapping(const PipelineResult& result) {
  return result.status == lp::SolveStatus::kOptimal ||
         result.status == lp::SolveStatus::kFeasible;
}

}  // namespace

RemapResult remap(const design::Design& design, const arch::Board& board,
                  const std::vector<int>& prior_type_of,
                  const RemapOptions& options) {
  RemapResult out;
  PipelineOptions incremental = options.pipeline;
  if (prior_type_of.size() == design.size()) {
    incremental.global.prior_type_of = prior_type_of;
    incremental.global.pinned_structures = options.pinned_structures;
    incremental.global.migration_penalty = options.migration_penalty;
  }
  out.result = map_pipeline(design, board, incremental);
  if (has_mapping(out.result)) return out;

  // A pin the delta cannot live with (or a stale prior on a changed
  // board) shows up as infeasibility; the cold path is always available.
  const bool constrained = !incremental.global.pinned_structures.empty() ||
                           incremental.global.migration_penalty > 0.0;
  if (constrained &&
      out.result.status != lp::SolveStatus::kCancelled &&
      out.result.status != lp::SolveStatus::kTimeLimit) {
    GMM_LOG(kInfo) << "remap: incremental solve failed ("
                   << lp::to_string(out.result.status)
                   << "); falling back to a cold solve";
    out.result = map_pipeline(design, board, options.pipeline);
    out.fell_back_cold = true;
  }
  return out;
}

}  // namespace gmm::mapping
