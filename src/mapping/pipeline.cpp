#include "mapping/pipeline.hpp"

#include <memory>

#include "support/cancellation.hpp"
#include "support/log.hpp"
#include "support/timer.hpp"

namespace gmm::mapping {

PipelineResult map_pipeline(const design::Design& design,
                            const arch::Board& board,
                            const PipelineOptions& options) {
  PipelineResult result;
  support::WallTimer timer;

  // Pre-processing: every (d, t) placement plan and cost — charged to the
  // pipeline per the paper's timing methodology.
  const CostTable table(design, board, options.global.weights);
  result.effort.preprocess_seconds = timer.seconds();

  GlobalOptions global_options = options.global;
  const std::shared_ptr<const support::CancelToken>& token =
      options.global.mip.cancel_token;
  for (int attempt = 0; attempt <= options.max_retries; ++attempt) {
    // Between retries the cancel token is the only brake: each global
    // solve gets the per-solve time limit afresh, so without this check a
    // cancelled or deadline-expired request could burn the whole retry
    // budget after its caller has already given up on it.
    if (token && token->should_stop()) {
      result.status = token->cancelled() ? lp::SolveStatus::kCancelled
                                         : lp::SolveStatus::kTimeLimit;
      return result;
    }
    GlobalResult global = map_global(design, board, table, global_options);
    result.model_size = global.model_size;
    result.effort += global.effort;  // formulate + solve; the rest is 0
    result.mip = std::move(global.mip);
    result.status = global.status;
    if (global.status != lp::SolveStatus::kOptimal &&
        global.status != lp::SolveStatus::kFeasible) {
      return result;  // infeasible / limit without incumbent
    }
    result.assignment = global.assignment;

    timer.reset();
    result.detailed = map_detailed(design, board, table, result.assignment,
                                   options.detailed);
    result.effort.detailed_seconds += timer.seconds();
    if (result.detailed.success) return result;

    // Detailed mapping failed.  Packing failures only arise from the
    // optimistic parts of the model (overlap sharing, or the inexact
    // Figure-3 port estimate on >2-port types); forbid the failing
    // type's exact structure set from recurring and re-run.  Halfway
    // through the retry budget, also drop overlap awareness — the
    // conservative model is guaranteed packable on <=2-port types.
    result.retries = attempt + 1;
    std::vector<std::pair<std::size_t, std::size_t>> cut;
    const int failing = result.detailed.failed_type;
    for (std::size_t d = 0; d < design.size(); ++d) {
      if (failing < 0 || result.assignment.type_of[d] == failing) {
        cut.emplace_back(
            d, static_cast<std::size_t>(result.assignment.type_of[d]));
      }
    }
    global_options.no_good_cuts.push_back(std::move(cut));
    if (attempt + 1 >= (options.max_retries + 1) / 2 &&
        global_options.overlap_aware_capacity) {
      GMM_LOG(kInfo) << "pipeline: overlap retries exhausted; falling back "
                        "to the conservative (no-overlap) model";
      global_options.overlap_aware_capacity = false;
      global_options.no_good_cuts.clear();
    }
    GMM_LOG(kInfo) << "pipeline: detailed mapping failed ("
                   << result.detailed.failure << "); retry "
                   << result.retries;
  }
  result.status = lp::SolveStatus::kNumericalFailure;
  GMM_LOG(kError) << "pipeline: retry budget exhausted";
  return result;
}

}  // namespace gmm::mapping
