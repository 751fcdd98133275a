// Batched mapping driver: map N independent designs concurrently.
//
// The sharded mapper's fan-out: every (part, device) candidate is one
// item, boards are loaded once and shared read-only by every item, and a
// ThreadPool spreads the per-item global/detailed pipelines across
// workers.  Results are uncertified pipeline results; callers serving
// answers go through mapping::solve instead.  Each pipeline run is
// independent, so results are deterministic per item regardless of
// worker interleaving (when the per-item solver itself runs with
// num_threads == 1).
#pragma once

#include <vector>

#include "arch/board.hpp"
#include "design/design.hpp"
#include "mapping/pipeline.hpp"
#include "support/thread_pool.hpp"

namespace gmm::mapping {

/// One mapping request.  The pointed-to design and board must outlive the
/// map_batch call; the board is typically shared by every item.
struct BatchItem {
  const design::Design* design = nullptr;
  const arch::Board* board = nullptr;
  /// Per-item override of the batch-wide options (null = use the batch
  /// default).  The shard-repair loop uses this to warm-start re-solves
  /// of changed parts with the previous round's assignment.  Must outlive
  /// the map_batch call.
  const PipelineOptions* options = nullptr;
};

/// Map every item over `pool`, blocking until the batch completes; the
/// results are parallel to the items.
std::vector<PipelineResult> map_batch(support::ThreadPool& pool,
                                      const std::vector<BatchItem>& items,
                                      const PipelineOptions& options = {});

}  // namespace gmm::mapping
