#include "mapping/batch_mapper.hpp"

#include "support/assert.hpp"

namespace gmm::mapping {

std::vector<PipelineResult> map_batch(support::ThreadPool& pool,
                                      const std::vector<BatchItem>& items,
                                      const PipelineOptions& options) {
  std::vector<PipelineResult> results(items.size());
  support::parallel_for(pool, items.size(), [&](std::size_t i) {
    const BatchItem& item = items[i];
    GMM_ASSERT(item.design != nullptr && item.board != nullptr,
               "map_batch item with null design or board");
    results[i] = map_pipeline(*item.design, *item.board,
                              item.options ? *item.options : options);
  });
  return results;
}

}  // namespace gmm::mapping
