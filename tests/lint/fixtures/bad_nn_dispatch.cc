// Known-bad fixture: thread-pool use inside src/nn/. Every nn pass runs
// inside the federated round's one dispatch, where a nested dispatch
// runs inline, so layers compute on the calling thread and never name
// the pool. The same code outside src/nn/ is legal.
// lint-as: src/nn/bad_nn_dispatch.cc

#include <cstddef>

#include "common/thread_pool.h"  // expect-lint: nn-dispatch

namespace dpbr {
namespace nn {

void ScaleRow(size_t row);
void ScaleBlock(size_t lo, size_t hi);

void ScaleRows(size_t rows) {
  ParallelFor(0, rows, ScaleRow);  // expect-lint: nn-dispatch
}

void ScaleBlocks(size_t rows) {
  ParallelForBlocked(rows, 8, ScaleBlock);  // expect-lint: nn-dispatch
}

size_t PoolWidth() {
  return ThreadPool::Ambient().num_threads();  // expect-lint: nn-dispatch
}

}  // namespace nn
}  // namespace dpbr
