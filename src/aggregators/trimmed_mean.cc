#include "aggregators/trimmed_mean.h"

#include <algorithm>
#include <cmath>
#include <memory>

#include "aggregators/median.h"
#include "common/logging.h"
#include "common/simd.h"
#include "common/thread_pool.h"

namespace dpbr {
namespace agg {

TrimmedMeanAggregator::TrimmedMeanAggregator(double trim_fraction)
    : trim_fraction_(trim_fraction) {
  DPBR_CHECK_GE(trim_fraction_, 0.0);
  DPBR_CHECK_LT(trim_fraction_, 0.5);
}

Result<std::vector<float>> TrimmedMeanAggregator::Aggregate(
    RowSpan uploads, const AggregationContext& ctx) {
  DPBR_RETURN_NOT_OK(ValidateUploads(uploads, ctx));
  size_t n = uploads.rows;
  size_t k = static_cast<size_t>(std::floor(trim_fraction_ *
                                            static_cast<double>(n)));
  if (2 * k >= n) k = (n - 1) / 2;
  std::vector<float> out(ctx.dim);
  // Chunked column-major tiles (see median.cc): gather `width` contiguous
  // columns into scratch, then sort and trim each column independently.
  size_t width = SelectionTileWidth(n);
  const simd::SimdKernels& kern = simd::Kernels();
  std::vector<std::unique_ptr<float[]>> tiles = SelectionTiles(n, ctx.dim);
  ParallelForBlocked(ctx.dim, width, [&](size_t lo, size_t hi) {
    size_t cols = hi - lo;
    float* tile = tiles[ThisThreadSlot()].get();
    // Strided-transpose gather (bitwise by construction), then the
    // surviving slice sums through the pinned 8-lane fold — the value
    // depends only on (n, k), never on the pool size or the dispatch
    // tier.
    kern.transpose_f32(uploads.Row(0) + lo, uploads.dim, n, cols,
                       tile, n);
    for (size_t j = lo; j < hi; ++j) {
      float* column = tile + (j - lo) * n;
      std::sort(column, column + n);
      double s = kern.sum8_f64(column + k, n - 2 * k);
      out[j] = static_cast<float>(s / static_cast<double>(n - 2 * k));
    }
  });
  return out;
}

}  // namespace agg
}  // namespace dpbr
