#include "aggregators/median.h"

#include <algorithm>
#include <memory>

#include "common/simd.h"
#include "common/thread_pool.h"

namespace dpbr {
namespace agg {

size_t SelectionTileWidth(size_t n) {
  // ~4 MB of scratch per task (1M floats). At n = 100k this is a
  // 10-column tile; at test sizes it caps at 1024 columns. Depends only
  // on n (shape), never on data or pool size.
  constexpr size_t kTileFloatBudget = size_t{1} << 20;
  size_t w = kTileFloatBudget / std::max<size_t>(n, 1);
  return std::max<size_t>(1, std::min<size_t>(w, 1024));
}

std::vector<std::unique_ptr<float[]>> SelectionTiles(size_t n, size_t dim) {
  size_t floats = std::min(SelectionTileWidth(n), dim) * n;
  std::vector<std::unique_ptr<float[]>> tiles(ThreadSlotCount());
  for (auto& t : tiles) t.reset(new float[floats]);
  return tiles;
}

Result<std::vector<float>> CoordinateMedianAggregator::Aggregate(
    RowSpan uploads, const AggregationContext& ctx) {
  DPBR_RETURN_NOT_OK(ValidateUploads(uploads, ctx));
  size_t n = uploads.rows;
  std::vector<float> out(ctx.dim);
  // Chunked column-major selection: gather a tile of `width` columns
  // (each column contiguous in scratch), then select per column. The
  // gather reads each arena row once per tile; the selects then run on
  // cache-resident columns. Coordinates are independent, so the blocked
  // split is shape-only.
  size_t width = SelectionTileWidth(n);
  const simd::SimdKernels& kern = simd::Kernels();
  std::vector<std::unique_ptr<float[]>> tiles = SelectionTiles(n, ctx.dim);
  ParallelForBlocked(ctx.dim, width, [&](size_t lo, size_t hi_end) {
    size_t cols = hi_end - lo;
    float* tile = tiles[ThisThreadSlot()].get();
    // The gather is a strided transpose (pure data movement, bitwise by
    // construction): row i's columns [lo, hi) land in tile column j - lo.
    kern.transpose_f32(uploads.Row(0) + lo, uploads.dim, n, cols,
                       tile, n);
    for (size_t j = lo; j < hi_end; ++j) {
      float* column = tile + (j - lo) * n;
      size_t mid = n / 2;
      std::nth_element(column, column + mid, column + n);
      float hi = column[mid];
      if (n % 2 == 1) {
        out[j] = hi;
      } else {
        std::nth_element(column, column + mid - 1, column + n);
        out[j] = 0.5f * (hi + column[mid - 1]);
      }
    }
  });
  return out;
}

}  // namespace agg
}  // namespace dpbr
