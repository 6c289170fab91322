#include "aggregators/sign_sgd.h"

#include <algorithm>
#include <array>
#include <cmath>

#include "common/thread_pool.h"

namespace dpbr {
namespace agg {

Result<std::vector<float>> SignSgdAggregator::Aggregate(
    RowSpan uploads, const AggregationContext& ctx) {
  DPBR_RETURN_NOT_OK(ValidateUploads(uploads, ctx));
  size_t n = uploads.rows;
  double scale = scale_ > 0.0
                     ? scale_
                     : 1.0 / std::sqrt(static_cast<double>(ctx.dim));
  std::vector<float> out(ctx.dim);
  // Votes are exact integers, so any blocking is bitwise-safe; block by
  // coordinate and walk rows outer / coordinates inner so each arena row
  // streams through cache once per block.
  constexpr size_t kBlock = 4096;
  ParallelForBlocked(ctx.dim, kBlock, [&](size_t lo, size_t hi) {
    std::array<int, kBlock> vote;
    std::fill(vote.begin(), vote.begin() + (hi - lo), 0);
    for (size_t i = 0; i < n; ++i) {
      const float* row = uploads.Row(i);
      for (size_t j = lo; j < hi; ++j) {
        // 1 for non-negative, -1 for negative (paper §3.2's description
        // of the sign-compression family).
        vote[j - lo] += (row[j] >= 0.0f) ? 1 : -1;
      }
    }
    for (size_t j = lo; j < hi; ++j) {
      int v = vote[j - lo];
      out[j] =
          static_cast<float>(scale * (v > 0 ? 1.0 : (v < 0 ? -1.0 : 0.0)));
    }
  });
  return out;
}

}  // namespace agg
}  // namespace dpbr
