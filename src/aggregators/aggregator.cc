#include "aggregators/aggregator.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/thread_pool.h"
#include "tensor/ops.h"

namespace dpbr {
namespace agg {

Status ValidateUploads(ConstRowSpan uploads, const AggregationContext& ctx) {
  if (uploads.empty() || uploads.data == nullptr) {
    return Status::InvalidArgument("no uploads to aggregate");
  }
  if (ctx.dim == 0) return Status::InvalidArgument("ctx.dim must be set");
  if (uploads.dim != ctx.dim) {
    return Status::InvalidArgument("upload dimension mismatch");
  }
  if (ctx.client_ids != nullptr && ctx.client_ids->size() != uploads.rows) {
    return Status::InvalidArgument("client_ids size mismatch");
  }
  return Status::OK();
}

size_t TrustedCount(double gamma, size_t n) {
  double g = std::min(std::max(gamma, 0.0), 1.0);
  size_t k = static_cast<size_t>(std::ceil(g * static_cast<double>(n)));
  return std::min(std::max<size_t>(k, 1), n);
}

std::vector<float> MeanOfSpanRows(ConstRowSpan uploads,
                                  const std::vector<size_t>& rows) {
  std::vector<float> out(uploads.dim, 0.0f);
  if (rows.empty()) return out;
  // Blocked by coordinate; within each block the rows accumulate in the
  // caller's order, so every coordinate sees the same Axpy-then-Scale
  // fold regardless of pool size.
  ParallelForBlocked(uploads.dim, 4096, [&](size_t lo, size_t hi) {
    for (size_t r : rows) {
      ops::Axpy(1.0f, uploads.Row(r) + lo, out.data() + lo, hi - lo);
    }
    ops::Scale(1.0f / static_cast<float>(rows.size()), out.data() + lo,
               hi - lo);
  });
  return out;
}

std::vector<float> MeanOfAllRows(ConstRowSpan uploads) {
  std::vector<size_t> rows(uploads.rows);
  std::iota(rows.begin(), rows.end(), 0);
  return MeanOfSpanRows(uploads, rows);
}

}  // namespace agg
}  // namespace dpbr
