#include "aggregators/krum.h"

#include <algorithm>
#include <numeric>

#include "common/simd.h"
#include "common/thread_pool.h"

namespace dpbr {
namespace agg {

Result<std::vector<float>> KrumAggregator::Aggregate(
    RowSpan uploads, const AggregationContext& ctx) {
  DPBR_RETURN_NOT_OK(ValidateUploads(uploads, ctx));
  size_t n = uploads.rows;
  size_t trusted = TrustedCount(ctx.gamma, n);
  size_t f = n - trusted;  // assumed Byzantine count
  // Krum needs n >= f + 3 so that n - f - 2 >= 1 neighbors exist.
  size_t neighbors = (n > f + 2) ? (n - f - 2) : 1;
  if (n < 3) {
    return Status::FailedPrecondition("Krum requires at least 3 uploads");
  }
  neighbors = std::min(neighbors, n - 1);

  // Pairwise squared distances (symmetric). Row i owns every (i, j > i)
  // pair, so each matrix cell is written by exactly one task and the
  // per-pair arithmetic is schedule-independent. Rows are processed in
  // mirrored pairs (t, n-1-t) — n-1 pairs per task — because row length
  // shrinks with i, so every claimed index costs about the same.
  // Each pair's distance is one simd distsq8_f64 call: a pinned 8-lane
  // double fold whose value depends only on dim — identical across pool
  // sizes and dispatch tiers (ISA changes the speed, never the bits).
  std::vector<double> d2(n * n, 0.0);
  const simd::SimdKernels& kern = simd::Kernels();
  auto distance_row = [&](size_t i) {
    const float* a = uploads.Row(i);
    for (size_t j = i + 1; j < n; ++j) {
      double s = kern.distsq8_f64(a, uploads.Row(j), ctx.dim);
      d2[i * n + j] = s;
      d2[j * n + i] = s;
    }
  };
  ParallelFor(0, (n + 1) / 2, [&](size_t t) {
    distance_row(t);
    size_t mirror = n - 1 - t;
    if (mirror != t) distance_row(mirror);
  });

  // Krum score: sum of the `neighbors` smallest distances to others.
  // Each thread slot owns one selection scratch row, sized up front.
  std::vector<double> score(n, 0.0);
  std::vector<std::vector<double>> scratch(ThreadSlotCount(),
                                           std::vector<double>(n - 1));
  ParallelForBlocked(n, 16, [&](size_t lo, size_t hi) {
    std::vector<double>& row = scratch[ThisThreadSlot()];
    for (size_t i = lo; i < hi; ++i) {
      size_t m = 0;
      for (size_t j = 0; j < n; ++j) {
        if (j != i) row[m++] = d2[i * n + j];
      }
      std::nth_element(row.begin(), row.begin() + neighbors - 1, row.end());
      double s = 0.0;
      for (size_t k = 0; k < neighbors; ++k) s += row[k];
      score[i] = s;
    }
  });

  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&score](size_t a, size_t b) { return score[a] < score[b]; });

  // Mean of the selected rows, accumulated in score order.
  size_t take = std::min(std::max<size_t>(multi_k_, 1), n);
  order.resize(take);
  return MeanOfSpanRows(uploads, order);
}

}  // namespace agg
}  // namespace dpbr
