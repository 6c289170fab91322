// Coordinate-wise median (Yin et al. 2018), paper supp. A.3.

#ifndef DPBR_AGGREGATORS_MEDIAN_H_
#define DPBR_AGGREGATORS_MEDIAN_H_

#include <memory>
#include <string>
#include <vector>

#include "aggregators/aggregator.h"

namespace dpbr {
namespace agg {

/// out[j] = median(uploads[0][j], ..., uploads[n-1][j]).
///
/// Streams over the row-major arena in column tiles: each task gathers a
/// `W x n` column-major tile into scratch (W sized so the tile fits a
/// fixed float budget even at n = 100k) and runs an independent
/// nth_element per column. Per-column selection depends only on the
/// column's values, so the result is pool-size invariant.
class CoordinateMedianAggregator : public Aggregator {
 public:
  std::string name() const override { return "coordinate_median"; }
  Result<std::vector<float>> Aggregate(
      RowSpan uploads, const AggregationContext& ctx) override;
};

/// Shape-only tile width for the column-major gather used by the
/// coordinate-selection rules: as many columns as fit the scratch budget
/// (n floats per column), clamped to [1, 1024]. Exposed for tests.
size_t SelectionTileWidth(size_t n);

/// Gather scratch for a selection dispatch over `dim` coordinates of `n`
/// uploads: one uninitialized tile of min(SelectionTileWidth(n), dim) * n
/// floats per thread slot, indexed by ThisThreadSlot() inside the
/// dispatch. Uninitialized is safe: the gather overwrites every float a
/// task reads, and a slot no task runs on is never touched.
std::vector<std::unique_ptr<float[]>> SelectionTiles(size_t n, size_t dim);

}  // namespace agg
}  // namespace dpbr

#endif  // DPBR_AGGREGATORS_MEDIAN_H_
