// Coordinate-wise trimmed mean (Yin et al. 2018), paper supp. A.3.

#ifndef DPBR_AGGREGATORS_TRIMMED_MEAN_H_
#define DPBR_AGGREGATORS_TRIMMED_MEAN_H_

#include <string>

#include "aggregators/aggregator.h"

namespace dpbr {
namespace agg {

/// Averages each coordinate after discarding the k largest and k smallest
/// values, with k = floor(trim_fraction · n) (clamped so at least one
/// value survives). Streams over the arena in column-major tiles like
/// CoordinateMedianAggregator (see median.h).
class TrimmedMeanAggregator : public Aggregator {
 public:
  explicit TrimmedMeanAggregator(double trim_fraction = 0.2);

  std::string name() const override { return "trimmed_mean"; }
  Result<std::vector<float>> Aggregate(
      RowSpan uploads, const AggregationContext& ctx) override;

 private:
  double trim_fraction_;
};

}  // namespace agg
}  // namespace dpbr

#endif  // DPBR_AGGREGATORS_TRIMMED_MEAN_H_
