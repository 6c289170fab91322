// Norm-bounding aggregation: clip every upload to a norm budget, then
// average. A common lightweight defense used as an additional baseline in
// the ablation benches.

#ifndef DPBR_AGGREGATORS_NORM_BOUND_H_
#define DPBR_AGGREGATORS_NORM_BOUND_H_

#include <string>

#include "aggregators/aggregator.h"

namespace dpbr {
namespace agg {

class NormBoundAggregator : public Aggregator {
 public:
  /// bound <= 0 selects an adaptive budget: the median upload norm.
  explicit NormBoundAggregator(double bound = -1.0) : bound_(bound) {}

  std::string name() const override { return "norm_bound"; }
  Result<std::vector<float>> Aggregate(
      RowSpan uploads, const AggregationContext& ctx) override;

 private:
  double bound_;
};

}  // namespace agg
}  // namespace dpbr

#endif  // DPBR_AGGREGATORS_NORM_BOUND_H_
