// FedAvg-style mean aggregation: the non-robust baseline and the rule the
// paper's "Reference Accuracy" mode uses (DP, no defense, no attack).

#ifndef DPBR_AGGREGATORS_MEAN_H_
#define DPBR_AGGREGATORS_MEAN_H_

#include <string>

#include "aggregators/aggregator.h"

namespace dpbr {
namespace agg {

/// Unweighted mean of all uploads.
class MeanAggregator : public Aggregator {
 public:
  std::string name() const override { return "mean"; }
  Result<std::vector<float>> Aggregate(
      RowSpan uploads, const AggregationContext& ctx) override;
};

}  // namespace agg
}  // namespace dpbr

#endif  // DPBR_AGGREGATORS_MEAN_H_
