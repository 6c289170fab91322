// Robust Federated Averaging (Pillutla et al. 2019): the geometric median
// of the uploads, computed with smoothed Weiszfeld iterations.

#ifndef DPBR_AGGREGATORS_RFA_H_
#define DPBR_AGGREGATORS_RFA_H_

#include <string>

#include "aggregators/aggregator.h"

namespace dpbr {
namespace agg {

/// argmin_g Σ_i ‖g - g_i‖ via Weiszfeld with an ε-smoothed denominator.
class RfaAggregator : public Aggregator {
 public:
  explicit RfaAggregator(int max_iters = 16, double smoothing = 1e-6)
      : max_iters_(max_iters), smoothing_(smoothing) {}

  std::string name() const override { return "rfa_geometric_median"; }
  Result<std::vector<float>> Aggregate(
      RowSpan uploads, const AggregationContext& ctx) override;

 private:
  int max_iters_;
  double smoothing_;
};

}  // namespace agg
}  // namespace dpbr

#endif  // DPBR_AGGREGATORS_RFA_H_
