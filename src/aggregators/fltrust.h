// FLTrust (Cao et al. 2020): trust bootstrapping from a server-side clean
// gradient, the strongest auxiliary-data baseline in the paper's Table 1.
//
// weight_i = ReLU(cos(g_i, g_s)); each upload is rescaled to ‖g_s‖ and the
// weighted average is returned. Contrast with the dpbr second stage, which
// uses inner products and *binary* weights (paper §4.5 "Novelties").

#ifndef DPBR_AGGREGATORS_FLTRUST_H_
#define DPBR_AGGREGATORS_FLTRUST_H_

#include <string>

#include "aggregators/aggregator.h"

namespace dpbr {
namespace agg {

class FlTrustAggregator : public Aggregator {
 public:
  std::string name() const override { return "fltrust"; }
  bool NeedsServerGradient() const override { return true; }
  Result<std::vector<float>> Aggregate(
      RowSpan uploads, const AggregationContext& ctx) override;
};

}  // namespace agg
}  // namespace dpbr

#endif  // DPBR_AGGREGATORS_FLTRUST_H_
