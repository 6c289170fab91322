// Sign-compressed majority-vote aggregation, modelling the DP sign-SGD
// family the paper compares against (Zhu & Ling 2022 [77], Ma et al. 2022
// [43]): each upload is reduced to coordinate signs, the server takes a
// per-coordinate majority vote, and the result is scaled to a unit-norm
// direction.

#ifndef DPBR_AGGREGATORS_SIGN_SGD_H_
#define DPBR_AGGREGATORS_SIGN_SGD_H_

#include <string>

#include "aggregators/aggregator.h"

namespace dpbr {
namespace agg {

class SignSgdAggregator : public Aggregator {
 public:
  /// scale <= 0 selects the default 1/√d output scaling (unit-norm vote
  /// vector), keeping the step size comparable with gradient aggregates.
  explicit SignSgdAggregator(double scale = -1.0) : scale_(scale) {}

  std::string name() const override { return "sign_sgd_majority"; }
  Result<std::vector<float>> Aggregate(
      RowSpan uploads, const AggregationContext& ctx) override;

 private:
  double scale_;
};

}  // namespace agg
}  // namespace dpbr

#endif  // DPBR_AGGREGATORS_SIGN_SGD_H_
