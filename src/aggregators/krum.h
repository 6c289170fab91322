// Krum and Multi-Krum (Blanchard et al. 2017), the classical
// distance-based robust aggregation rules (paper supp. A.3).

#ifndef DPBR_AGGREGATORS_KRUM_H_
#define DPBR_AGGREGATORS_KRUM_H_

#include <string>

#include "aggregators/aggregator.h"

namespace dpbr {
namespace agg {

/// Krum selects the upload with the smallest sum of squared distances to
/// its n - f - 2 nearest neighbors, where f is the assumed number of
/// Byzantine workers (derived from ctx.gamma: f = n - ⌈γn⌉).
/// With multi_k > 1 (Multi-Krum) the multi_k best-scoring uploads are
/// averaged instead. O(n²·d) — skipped at the 100k bench scale.
class KrumAggregator : public Aggregator {
 public:
  explicit KrumAggregator(size_t multi_k = 1) : multi_k_(multi_k) {}

  std::string name() const override {
    return multi_k_ > 1 ? "multi_krum" : "krum";
  }
  Result<std::vector<float>> Aggregate(
      RowSpan uploads, const AggregationContext& ctx) override;

 private:
  size_t multi_k_;
};

}  // namespace agg
}  // namespace dpbr

#endif  // DPBR_AGGREGATORS_KRUM_H_
