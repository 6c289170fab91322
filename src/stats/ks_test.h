// One-sample two-sided Kolmogorov-Smirnov test.
//
// The first-stage aggregation treats the d coordinates of an upload as a
// sample and tests the null hypothesis that they are drawn from
// N(0, σ_up²) (paper §4.3).

#ifndef DPBR_STATS_KS_TEST_H_
#define DPBR_STATS_KS_TEST_H_

#include <cstddef>

namespace dpbr {
namespace stats {

/// Outcome of a one-sample KS test.
struct KsResult {
  double statistic = 0.0;  ///< D = sup_x |ECDF(x) - F(x)|
  double p_value = 1.0;    ///< Pr(D_n >= statistic) under the null
  size_t n = 0;            ///< sample size
};

/// Tests float data (gradient coordinates) against N(0, stddev²) without
/// converting the container. This is the hot path of FirstAgg: the sample
/// is radix-sorted as order-preserving keys in per-thread grow-only
/// buffers, so warm calls do not allocate, and Φ is evaluated only on the
/// sorted ranges where D's maximum can lie. D and the p-value are bitwise
/// what sorting the floats and scanning every Φ value would give.
KsResult KsTestGaussian(const float* data, size_t n, double stddev);

}  // namespace stats
}  // namespace dpbr

#endif  // DPBR_STATS_KS_TEST_H_
