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
/// converting the container. FirstAgg's KS verdicts are defined by this
/// exact test (KsGaussianAccepts below falls back to it): the sample is
/// radix-sorted as order-preserving keys in per-thread grow-only
/// buffers, so warm calls do not allocate, and Φ is evaluated only on the
/// sorted ranges where D's maximum can lie. D and the p-value are bitwise
/// what sorting the floats and scanning every Φ value would give.
KsResult KsTestGaussian(const float* data, size_t n, double stddev);

/// The first stage's verdict alone: returns exactly
/// KsTestGaussian(data, n, stddev).p_value >= alpha, for any data. It
/// histograms z = x/σ on a fixed grid and brackets D between bounds taken
/// at the cell edges; KsPValue is non-increasing in D, so a bracket whose
/// ends both lie on one side of alpha (with a safety margin) decides the
/// row without sorting it. Rows whose bracket straddles alpha, and rows
/// with a non-finite z, take the exact KsTestGaussian path. Allocates
/// nothing.
bool KsGaussianAccepts(const float* data, size_t n, double stddev,
                       double alpha);

}  // namespace stats
}  // namespace dpbr

#endif  // DPBR_STATS_KS_TEST_H_
