// The generic one-sample two-sided KS test against an arbitrary
// continuous CDF, for tests only: the library's first stage runs only
// stats::KsTestGaussian, while the sampler and KS tests also check
// double-precision samples against closed-form CDFs. It is the textbook
// form (copy, std::sort, evaluate the CDF at every point, scan D) over
// the library's public p-value, stats::KsPValue.

#ifndef DPBR_TESTS_STATS_KS_TEST_REFERENCE_H_
#define DPBR_TESTS_STATS_KS_TEST_REFERENCE_H_

#include <algorithm>
#include <functional>
#include <vector>

#include "common/logging.h"
#include "stats/kolmogorov.h"
#include "stats/ks_test.h"

namespace dpbr {
namespace stats {

/// Tests `sample` against `cdf`: D = max_i max((i+1)/n - u_i, u_i - i/n)
/// over the sorted CDF values u_i, and its p-value.
inline KsResult KsTest(const std::vector<double>& sample,
                       const std::function<double(double)>& cdf) {
  DPBR_CHECK_GT(sample.size(), 0u);
  std::vector<double> sorted = sample;
  std::sort(sorted.begin(), sorted.end());
  size_t n = sorted.size();
  double inv_n = 1.0 / static_cast<double>(n);
  double d = 0.0;
  for (size_t i = 0; i < n; ++i) {
    double u = cdf(sorted[i]);
    d = std::max(d, static_cast<double>(i + 1) * inv_n - u);
    d = std::max(d, u - static_cast<double>(i) * inv_n);
  }
  KsResult r;
  r.n = n;
  r.statistic = d;
  r.p_value = KsPValue(n, d);
  return r;
}

}  // namespace stats
}  // namespace dpbr

#endif  // DPBR_TESTS_STATS_KS_TEST_REFERENCE_H_
