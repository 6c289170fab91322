// The "A little is enough" forge as one serial pass over all
// coordinates, for tests only: the library's ALittleAttack computes the
// same per-coordinate mean and std a block of coordinates per pool
// claim, and must match this loop bit for bit.

#ifndef DPBR_TESTS_ATTACKS_A_LITTLE_REFERENCE_H_
#define DPBR_TESTS_ATTACKS_A_LITTLE_REFERENCE_H_

#include <cmath>
#include <vector>

#include "common/span.h"

namespace dpbr {
namespace attacks {

/// μ − z·s over the rows of `honest`, where μ and s are the
/// per-coordinate mean and sample std (the std divides by rows − 1, or
/// by 1 for a single row).
inline std::vector<float> ALittleForgeReference(ConstRowSpan honest,
                                                double z) {
  const size_t dim = honest.dim;
  const size_t bm = honest.rows;
  std::vector<double> mean(dim, 0.0), var(dim, 0.0);
  for (size_t i = 0; i < bm; ++i) {
    const float* u = honest.Row(i);
    for (size_t k = 0; k < dim; ++k) mean[k] += u[k];
  }
  for (auto& v : mean) v /= static_cast<double>(bm);
  for (size_t i = 0; i < bm; ++i) {
    const float* u = honest.Row(i);
    for (size_t k = 0; k < dim; ++k) {
      double d = u[k] - mean[k];
      var[k] += d * d;
    }
  }
  double denom = bm > 1 ? static_cast<double>(bm - 1) : 1.0;
  std::vector<float> forged(dim);
  for (size_t k = 0; k < dim; ++k) {
    double sd = std::sqrt(var[k] / denom);
    forged[k] = static_cast<float>(mean[k] - z * sd);
  }
  return forged;
}

}  // namespace attacks
}  // namespace dpbr

#endif  // DPBR_TESTS_ATTACKS_A_LITTLE_REFERENCE_H_
