// The classical Gaussian-mechanism calibration (Definition 2 of the
// paper), for tests only: the library calibrates the round's noise
// through the RDP accountant, and the tests use this closed form as a
// cross-check of it.

#ifndef DPBR_TESTS_DP_CLASSIC_GAUSSIAN_REFERENCE_H_
#define DPBR_TESTS_DP_CLASSIC_GAUSSIAN_REFERENCE_H_

#include <cmath>

#include "common/status.h"

namespace dpbr {
namespace dp {

/// σ = Δ·√(2 ln(1.25/δ)) / ε for one release (valid for ε <= 1).
inline Result<double> ClassicGaussianSigma(double l2_sensitivity,
                                           double epsilon, double delta) {
  if (l2_sensitivity <= 0.0) {
    return Status::InvalidArgument("sensitivity must be positive");
  }
  if (epsilon <= 0.0 || epsilon > 1.0) {
    return Status::InvalidArgument(
        "classical Gaussian mechanism requires 0 < epsilon <= 1");
  }
  if (delta <= 0.0 || delta >= 1.0) {
    return Status::InvalidArgument("delta must lie in (0, 1)");
  }
  return l2_sensitivity * std::sqrt(2.0 * std::log(1.25 / delta)) / epsilon;
}

}  // namespace dp
}  // namespace dpbr

#endif  // DPBR_TESTS_DP_CLASSIC_GAUSSIAN_REFERENCE_H_
