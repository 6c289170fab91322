#include "dp/gaussian_mechanism.h"

#include <cmath>

namespace dpbr {
namespace dp {

Result<double> ClassicGaussianSigma(double l2_sensitivity, double epsilon,
                                    double delta) {
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
