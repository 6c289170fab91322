// The Gaussian mechanism (Definition 2 of the paper) as a standalone
// utility: classical σ calibration for a single query. Noise itself is
// drawn by SplitRng::AddGaussian (common/rng.h).

#ifndef DPBR_DP_GAUSSIAN_MECHANISM_H_
#define DPBR_DP_GAUSSIAN_MECHANISM_H_

#include "common/status.h"

namespace dpbr {
namespace dp {

/// Classical calibration σ = Δ·√(2 ln(1.25/δ)) / ε (valid for ε <= 1,
/// Definition 2). Used for single-release queries and as a cross-check of
/// the RDP accountant in tests.
Result<double> ClassicGaussianSigma(double l2_sensitivity, double epsilon,
                                    double delta);

}  // namespace dp
}  // namespace dpbr

#endif  // DPBR_DP_GAUSSIAN_MECHANISM_H_
