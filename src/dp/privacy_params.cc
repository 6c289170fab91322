#include "dp/privacy_params.h"

#include <cmath>
#include <cstdio>
#include <limits>

#include "dp/rdp_accountant.h"

namespace dpbr {
namespace dp {

std::string PrivacyParams::ToString() const {
  char buf[256];
  if (!dp_enabled) return "PrivacyParams{non-DP}";
  std::snprintf(buf, sizeof(buf),
                "PrivacyParams{eps=%.4g delta=%.3g q=%.4g qc=%.4g T=%d "
                "sigma_mult=%.4g sigma=%.4g sigma_up=%.4g}",
                epsilon, delta, sampling_rate, client_sampling_rate, steps,
                noise_multiplier, sigma, sigma_upload);
  return buf;
}

Result<PrivacyParams> CalibratePrivacy(const PrivacySpec& spec) {
  if (spec.dataset_size <= 0) {
    return Status::InvalidArgument("dataset_size must be positive");
  }
  if (spec.batch_size <= 0 || spec.batch_size > spec.dataset_size) {
    return Status::InvalidArgument(
        "batch_size must lie in [1, dataset_size]");
  }
  if (spec.epochs <= 0) {
    return Status::InvalidArgument("epochs must be positive");
  }
  if (spec.client_sampling_rate <= 0.0 || spec.client_sampling_rate > 1.0) {
    return Status::InvalidArgument(
        "client_sampling_rate must lie in (0, 1]");
  }

  PrivacyParams p;
  p.sampling_rate =
      static_cast<double>(spec.batch_size) / spec.dataset_size;
  p.client_sampling_rate = spec.client_sampling_rate;
  // A client only trains on the ~q_c fraction of rounds it is sampled
  // into, so the round count scales by 1/q_c to preserve ~epochs expected
  // local passes. q_c == 1 reduces to the legacy T = ⌈epochs·|D|/bc⌉
  // bit-for-bit (the divisor is multiplied by exactly 1.0).
  p.steps = static_cast<int>(
      std::ceil(static_cast<double>(spec.epochs) * spec.dataset_size /
                (spec.batch_size * spec.client_sampling_rate)));

  if (spec.epsilon <= 0.0) {
    // Non-DP reference mode (Tables 15-16): no noise, infinite ε.
    p.dp_enabled = false;
    p.epsilon = std::numeric_limits<double>::infinity();
    p.delta = 0.0;
    return p;
  }

  p.epsilon = spec.epsilon;
  p.delta = spec.delta > 0.0
                ? spec.delta
                : std::pow(static_cast<double>(spec.dataset_size), -1.1);
  if (p.delta >= 1.0) {
    return Status::InvalidArgument("derived delta >= 1; dataset too small");
  }

  // Client subsampling amplifies each round to effective rate q_c·q
  // (see rdp_accountant.h); q_c == 1 degenerates to the plain
  // sampled-Gaussian calibration exactly.
  DPBR_ASSIGN_OR_RETURN(
      p.noise_multiplier,
      NoiseMultiplierFor(p.client_sampling_rate * p.sampling_rate, p.steps,
                         p.epsilon, p.delta));
  p.sigma = kNormalizedSumSensitivity * p.noise_multiplier;
  p.sigma_upload = p.sigma / spec.batch_size;
  return p;
}

Result<double> TransferLearningRate(double base_lr, double base_sigma,
                                    double sigma) {
  if (base_lr <= 0.0) return Status::InvalidArgument("base_lr must be > 0");
  if (base_sigma <= 0.0) {
    return Status::InvalidArgument("base_sigma must be > 0");
  }
  if (sigma <= 0.0) return base_lr;
  return base_lr * base_sigma / sigma;
}

}  // namespace dp
}  // namespace dpbr
