// Derivation of all privacy-related constants for one worker's training
// run, mirroring the paper's experimental setup:
//   q  = bc / |D|                      (record-level sampling rate)
//   q_c ∈ (0, 1]                       (client-level per-round rate)
//   T  = epochs * |D| / (bc · q_c)     (rounds; q_c = 1 ⇒ legacy count)
//   δ  = 1 / |D|^1.1                   (paper §6.1)
//   σ_mult = NoiseMultiplierFor(q_c·q, T, ε, δ)
//            (sensitivity-1 units; effective per-round rate q_c·q)
//   σ  = Δ · σ_mult with Δ = 2         (ℓ2-sensitivity of Σ_j φ_j/‖φ_j‖)
//   σ_up = σ / bc                      (per-coordinate std of the upload)

#ifndef DPBR_DP_PRIVACY_PARAMS_H_
#define DPBR_DP_PRIVACY_PARAMS_H_

#include <string>

#include "common/status.h"

namespace dpbr {
namespace dp {

/// ℓ2-sensitivity of the normalized-gradient sum under add/remove-one
/// (each summand has unit norm, so replacing one changes the sum by ≤ 2).
inline constexpr double kNormalizedSumSensitivity = 2.0;

/// Inputs to privacy calibration.
struct PrivacySpec {
  double epsilon = 1.0;   ///< target ε; <= 0 means "no DP" (σ = 0)
  int dataset_size = 0;   ///< |D| per worker
  int batch_size = 16;    ///< bc
  int epochs = 8;         ///< training epochs (paper uses 8 or 10)
  double delta = -1.0;    ///< target δ; < 0 derives 1/|D|^1.1
  /// Per-round client Poisson participation rate q_c ∈ (0, 1]. When < 1,
  /// rounds are charged at the amplified effective rate q_c·q and the
  /// round count T scales by 1/q_c so each client still makes ~epochs
  /// passes over its shard in expectation. 1 (the default) is the paper's
  /// full-participation protocol, bit-for-bit.
  double client_sampling_rate = 1.0;
};

/// All derived constants.
struct PrivacyParams {
  double epsilon = 0.0;
  double delta = 0.0;
  double sampling_rate = 0.0;        ///< q (record-level)
  double client_sampling_rate = 1.0; ///< q_c (client-level, per round)
  int steps = 0;                     ///< T
  double noise_multiplier = 0.0;     ///< σ_mult (sensitivity-1)
  double sigma = 0.0;                ///< σ added to the normalized sum
  double sigma_upload = 0.0;         ///< σ/bc: per-coordinate upload std
  bool dp_enabled = true;

  std::string ToString() const;
};

/// Calibrates the noise for `spec`. Validates every field.
Result<PrivacyParams> CalibratePrivacy(const PrivacySpec& spec);

/// Learning-rate transfer (paper Theorem 1 / CLAIM 6). With normalized
/// gradients the optimal rate scales as 1/σ (Equation 4), so a rate η_b
/// tuned once at noise σ_b gives η = η_b·σ_b/σ at every other privacy
/// level: the (η, C, ε) grid of vanilla DP-SGD becomes one 1-d sweep. A
/// level without noise (σ <= 0) keeps η_b. Rejects η_b <= 0 and σ_b <= 0
/// (an anchor without noise fixes no rate).
Result<double> TransferLearningRate(double base_lr, double base_sigma,
                                    double sigma);

}  // namespace dp
}  // namespace dpbr

#endif  // DPBR_DP_PRIVACY_PARAMS_H_
