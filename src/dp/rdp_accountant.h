// Rényi-DP accountant for the Poisson-subsampled Gaussian mechanism.
//
// The paper (Theorem 3) calibrates its noise multiplier with TensorFlow
// Privacy's accountant; this module is a from-scratch C++ implementation of
// the same machinery (Mironov, Talwar, Zhang 2019 "Rényi Differential
// Privacy of the Sampled Gaussian Mechanism" + the improved RDP→(ε,δ)
// conversion used by TF-Privacy).
//
// Conventions: `q` is the Poisson sampling rate (batch/dataset), `sigma`
// is the noise multiplier in sensitivity-1 units, `steps` is the number of
// compositions T.
//
// Client-level Poisson participation at rate q_c needs no entry point of
// its own: from one record's point of view the client draw and the record
// draw are independent Bernoulli events, so its per-round inclusion is
// Poisson at the product q_c·q and a round is one step at that rate
// (amplification by Poisson subsampling composes multiplicatively;
// Mironov–Talwar–Zhang 2019, Zhu–Wang 2019). Callers pass q = q_c·q;
// q_c = 1 leaves q bitwise unchanged.

#ifndef DPBR_DP_RDP_ACCOUNTANT_H_
#define DPBR_DP_RDP_ACCOUNTANT_H_

#include <vector>

#include "common/status.h"

namespace dpbr {
namespace dp {

/// Default Rényi orders: the TF-Privacy grid (fractional 1.25..~10 plus
/// integers up to 512) which brackets the optimum for all regimes used in
/// the paper (ε between 1/8 and 8).
std::vector<double> DefaultRdpOrders();

/// RDP ε(α) of ONE step of the sampled Gaussian mechanism at order
/// `order` (> 1). Handles q == 0 (no privacy loss), q == 1 (pure Gaussian:
/// α/(2σ²)) and fractional/integer orders. Requires sigma > 0.
double RdpSampledGaussian(double q, double sigma, double order);

/// Vectorized single-step RDP across `orders`.
std::vector<double> RdpSampledGaussian(double q, double sigma,
                                       const std::vector<double>& orders);

/// Composition: RDP adds linearly over steps.
std::vector<double> ComposeRdp(const std::vector<double>& rdp_per_step,
                               int steps);

/// Optimal (ε, best_order) for target δ from an RDP curve, using the
/// conversion  ε = rdp - (ln δ + ln α)/(α-1) + ln((α-1)/α)
/// minimized over orders (Canonne–Kamath–Steinke bound as in TF-Privacy).
struct EpsResult {
  double epsilon = 0.0;
  double best_order = 0.0;
};
Result<EpsResult> RdpToEpsilon(const std::vector<double>& orders,
                               const std::vector<double>& rdp, double delta);

/// End-to-end: ε after `steps` compositions of the sampled Gaussian
/// mechanism with rate q and noise multiplier sigma at target δ.
Result<double> ComputeEpsilon(double q, double sigma, int steps, double delta);

/// Inverse problem: smallest noise multiplier σ achieving (ε, δ) for
/// (q, steps). Bisection on the monotone ε(σ). Returns an error when the
/// target is unachievable within σ ∈ [0.2, 2^20].
Result<double> NoiseMultiplierFor(double q, int steps, double epsilon,
                                  double delta);

}  // namespace dp
}  // namespace dpbr

#endif  // DPBR_DP_RDP_ACCOUNTANT_H_
