// The standard normal distribution the protocol uses: its CDF (the KS
// reference distribution) and quantile (the norm-test window, the ALIE
// attack's z).

#ifndef DPBR_STATS_DISTRIBUTIONS_H_
#define DPBR_STATS_DISTRIBUTIONS_H_

namespace dpbr {
namespace stats {

/// Standard normal CDF Φ(x).
double NormalCdf(double x);

/// Standard normal quantile Φ^{-1}(p), p in (0, 1).
/// Acklam's rational approximation refined with one Halley step;
/// |relative error| < 1e-9 over the full domain.
double NormalQuantile(double p);

}  // namespace stats
}  // namespace dpbr

#endif  // DPBR_STATS_DISTRIBUTIONS_H_
