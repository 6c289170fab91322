#include "dp/rdp_accountant.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.h"

namespace dpbr {
namespace dp {
namespace {

constexpr double kNegInf = -std::numeric_limits<double>::infinity();

// log(exp(a) + exp(b)), stable.
double LogAddExp(double a, double b) {
  if (a == kNegInf) return b;
  if (b == kNegInf) return a;
  double m = std::max(a, b);
  return m + std::log1p(std::exp(std::min(a, b) - m));
}

// log(exp(a) - exp(b)) for a >= b, stable. Tiny numerical inversions
// (b marginally above a) collapse to -inf instead of aborting.
double LogSubExp(double a, double b) {
  if (b == kNegInf) return a;
  if (b >= a) {
    DPBR_CHECK_LT(b - a, 1e-9);
    return kNegInf;
  }
  return a + std::log1p(-std::exp(b - a));
}

// log(erfc(x)), stable for large positive x where erfc underflows.
double LogErfc(double x) {
  if (x < 25.0) {
    double v = std::erfc(x);
    if (v > 0.0) return std::log(v);
  }
  // Asymptotic expansion: erfc(x) ~ exp(-x²)/(x√π) · (1 - 1/(2x²) + ...).
  double x2 = x * x;
  return -x2 - std::log(x) - 0.5 * std::log(M_PI) +
         std::log1p(-1.0 / (2.0 * x2) + 3.0 / (4.0 * x2 * x2));
}

// log A(α) for integer α >= 2 (Mironov et al. 2019, eq. for integer
// orders): A = Σ_{i=0}^{α} C(α,i) (1-q)^{α-i} q^i exp(i(i-1)/(2σ²)).
// The binomial coefficient is carried incrementally —
// log C(α,i+1) = log C(α,i) + log(α-i) - log(i+1), every factor positive
// for integer α — making the sum O(α) instead of the O(α²) of
// recomputing LogAbsBinom per term. With α up to 1024 in the default
// order grid and ~80 bisection steps per calibration, that difference
// dominates the accountant's runtime.
double LogAInt(double q, double sigma, int alpha) {
  double log_a = kNegInf;
  double log_q = std::log(q);
  double log_1mq = std::log1p(-q);
  double log_coef = 0.0;  // log C(α, 0)
  for (int i = 0; i <= alpha; ++i) {
    double s = log_coef + i * log_q + (alpha - i) * log_1mq +
               (static_cast<double>(i) * (i - 1)) / (2.0 * sigma * sigma);
    log_a = LogAddExp(log_a, s);
    if (i < alpha) {
      log_coef += std::log(static_cast<double>(alpha - i)) -
                  std::log(static_cast<double>(i + 1));
    }
  }
  return log_a;
}

// log A(α) for fractional α > 1 via the two-sided series of Mironov et al.
// (the same series TF-Privacy's _compute_log_a_frac uses).
double LogAFrac(double q, double sigma, double alpha) {
  double log_a0 = kNegInf;
  double log_a1 = kNegInf;
  double z0 = sigma * sigma * std::log(1.0 / q - 1.0) + 0.5;
  double log_q = std::log(q);
  double log_1mq = std::log1p(-q);
  const double kSqrt2 = std::sqrt(2.0);
  // |binom(α, i)| carried incrementally (one log per term instead of the
  // O(i) product LogAbsBinom recomputes): log|C(α,i+1)| =
  // log|C(α,i)| + log|α-i| - log(i+1), sign flipping with (α-i). Keeps
  // the slow-converging large-q tail O(terms), not O(terms²).
  int sign = 1;
  double log_coef = 0.0;  // log |binom(α, 0)|
  int i = 0;
  for (;;) {
    double j = alpha - static_cast<double>(i);
    double log_t0 = log_coef + i * log_q + j * log_1mq;
    double log_t1 = log_coef + j * log_q + i * log_1mq;
    double log_e0 =
        std::log(0.5) + LogErfc((static_cast<double>(i) - z0) /
                                (kSqrt2 * sigma));
    double log_e1 = std::log(0.5) + LogErfc((z0 - j) / (kSqrt2 * sigma));
    double log_s0 = log_t0 +
                    (static_cast<double>(i) * (i - 1)) / (2.0 * sigma * sigma) +
                    log_e0;
    double log_s1 = log_t1 + (j * (j - 1.0)) / (2.0 * sigma * sigma) + log_e1;
    if (sign > 0) {
      log_a0 = LogAddExp(log_a0, log_s0);
      log_a1 = LogAddExp(log_a1, log_s1);
    } else {
      // The alternating tail is strictly dominated by the accumulated sum
      // once i > α, so the subtraction stays well-defined.
      log_a0 = LogSubExp(log_a0, log_s0);
      log_a1 = LogSubExp(log_a1, log_s1);
    }
    if (static_cast<double>(i) > alpha &&
        std::max(log_s0, log_s1) < -30.0 + std::max(log_a0, log_a1)) {
      break;
    }
    double f = alpha - static_cast<double>(i);
    if (f < 0.0) sign = -sign;
    log_coef += std::log(std::fabs(f)) - std::log(static_cast<double>(i + 1));
    ++i;
    // At large sampling rates (q ≳ 0.5, reachable with client subsampling
    // over tiny shards) the tail of this series decays only polynomially
    // and 10⁴ terms may not suffice. Declining to bound this order is
    // sound: the ε minimization simply skips it and the integer orders —
    // summed exactly by LogAInt — still provide finite valid bounds.
    if (i >= 10000) return std::numeric_limits<double>::infinity();
  }
  return LogAddExp(log_a0, log_a1);
}

}  // namespace

std::vector<double> DefaultRdpOrders() {
  std::vector<double> orders = {1.25, 1.5, 1.75, 2.0, 2.25, 2.5, 3.0,
                                3.5,  4.0, 4.5,  5.0, 6.0,  7.0, 8.0,
                                9.0,  10., 12.,  14., 16.,  20., 24.,
                                28.,  32., 48.,  64.};
  for (double o = 96.0; o <= 512.0; o *= 2.0) orders.push_back(o);
  orders.push_back(1024.0);
  return orders;
}

double RdpSampledGaussian(double q, double sigma, double order) {
  DPBR_CHECK_GT(sigma, 0.0);
  DPBR_CHECK_GT(order, 1.0);
  DPBR_CHECK_GE(q, 0.0);
  DPBR_CHECK_LE(q, 1.0);
  if (q == 0.0) return 0.0;
  if (q == 1.0) {
    // Plain Gaussian mechanism: RDP(α) = α / (2σ²) exactly.
    return order / (2.0 * sigma * sigma);
  }
  double log_a;
  double rounded = std::round(order);
  if (std::abs(order - rounded) < 1e-9 && rounded >= 2.0 && rounded < 1e6) {
    log_a = LogAInt(q, sigma, static_cast<int>(rounded));
  } else {
    log_a = LogAFrac(q, sigma, order);
  }
  return log_a / (order - 1.0);
}

std::vector<double> RdpSampledGaussian(double q, double sigma,
                                       const std::vector<double>& orders) {
  std::vector<double> rdp(orders.size());
  for (size_t i = 0; i < orders.size(); ++i) {
    rdp[i] = RdpSampledGaussian(q, sigma, orders[i]);
  }
  return rdp;
}

std::vector<double> ComposeRdp(const std::vector<double>& rdp_per_step,
                               int steps) {
  DPBR_CHECK_GE(steps, 0);
  std::vector<double> out(rdp_per_step.size());
  for (size_t i = 0; i < rdp_per_step.size(); ++i) {
    out[i] = rdp_per_step[i] * static_cast<double>(steps);
  }
  return out;
}

Result<EpsResult> RdpToEpsilon(const std::vector<double>& orders,
                               const std::vector<double>& rdp, double delta) {
  if (orders.size() != rdp.size() || orders.empty()) {
    return Status::InvalidArgument("orders/rdp size mismatch or empty");
  }
  if (!(delta > 0.0 && delta < 1.0)) {
    return Status::InvalidArgument("delta must lie in (0, 1)");
  }
  double best_eps = std::numeric_limits<double>::infinity();
  double best_order = orders[0];
  for (size_t i = 0; i < orders.size(); ++i) {
    double a = orders[i];
    if (a <= 1.0) continue;
    // CKS'20 conversion as implemented by TF-Privacy.
    double eps = rdp[i] + std::log((a - 1.0) / a) -
                 (std::log(delta) + std::log(a)) / (a - 1.0);
    if (eps < best_eps) {
      best_eps = eps;
      best_order = a;
    }
  }
  if (!std::isfinite(best_eps)) {
    return Status::Internal("no finite epsilon across provided orders");
  }
  EpsResult r;
  r.epsilon = std::max(0.0, best_eps);
  r.best_order = best_order;
  return r;
}

Result<double> ComputeEpsilon(double q, double sigma, int steps,
                              double delta) {
  if (!(q >= 0.0 && q <= 1.0)) {
    return Status::InvalidArgument("sampling rate q must lie in [0, 1]");
  }
  if (!(sigma > 0.0)) {
    return Status::InvalidArgument("noise multiplier must be positive");
  }
  if (steps < 0) return Status::InvalidArgument("steps must be >= 0");
  std::vector<double> orders = DefaultRdpOrders();
  std::vector<double> rdp = ComposeRdp(RdpSampledGaussian(q, sigma, orders),
                                       steps);
  DPBR_ASSIGN_OR_RETURN(EpsResult r, RdpToEpsilon(orders, rdp, delta));
  return r.epsilon;
}

Result<double> NoiseMultiplierFor(double q, int steps, double epsilon,
                                  double delta) {
  if (!(epsilon > 0.0)) {
    return Status::InvalidArgument("epsilon must be positive");
  }
  const double kLo = 0.2;
  const double kHi = 1048576.0;  // 2^20
  DPBR_ASSIGN_OR_RETURN(double eps_hi, ComputeEpsilon(q, kHi, steps, delta));
  if (eps_hi > epsilon) {
    return Status::OutOfRange(
        "target epsilon unachievable even with huge noise");
  }
  DPBR_ASSIGN_OR_RETURN(double eps_lo, ComputeEpsilon(q, kLo, steps, delta));
  if (eps_lo <= epsilon) return kLo;
  double lo = kLo, hi = kHi;
  // ε(σ) is strictly decreasing; 80 halvings of a 2^20 bracket give
  // ~1e-18 relative precision, far past float needs.
  for (int iter = 0; iter < 80; ++iter) {
    double mid = 0.5 * (lo + hi);
    DPBR_ASSIGN_OR_RETURN(double e, ComputeEpsilon(q, mid, steps, delta));
    if (e > epsilon) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return hi;
}

}  // namespace dp
}  // namespace dpbr
