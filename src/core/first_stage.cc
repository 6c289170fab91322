#include "core/first_stage.h"

#include <cmath>
#include <limits>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "stats/distributions.h"
#include "stats/kolmogorov.h"
#include "stats/ks_test.h"
#include "tensor/ops.h"

namespace dpbr {
namespace core {

FirstStageFilter::FirstStageFilter(const ProtocolOptions& options)
    : options_(options) {
  DPBR_CHECK_OK(ValidateProtocolOptions(options));
}

std::pair<double, double> FirstStageFilter::NormWindow(
    size_t d, double sigma_upload) const {
  // ‖g‖²/σ² ~ χ²_d ≈ N(d, 2d); the window spans ±norm_window_sigmas
  // standard deviations (paper: 3 → the 68-95-99.7 rule).
  double dd = static_cast<double>(d);
  double s2 = sigma_upload * sigma_upload;
  double half = options_.norm_window_sigmas * s2 * std::sqrt(2.0 * dd);
  double lo = s2 * dd - half;
  double hi = s2 * dd + half;
  return {std::max(lo, 0.0), hi};
}

FirstStageVerdict FirstStageFilter::Test(const float* upload, size_t d,
                                         double sigma_upload) const {
  DPBR_CHECK_GT(sigma_upload, 0.0);
  DPBR_CHECK_GT(d, 0u);
  FirstStageVerdict v;
  double sq = ops::SquaredNorm(upload, d);
  v.norm = std::sqrt(sq);
  auto [lo, hi] = NormWindow(d, sigma_upload);
  v.passed_norm = (sq >= lo && sq <= hi);

  // The KS test is the costlier check; Algorithm 2 applies both, and we
  // keep the p-value for diagnostics even when the norm test already
  // failed.
  stats::KsResult ks = stats::KsTestGaussian(upload, d, sigma_upload);
  v.ks_p_value = ks.p_value;
  v.passed_ks = ks.p_value >= options_.ks_significance;
  return v;
}

std::vector<FirstStageVerdict> FirstStageFilter::Apply(
    RowSpan uploads, double sigma_upload, FirstStageReport* report) const {
  std::vector<FirstStageVerdict> verdicts(uploads.rows);
  FirstStageReport rep;
  rep.total = uploads.rows;
  // Each row's norm + KS test (the per-round validation hot path) is
  // independent; the report tallies are folded afterwards in index order.
  ParallelFor(0, uploads.rows, [&](size_t i) {
    float* row = uploads.Row(i);
    verdicts[i] = Test(row, uploads.dim, sigma_upload);
    if (!verdicts[i].accepted()) {
      // Algorithm 2: g ← 0.
      std::fill(row, row + uploads.dim, 0.0f);
    }
  });
  for (size_t i = 0; i < uploads.rows; ++i) {
    if (!verdicts[i].accepted()) {
      if (!verdicts[i].passed_norm) {
        ++rep.rejected_norm;
      } else {
        ++rep.rejected_ks;
      }
    } else {
      ++rep.accepted;
    }
  }
  if (report != nullptr) *report = rep;
  return verdicts;
}

std::pair<double, double> FirstStageFilter::EnvelopeInterval(
    size_t k, size_t d, double d_ks, double sigma_upload) {
  DPBR_CHECK_GE(k, 1u);
  DPBR_CHECK_LE(k, d);
  DPBR_CHECK_GT(sigma_upload, 0.0);
  double inf = std::numeric_limits<double>::infinity();
  // Lower end: x must satisfy E_u(x) >= k/d, i.e. Φ(x/σ) >= k/d − D.
  double p_lo = static_cast<double>(k) / static_cast<double>(d) - d_ks;
  double lo = (p_lo <= 0.0)
                  ? -inf
                  : (p_lo >= 1.0 ? inf
                                 : sigma_upload * stats::NormalQuantile(p_lo));
  // Upper end: x must satisfy E_l(x) <= (k-1)/d, i.e. Φ(x/σ) <=
  // (k-1)/d + D.
  double p_hi =
      static_cast<double>(k - 1) / static_cast<double>(d) + d_ks;
  double hi = (p_hi >= 1.0)
                  ? inf
                  : (p_hi <= 0.0 ? -inf
                                 : sigma_upload * stats::NormalQuantile(p_hi));
  return {lo, hi};
}

double FirstStageFilter::KsStatisticBound(size_t d) const {
  return stats::KsCriticalValue(d, options_.ks_significance);
}

}  // namespace core
}  // namespace dpbr
