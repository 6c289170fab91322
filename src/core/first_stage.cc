#include "core/first_stage.h"

#include <algorithm>
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

FirstStageFilter::FirstStageFilter(const ProtocolOptions& options) {
  DPBR_CHECK_OK(ValidateProtocolOptions(options));
}

std::pair<double, double> FirstStageFilter::NormWindow(
    size_t d, double sigma_upload) const {
  // ‖g‖²/σ² ~ χ²_d ≈ N(d, 2d); the window spans ±kNormWindowSigmas
  // standard deviations (paper: 3 → the 68-95-99.7 rule).
  double dd = static_cast<double>(d);
  double s2 = sigma_upload * sigma_upload;
  double half = kNormWindowSigmas * s2 * std::sqrt(2.0 * dd);
  double lo = s2 * dd - half;
  double hi = s2 * dd + half;
  return {std::max(lo, 0.0), hi};
}

FirstStageVerdict FirstStageFilter::Test(const float* upload, size_t d,
                                         double sigma_upload) const {
  DPBR_CHECK_GT(sigma_upload, 0.0);
  DPBR_CHECK_GT(d, 0u);
  auto [lo, hi] = NormWindow(d, sigma_upload);
  // The chained sum decides unless it is not finite or lies within its
  // tolerance of a window edge; then the sequential sum the verdict is
  // defined on decides.
  double sq = ops::ChainedSquaredNorm(upload, d);
  double tol = ops::ChainedSquaredNormTolerance(sq, d);
  bool near_edge = std::abs(sq - lo) <= tol || std::abs(sq - hi) <= tol;
  if (!std::isfinite(sq) || near_edge) sq = ops::SquaredNorm(upload, d);
  if (!(sq >= lo && sq <= hi)) return FirstStageVerdict::kRejectedNorm;
  if (!stats::KsGaussianAccepts(upload, d, sigma_upload,
                                kKsSignificance)) {
    return FirstStageVerdict::kRejectedKs;
  }
  return FirstStageVerdict::kAccepted;
}

FirstStageVerdict FirstStageFilter::ApplyRow(float* row, size_t d,
                                             double sigma_upload) const {
  FirstStageVerdict v = Test(row, d, sigma_upload);
  // Algorithm 2: g ← 0.
  if (v != FirstStageVerdict::kAccepted) std::fill(row, row + d, 0.0f);
  return v;
}

std::vector<FirstStageVerdict> FirstStageFilter::Apply(
    RowSpan uploads, double sigma_upload, FirstStageReport* report) const {
  std::vector<FirstStageVerdict> verdicts(uploads.rows);
  // Each row's test (the per-round validation hot path) is independent;
  // the report tallies are folded afterwards in index order.
  ParallelFor(0, uploads.rows, [&](size_t i) {
    verdicts[i] = ApplyRow(uploads.Row(i), uploads.dim, sigma_upload);
  });
  if (report != nullptr) *report = Tally(verdicts);
  return verdicts;
}

FirstStageReport FirstStageFilter::Tally(
    const std::vector<FirstStageVerdict>& verdicts) {
  FirstStageReport rep;
  rep.total = verdicts.size();
  for (FirstStageVerdict v : verdicts) {
    switch (v) {
      case FirstStageVerdict::kAccepted:
        ++rep.accepted;
        break;
      case FirstStageVerdict::kRejectedNorm:
        ++rep.rejected_norm;
        break;
      case FirstStageVerdict::kRejectedKs:
        ++rep.rejected_ks;
        break;
    }
  }
  return rep;
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
  return stats::KsCriticalValue(d, kKsSignificance);
}

}  // namespace core
}  // namespace dpbr
