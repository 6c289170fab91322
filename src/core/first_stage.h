// First-stage aggregation (paper Algorithm 2, FirstAGG).
//
// Honest uploads under the dpbr DP protocol are statistically dominated by
// Gaussian noise: g = g̃ + z with ‖z‖ ≫ ‖g̃‖ and z ~ N(0, σ_up²·I) per
// coordinate. The filter therefore rejects (zeroes) any upload that fails
//   (a) the norm test  : ‖g‖² ∈ σ_up²·(d ± 3√(2d))   (chi-squared CLT)
//   (b) the KS test    : coordinates vs N(0, σ_up²) at significance 0.05.
// Theorem 2: surviving uploads are confined per sorted coordinate to the
// KS envelope, which EnvelopeInterval exposes.
//
// The round reads only the verdict, so the filter computes nothing else:
// the norm test runs first (from ops::ChainedSquaredNorm, the multi-chain
// sum of squares the worker's ops::InverseNorm also brackets, recomputed
// sequentially only within its tolerance of a window edge), and only
// rows that pass it reach the KS test, through stats::KsGaussianAccepts.
// Every verdict is bitwise the one the sequential ops::SquaredNorm and
// the sorted stats::KsTestGaussian give. ApplyRow is one row's test and
// zeroing, so the dpbr aggregator can run it in the same per-row item
// as the row's second-stage score (one pass over the uploads per round).

#ifndef DPBR_CORE_FIRST_STAGE_H_
#define DPBR_CORE_FIRST_STAGE_H_

#include <utility>
#include <vector>

#include "common/span.h"
#include "core/protocol_options.h"

namespace dpbr {
namespace core {

/// Outcome of testing one upload. The KS test runs only on uploads that
/// pass the norm test, so kRejectedKs implies the norm test passed.
enum class FirstStageVerdict { kAccepted, kRejectedNorm, kRejectedKs };

/// Per-round aggregate counters.
struct FirstStageReport {
  size_t total = 0;
  size_t rejected_norm = 0;
  size_t rejected_ks = 0;
  size_t accepted = 0;
};

class FirstStageFilter {
 public:
  /// The test constants are kKsSignificance and kNormWindowSigmas;
  /// `options` is only validated.
  explicit FirstStageFilter(const ProtocolOptions& options);

  /// The norm-test acceptance window on ‖g‖² for dimension d.
  std::pair<double, double> NormWindow(size_t d, double sigma_upload) const;

  /// Tests a single upload (d coordinates) without modifying it: the
  /// norm test first, then the KS test only if the norm test passed.
  FirstStageVerdict Test(const float* upload, size_t d,
                         double sigma_upload) const;

  /// Test on one row of d coordinates, zeroing it (g ← 0) unless it is
  /// accepted: Apply's work for one row, for a caller that runs it in
  /// its own pass (the dpbr aggregator scores the row in the same item).
  FirstStageVerdict ApplyRow(float* row, size_t d, double sigma_upload) const;

  /// Algorithm 2 applied to every row of the upload arena: rejected rows
  /// are zeroed in place (g ← 0). Returns per-row verdicts; `report`
  /// (optional) receives the aggregate counters.
  std::vector<FirstStageVerdict> Apply(
      RowSpan uploads, double sigma_upload,
      FirstStageReport* report = nullptr) const;

  /// The aggregate counters of a round's verdicts.
  static FirstStageReport Tally(const std::vector<FirstStageVerdict>& verdicts);

  /// Theorem 2: the closed interval the k-th smallest coordinate (k in
  /// [1, d]) must occupy to pass the KS test with statistic bound d_ks.
  /// Unbounded ends are returned as ±infinity.
  static std::pair<double, double> EnvelopeInterval(size_t k, size_t d,
                                                    double d_ks,
                                                    double sigma_upload);

  /// The KS statistic bound implied by (d, kKsSignificance): the critical
  /// value D such that p-value(D) == kKsSignificance.
  double KsStatisticBound(size_t d) const;
};

}  // namespace core
}  // namespace dpbr

#endif  // DPBR_CORE_FIRST_STAGE_H_
