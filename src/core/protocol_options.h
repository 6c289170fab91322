// Configuration of the dpbr two-stage Byzantine-resilient aggregation.

#ifndef DPBR_CORE_PROTOCOL_OPTIONS_H_
#define DPBR_CORE_PROTOCOL_OPTIONS_H_

#include "common/status.h"

namespace dpbr {
namespace core {

/// How the selected-upload sum is scaled into a model update.
enum class UpdateScale {
  /// Paper Algorithm 1 line 14 verbatim: (1/n)·Σ_{g∈G_s} g. The effective
  /// step shrinks by the selection fraction γ, which long paper-scale
  /// training absorbs but short runs do not.
  kOverTotal,
  /// (1/|G_s|)·Σ_{g∈G_s} g. Since |G_s| = ⌈γn⌉ every round, this is the
  /// paper's rule under the constant learning-rate reparameterization
  /// η' = η·n/⌈γn⌉; it keeps the step size invariant to the Byzantine
  /// fraction. Default; bench_ablations compares both.
  kOverSelected,
};

/// Significance level of the first-stage KS test (paper: 0.05).
inline constexpr double kKsSignificance = 0.05;
/// Half-width of the first-stage norm window in units of std of ‖g‖²
/// (paper: 3, the 99.7% band).
inline constexpr double kNormWindowSigmas = 3.0;

/// Knobs of Algorithms 2 and 3. Defaults are the paper's settings.
struct ProtocolOptions {
  /// Ablation switches (paper §4.7 discusses why both stages are needed).
  bool enable_first_stage = true;
  bool enable_second_stage = true;
  UpdateScale update_scale = UpdateScale::kOverSelected;
};

/// Rejects options with both stages disabled.
Status ValidateProtocolOptions(const ProtocolOptions& options);

}  // namespace core
}  // namespace dpbr

#endif  // DPBR_CORE_PROTOCOL_OPTIONS_H_
