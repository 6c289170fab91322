// The full dpbr Byzantine-resilient aggregation rule: first-stage
// statistical filtering (Algorithm 2) composed with second-stage
// inner-product selection (Algorithm 3), pluggable into the FL trainer
// through the standard Aggregator interface.

#ifndef DPBR_CORE_DPBR_AGGREGATOR_H_
#define DPBR_CORE_DPBR_AGGREGATOR_H_

#include <string>
#include <vector>

#include "aggregators/aggregator.h"
#include "core/first_stage.h"
#include "core/protocol_options.h"
#include "core/second_stage.h"

namespace dpbr {
namespace core {

/// Per-round diagnostics for benches and tests (ground-truth-free; callers
/// correlate indices with their own worker layout).
struct DpbrRoundDiagnostics {
  FirstStageReport first_stage;
  std::vector<size_t> selected;          ///< G_s indices (second stage)
  std::vector<bool> first_stage_passed;  ///< per upload
};

class DpbrAggregator : public agg::Aggregator {
 public:
  explicit DpbrAggregator(const ProtocolOptions& options = {});

  std::string name() const override { return "dpbr_two_stage"; }
  bool NeedsServerGradient() const override {
    return options_.enable_second_stage;
  }

  /// Runs both stages and returns (1/n)·Σ_{g ∈ G_s} g — note the division
  /// by the *total* worker count n, exactly Algorithm 1 line 14.
  /// First-stage rejection zeroes rows of `uploads` in place (the arena
  /// rows are rewritten by the workers next round; a caller that needs
  /// its rows afterwards aggregates a copy). One dispatch tests and
  /// zeroes each row (stage 1 on) and scores it (stage 2 on); the
  /// verdicts, scores and selection are bitwise those of
  /// FirstStageFilter::Apply followed by
  /// SecondStageAggregator::SelectWorkers. Every precondition (σ_up for
  /// stage 1; a g_s of `uploads.dim` floats for stage 2) is checked
  /// before any row is touched.
  Result<std::vector<float>> Aggregate(
      RowSpan uploads, const agg::AggregationContext& ctx) override;

  void Reset() override;

  /// Cross-round state = the second stage's cumulative score list S,
  /// encoded as a versioned double vector.
  Status SaveState(std::string* out) const override;
  Status RestoreState(const std::string& blob) override;

  const DpbrRoundDiagnostics& last_round() const { return diag_; }
  const SecondStageAggregator& second_stage() const { return second_stage_; }
  const ProtocolOptions& options() const { return options_; }

 private:
  ProtocolOptions options_;
  FirstStageFilter first_stage_;
  SecondStageAggregator second_stage_;
  DpbrRoundDiagnostics diag_;
};

}  // namespace core
}  // namespace dpbr

#endif  // DPBR_CORE_DPBR_AGGREGATOR_H_
