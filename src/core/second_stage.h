// Second-stage aggregation (paper Algorithm 3 lines 4-14).
//
// The server scores each upload by its inner product with the gradient of
// its tiny auxiliary dataset (E⟨∇F, g̃⟩ > 0 for benign uploads by Eq. 7,
// ≤ 0 for the considered attacks), thresholds at the mean of the top ⌈γn⌉
// scores, accumulates surviving scores in a persistent per-worker list S,
// and selects the uploads with the top ⌈γn⌉ cumulative scores. Selection
// weights are binary by design (paper §4.5 "Novelties").
//
// Each score is one sequential ops::Dot (its bits rank the workers).
// SelectWorkers computes them itself; SelectFromScores takes them from a
// caller that already holds them: the dpbr aggregator scores each row in
// its first-stage item, and a row the first stage zeroed scores +0.0
// without a dot when g_s is finite (the dot's exact value).
//
// Non-finite rounds. A round score is NaN or ±inf only when g_s or an
// upload holds a non-finite value (the server zeroes non-finite uploads,
// so in a run that means g_s). Such a round adds nothing to S: μ̂ and the
// accumulation are skipped, so no NaN ever enters S, nth_element or the
// sort, and the round selects on S as it stands. last_round_scores()
// still reports the round's scores.

#ifndef DPBR_CORE_SECOND_STAGE_H_
#define DPBR_CORE_SECOND_STAGE_H_

#include <vector>

#include "common/span.h"
#include "common/status.h"

namespace dpbr {
namespace core {

class SecondStageAggregator {
 public:
  SecondStageAggregator() = default;

  /// Runs one round of Algorithm 3 lines 5-14 and returns the *positions
  /// within the span* of the selected uploads G_s (size ⌈γn⌉).
  ///
  /// The cumulative score list S persists across rounds and is keyed on
  /// `client_ids` (one stable global id per row, as set by the trainer),
  /// so scores survive changing per-round cohorts; S grows to the
  /// largest id seen. A null `client_ids` means the ids are the span
  /// positions 0..n-1.
  Result<std::vector<size_t>> SelectWorkers(
      ConstRowSpan uploads, const std::vector<float>& server_gradient,
      double gamma, const std::vector<int>* client_ids = nullptr);

  /// Lines 9-14 from the round's scores S_tmp[i] = ⟨g_i, g_s⟩, computed
  /// by the caller (one per row, bitwise the ops::Dot SelectWorkers
  /// takes): SelectWorkers is its scores, then this. Same ids contract.
  Result<std::vector<size_t>> SelectFromScores(
      std::vector<double> scores, double gamma,
      const std::vector<int>* client_ids = nullptr);

  /// Cumulative score list S, indexed by client id. Empty before the
  /// first round.
  const std::vector<double>& cumulative_scores() const { return scores_; }

  /// Per-round scores ⟨g_i, g_s⟩ from the last SelectWorkers or
  /// SelectFromScores call (pre-thresholding, indexed by span position),
  /// for diagnostics.
  const std::vector<double>& last_round_scores() const {
    return last_scores_;
  }

  /// Replaces the cumulative score list S with a snapshotted one
  /// (checkpoint restore; the grow-to-largest-id sizing continues from
  /// the restored length). Diagnostics from the last round are cleared.
  void RestoreScores(std::vector<double> scores) {
    scores_ = std::move(scores);
    last_scores_.clear();
  }

  /// Clears all cross-round state.
  void Reset();

 private:
  std::vector<double> scores_;       // S, indexed by client id
  std::vector<double> last_scores_;  // S_tmp before thresholding
};

}  // namespace core
}  // namespace dpbr

#endif  // DPBR_CORE_SECOND_STAGE_H_
