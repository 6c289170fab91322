#include "core/second_stage.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "aggregators/aggregator.h"
#include "common/thread_pool.h"
#include "tensor/ops.h"

namespace dpbr {
namespace core {

Result<std::vector<size_t>> SecondStageAggregator::SelectWorkers(
    ConstRowSpan uploads, const std::vector<float>& server_gradient,
    double gamma, const std::vector<int>* client_ids) {
  size_t n = uploads.rows;
  if (n == 0) return Status::InvalidArgument("no uploads");
  if (server_gradient.empty()) {
    return Status::InvalidArgument("empty server gradient");
  }
  if (uploads.dim != server_gradient.size()) {
    return Status::InvalidArgument("upload/server gradient size mismatch");
  }
  // Lines 5-8: S_tmp[i] = ⟨g_i, g_s⟩. Each inner product is an
  // independent per-index reduction, so the scores are bit-identical
  // under any pool size.
  std::vector<double> scores(n);
  ParallelFor(0, n, [&](size_t i) {
    scores[i] = ops::Dot(uploads.Row(i), server_gradient.data(), uploads.dim);
  });
  return SelectFromScores(std::move(scores), gamma, client_ids);
}

Result<std::vector<size_t>> SecondStageAggregator::SelectFromScores(
    std::vector<double> scores, double gamma,
    const std::vector<int>* client_ids) {
  size_t n = scores.size();
  if (n == 0) return Status::InvalidArgument("no uploads");
  // A null `client_ids` means the ids are the positions 0..n-1.
  std::vector<int> positions;
  if (client_ids == nullptr) {
    positions.resize(n);
    std::iota(positions.begin(), positions.end(), 0);
    client_ids = &positions;
  }
  const std::vector<int>& ids = *client_ids;
  if (ids.size() != n) {
    return Status::InvalidArgument("client_ids size mismatch");
  }
  int max_id = 0;
  for (int id : ids) {
    if (id < 0) return Status::InvalidArgument("negative client id");
    max_id = std::max(max_id, id);
  }
  // Grow-only: a subsampled round only touches its cohort's slots.
  if (scores_.size() < static_cast<size_t>(max_id) + 1) {
    scores_.resize(static_cast<size_t>(max_id) + 1, 0.0);
  }
  last_scores_ = std::move(scores);
  const size_t k = agg::TrustedCount(gamma, n);

  // A round with a non-finite score adds nothing to S (see the header).
  if (std::all_of(last_scores_.begin(), last_scores_.end(),
                  [](double s) { return std::isfinite(s); })) {
    // Line 9: μ̂ = mean of the top ⌈γn⌉ round scores.
    std::vector<double> sorted = last_scores_;
    std::nth_element(sorted.begin(), sorted.begin() + (k - 1), sorted.end(),
                     std::greater<double>());
    double mu_hat = 0.0;
    // nth_element leaves the top-k block in the first k slots (unordered).
    for (size_t i = 0; i < k; ++i) mu_hat += sorted[i];
    mu_hat /= static_cast<double>(k);

    // Lines 10-13: suppress below-threshold scores, accumulate into S
    // under the row's stable id.
    for (size_t i = 0; i < n; ++i) {
      double s = last_scores_[i] < mu_hat ? 0.0 : last_scores_[i];
      scores_[ids[i]] += s;
    }
  }

  // Line 14: pick the top ⌈γn⌉ *cumulative* scores among this round's
  // rows (ties: lower position).
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](size_t a, size_t b) {
                     return scores_[ids[a]] > scores_[ids[b]];
                   });
  order.resize(k);
  std::sort(order.begin(), order.end());
  return order;
}

void SecondStageAggregator::Reset() {
  scores_.clear();
  last_scores_.clear();
}

}  // namespace core
}  // namespace dpbr
