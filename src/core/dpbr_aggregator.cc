#include "core/dpbr_aggregator.h"

#include <algorithm>

#include "common/logging.h"
#include "common/simd.h"
#include "common/thread_pool.h"
#include "durability/bytes.h"
#include "tensor/ops.h"

namespace dpbr {
namespace core {

DpbrAggregator::DpbrAggregator(const ProtocolOptions& options)
    : options_(options), first_stage_(options) {}

Result<std::vector<float>> DpbrAggregator::Aggregate(
    RowSpan uploads, const agg::AggregationContext& ctx) {
  DPBR_RETURN_NOT_OK(agg::ValidateUploads(uploads, ctx));
  size_t n = uploads.rows;
  diag_ = DpbrRoundDiagnostics{};

  // --- Stage 1 (Algorithm 2): statistical filtering. Rejected rows are
  // zeroed in place, exactly as FirstAGG outputs g ← 0 — no copy of the
  // arena is taken. The stage requires a known DP noise level; without DP
  // there is no reference distribution.
  const bool first = options_.enable_first_stage;
  if (first && ctx.sigma_upload <= 0.0) {
    return Status::FailedPrecondition(
        "first-stage aggregation requires DP noise (sigma_upload > 0); "
        "disable the stage explicitly for non-DP runs");
  }
  // --- Stage 2 (Algorithm 3): inner-product selection with cumulative
  // scores keyed on ctx.client_ids (on positions when null). Falls back
  // to "select everything that passed stage 1" when disabled
  // (first-stage-only ablation).
  const bool second = options_.enable_second_stage;
  const std::vector<float>* gs = ctx.server_gradient;
  if (second && gs == nullptr) {
    return Status::FailedPrecondition(
        "second-stage aggregation needs ctx.server_gradient");
  }
  if (second && gs->size() != uploads.dim) {
    return Status::InvalidArgument("upload/server gradient size mismatch");
  }
  // One pass: each item tests its row and zeroes it if rejected (stage
  // 1), then scores it (stage 2). A zeroed row's ⟨0, g_s⟩ is +0.0
  // whenever g_s is finite — each term (+0.0f)·g_i is ±0, and a
  // round-to-nearest sum that starts at +0.0 stays +0.0 — so only
  // accepted rows (and every row, if g_s holds an inf or NaN) pay for
  // the dot.
  const bool gs_finite =
      second && simd::Kernels().all_finite_f32(gs->data(), gs->size());
  std::vector<FirstStageVerdict> verdicts(n, FirstStageVerdict::kAccepted);
  std::vector<double> scores(second ? n : 0);
  ParallelFor(0, n, [&](size_t i) {
    float* row = uploads.Row(i);
    if (first) {
      verdicts[i] = first_stage_.ApplyRow(row, uploads.dim, ctx.sigma_upload);
    }
    if (second) {
      scores[i] = verdicts[i] != FirstStageVerdict::kAccepted && gs_finite
                      ? 0.0
                      : ops::Dot(row, gs->data(), uploads.dim);
    }
  });
  if (first) diag_.first_stage = FirstStageFilter::Tally(verdicts);
  std::vector<size_t> selected;
  if (second) {
    DPBR_ASSIGN_OR_RETURN(selected,
                          second_stage_.SelectFromScores(
                              std::move(scores), ctx.gamma, ctx.client_ids));
  } else {
    for (size_t i = 0; i < n; ++i) {
      if (verdicts[i] == FirstStageVerdict::kAccepted) selected.push_back(i);
    }
  }
  diag_.first_stage_passed.resize(n);
  for (size_t i = 0; i < n; ++i) {
    diag_.first_stage_passed[i] =
        verdicts[i] == FirstStageVerdict::kAccepted;
  }
  diag_.selected = selected;

  // Algorithm 1 line 14: w ← w − η·(1/n)·Σ_{g ∈ G_s} g, or the
  // η·n/|G_s|-reparameterized variant (see UpdateScale).
  std::vector<float> out(ctx.dim, 0.0f);
  // Blocked by coordinate with the selected uploads accumulated in fixed
  // order, so the sum is bit-identical under any pool size.
  ParallelForBlocked(ctx.dim, 4096, [&](size_t lo, size_t hi) {
    for (size_t idx : selected) {
      ops::Axpy(1.0f, uploads.Row(idx) + lo, out.data() + lo, hi - lo);
    }
  });
  double denom = options_.update_scale == UpdateScale::kOverTotal
                     ? static_cast<double>(n)
                     : static_cast<double>(std::max<size_t>(selected.size(),
                                                            1));
  ops::Scale(static_cast<float>(1.0 / denom), out.data(), ctx.dim);
  return out;
}

void DpbrAggregator::Reset() {
  second_stage_.Reset();
  diag_ = DpbrRoundDiagnostics{};
}

namespace {
// Version tag of the dpbr aggregator state blob (independent of the
// checkpoint container version).
constexpr uint32_t kDpbrStateVersion = 1;
}  // namespace

Status DpbrAggregator::SaveState(std::string* out) const {
  durability::ByteWriter w;
  w.PutU32(kDpbrStateVersion);
  w.PutDoubleVec(second_stage_.cumulative_scores());
  *out = w.Take();
  return Status::OK();
}

Status DpbrAggregator::RestoreState(const std::string& blob) {
  durability::ByteReader r(blob);
  uint32_t version = 0;
  DPBR_RETURN_NOT_OK(r.GetU32(&version));
  if (version != kDpbrStateVersion) {
    return Status::InvalidArgument(
        "dpbr aggregator state: unsupported version " +
        std::to_string(version));
  }
  std::vector<double> scores;
  DPBR_RETURN_NOT_OK(r.GetDoubleVec(&scores));
  if (!r.AtEnd()) {
    return Status::InvalidArgument(
        "dpbr aggregator state: trailing bytes");
  }
  second_stage_.RestoreScores(std::move(scores));
  diag_ = DpbrRoundDiagnostics{};
  return Status::OK();
}

}  // namespace core
}  // namespace dpbr
