#include "fl/server.h"

#include <algorithm>
#include <cstdint>
#include <memory>

#include "common/logging.h"
#include "common/simd.h"
#include "common/thread_pool.h"
#include "nn/loss.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"

namespace dpbr {
namespace fl {
namespace {

// Examples per partial sum of the auxiliary gradient fold: the fold
// order the run digests pin, fixed so that it is independent of the pool
// size.
constexpr size_t kExampleBlock = 64;

}  // namespace

Server::Server(std::shared_ptr<ComputeSlots> slots,
               agg::AggregatorPtr aggregator, data::DatasetView aux,
               uint64_t seed)
    : slots_(std::move(slots)), aggregator_(std::move(aggregator)),
      aux_(std::move(aux)) {
  DPBR_CHECK(slots_ != nullptr);
  DPBR_CHECK(aggregator_ != nullptr);
  SplitRng rng(seed, {0x5E4E4});
  params_ = slots_->InitParams(&rng);
}

Server::Server(nn::ModelFactory factory, agg::AggregatorPtr aggregator,
               data::DatasetView aux, uint64_t seed)
    : Server(std::make_shared<ComputeSlots>(std::move(factory)),
             std::move(aggregator), std::move(aux), seed) {}

Status Server::SetParams(std::vector<float> params) {
  if (params.size() != params_.size()) {
    return Status::InvalidArgument(
        "SetParams: got " + std::to_string(params.size()) +
        " parameters, model has " + std::to_string(params_.size()));
  }
  params_ = std::move(params);
  slots_->ParamsChanged();
  return Status::OK();
}

Status Server::Step(RowSpan uploads, double lr,
                    agg::AggregationContext ctx) {
  if (aggregator_->NeedsServerGradient() && ctx.server_gradient == nullptr) {
    return Status::FailedPrecondition(
        "aggregator needs a server gradient but the step was given none");
  }
  ctx.dim = params_.size();
  // Scan every row for non-finite values in parallel and neutralize
  // offenders in place (g ← 0, as the first-stage filter does): a single
  // NaN/Inf coordinate from a Byzantine client must poison neither the
  // aggregate nor the round. No copy is ever taken — the all-finite fast
  // path leaves the arena untouched. Dimension validation stays with the
  // aggregator's ValidateUploads.
  const simd::SimdKernels& kern = simd::Kernels();
  ParallelFor(0, uploads.rows, [&](size_t i) {
    float* row = uploads.Row(i);
    if (!kern.all_finite_f32(row, uploads.dim)) {
      std::fill(row, row + uploads.dim, 0.0f);
    }
  });
  DPBR_ASSIGN_OR_RETURN(std::vector<float> update,
                        aggregator_->Aggregate(uploads, ctx));
  if (update.size() != params_.size()) {
    return Status::Internal("aggregated update dimension mismatch");
  }
  ops::Axpy(static_cast<float>(-lr), update.data(), params_.data(),
            params_.size());
  slots_->ParamsChanged();
  return Status::OK();
}

void Server::AuxGradientRowInto(size_t i, float* row) {
  slots_->LoadedSlot(params_).ExampleGradient(aux_, i, row);
}

void Server::FoldAuxGradientInto(const float* rows, size_t lo, size_t hi,
                                 float* out) const {
  DPBR_CHECK(!aux_.empty());
  DPBR_CHECK(lo <= hi && hi <= params_.size());
  // The order the run digests pin, per coordinate: a zeroed partial per
  // 64-example block accumulates its rows in index order, and the
  // partials are added to a zeroed total in block order. Coordinates run
  // in chunks whose partial stays in L1.
  constexpr size_t kChunk = 512;
  const size_t dim = params_.size();
  const float inv_n = 1.0f / static_cast<float>(aux_.size());
  float partial[kChunk];
  for (size_t c = lo; c < hi; c += kChunk) {
    const size_t n = std::min(hi - c, kChunk);
    float* acc = out + c;
    std::fill(acc, acc + n, 0.0f);
    for (size_t b = 0; b < aux_.size(); b += kExampleBlock) {
      const size_t b_end = std::min(aux_.size(), b + kExampleBlock);
      std::fill(partial, partial + n, 0.0f);
      for (size_t j = b; j < b_end; ++j) {
        ops::Axpy(1.0f, rows + j * dim + c, partial, n);
      }
      ops::Axpy(1.0f, partial, acc, n);
    }
    ops::Scale(inv_n, acc, n);
  }
}

std::vector<float> Server::FoldAuxGradient(const float* rows) const {
  std::vector<float> acc(params_.size());
  FoldAuxGradientInto(rows, 0, acc.size(), acc.data());
  return acc;
}

Result<std::vector<float>> Server::ComputeServerGradient() {
  if (aux_.empty()) {
    return Status::FailedPrecondition(
        "aggregator needs a server gradient but no auxiliary data was "
        "provided");
  }
  slots_->Prepare();
  size_t dim = params_.size();
  std::vector<float> rows(aux_.size() * dim);
  ParallelFor(0, aux_.size(),
              [&](size_t i) { AuxGradientRowInto(i, rows.data() + i * dim); });
  return FoldAuxGradient(rows.data());
}

double Server::EvaluateAccuracy(const data::DatasetView& view) {
  DPBR_CHECK(!view.empty());
  slots_->Prepare();
  // Inference-only on the slot models, one item per example like the
  // round's example items. Hits land in disjoint entries and are counted
  // as integers: exact under any schedule.
  std::vector<uint8_t> hit(view.size(), 0);
  ParallelFor(0, view.size(), [&](size_t i) {
    Tensor logits = slots_->LoadedSlot(params_).Forward(view, i);
    hit[i] = static_cast<int>(nn::Argmax(logits.data(), logits.dim(1))) ==
             view.LabelAt(i);
  });
  size_t correct = 0;
  for (uint8_t h : hit) correct += h;
  return static_cast<double>(correct) / static_cast<double>(view.size());
}

}  // namespace fl
}  // namespace dpbr
