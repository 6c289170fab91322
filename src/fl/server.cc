#include "fl/server.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>

#include "common/logging.h"
#include "common/simd.h"
#include "common/thread_pool.h"
#include "nn/loss.h"
#include "tensor/ops.h"

namespace dpbr {
namespace fl {
namespace {

// Examples per evaluation task, and per partial sum of the auxiliary
// gradient fold; fixed so that every reduction order is independent of
// the pool size.
constexpr size_t kExampleBlock = 64;

// Copies examples [lo, hi) of `view` into one (hi-lo, example_shape...)
// microbatch tensor for the batched kernels.
Tensor BatchOf(const data::DatasetView& view, size_t lo, size_t hi) {
  const data::Dataset* base = view.base();
  size_t feature_dim = base->feature_dim();
  std::vector<size_t> shape;
  shape.push_back(hi - lo);
  for (size_t d : base->example_shape()) shape.push_back(d);
  Tensor x(std::move(shape));
  for (size_t i = lo; i < hi; ++i) {
    std::memcpy(x.data() + (i - lo) * feature_dim, view.FeaturesAt(i),
                feature_dim * sizeof(float));
  }
  return x;
}

}  // namespace

Server::Server(nn::ModelFactory factory, agg::AggregatorPtr aggregator,
               data::DatasetView aux, uint64_t seed)
    : factory_(std::move(factory)), aggregator_(std::move(aggregator)),
      aux_(std::move(aux)) {
  DPBR_CHECK(aggregator_ != nullptr);
  SplitRng rng(seed, {0x5E4E4});
  std::unique_ptr<nn::Sequential> model = factory_();
  model->InitParams(&rng);
  params_ = model->FlatParams();
  // The initializing model already holds params_: it becomes slot 0.
  AddSlot(std::move(model));
  slots_.back().params_version = params_version_;
  PrepareSlots();
}

void Server::AddSlot(std::unique_ptr<nn::Sequential> model) {
  Slot s;
  s.model = std::move(model);
  if (!aux_.empty()) {
    std::vector<size_t> shape = {1};
    for (size_t d : aux_.base()->example_shape()) shape.push_back(d);
    s.x = Tensor(std::move(shape));
  }
  s.label.assign(1, 0);
  slots_.push_back(std::move(s));
}

void Server::PrepareSlots() {
  while (slots_.size() < ThreadSlotCount()) AddSlot(factory_());
}

Server::Slot& Server::SyncedSlot() {
  size_t slot = ThisThreadSlot();
  DPBR_CHECK_LT(slot, slots_.size());
  Slot& s = slots_[slot];
  if (s.params_version != params_version_) {
    s.model->SetParamsFrom(params_.data());
    s.params_version = params_version_;
  }
  return s;
}

Status Server::SetParams(std::vector<float> params) {
  if (params.size() != params_.size()) {
    return Status::InvalidArgument(
        "SetParams: got " + std::to_string(params.size()) +
        " parameters, model has " + std::to_string(params_.size()));
  }
  params_ = std::move(params);
  ++params_version_;
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
  ++params_version_;
  return Status::OK();
}

Status Server::Step(const std::vector<std::vector<float>>& uploads, double lr,
                    agg::AggregationContext ctx) {
  // Pack into one scratch block (the only copy on this legacy path) so
  // the in-place sanitize/reject semantics never touch the caller's
  // vectors.
  size_t dim = params_.size();
  for (const auto& u : uploads) {
    if (u.size() != dim) {
      return Status::InvalidArgument("upload dimension mismatch");
    }
  }
  std::vector<float> packed(uploads.size() * dim);
  for (size_t i = 0; i < uploads.size(); ++i) {
    std::memcpy(packed.data() + i * dim, uploads[i].data(),
                dim * sizeof(float));
  }
  return Step(RowSpan(packed.data(), uploads.size(), dim), lr, ctx);
}

void Server::AuxGradientRowInto(size_t i, float* row) {
  Slot& s = SyncedSlot();
  std::memcpy(s.x.data(), aux_.FeaturesAt(i),
              aux_.base()->feature_dim() * sizeof(float));
  s.label[0] = static_cast<size_t>(aux_.LabelAt(i));
  Tensor logits = s.model->ForwardBatch(s.x);
  nn::BatchLossGrad lg = nn::SoftmaxCrossEntropyBatch(logits, s.label);
  s.model->BackwardBatchTo(lg.grad_logits, 1, row);
}

std::vector<float> Server::FoldAuxGradient(const float* rows) const {
  DPBR_CHECK(!aux_.empty());
  // The order the run digests pin: a zeroed partial per 64-example
  // block accumulates its rows in index order, and the partials are
  // added to a zeroed total in block order.
  size_t dim = params_.size();
  std::vector<float> acc(dim, 0.0f);
  std::vector<float> partial(dim);
  for (size_t lo = 0; lo < aux_.size(); lo += kExampleBlock) {
    size_t hi = std::min(aux_.size(), lo + kExampleBlock);
    std::fill(partial.begin(), partial.end(), 0.0f);
    for (size_t j = lo; j < hi; ++j) {
      ops::Axpy(1.0f, rows + j * dim, partial.data(), dim);
    }
    ops::Axpy(1.0f, partial.data(), acc.data(), dim);
  }
  ops::Scale(1.0f / static_cast<float>(aux_.size()), acc.data(), dim);
  return acc;
}

Result<std::vector<float>> Server::ComputeServerGradient() {
  if (aux_.empty()) {
    return Status::FailedPrecondition(
        "aggregator needs a server gradient but no auxiliary data was "
        "provided");
  }
  PrepareSlots();
  size_t dim = params_.size();
  std::vector<float> rows(aux_.size() * dim);
  ParallelFor(0, aux_.size(),
              [&](size_t i) { AuxGradientRowInto(i, rows.data() + i * dim); });
  return FoldAuxGradient(rows.data());
}

double Server::EvaluateAccuracy(const data::DatasetView& view) {
  DPBR_CHECK(!view.empty());
  PrepareSlots();
  // Inference-only on the slot models; per-example hits land in
  // disjoint slots (integer counting — exact under any schedule).
  std::vector<uint8_t> hit(view.size(), 0);
  ParallelForBlocked(view.size(), kExampleBlock, [&](size_t lo, size_t hi) {
    Tensor logits = SyncedSlot().model->ForwardBatch(BatchOf(view, lo, hi));
    size_t classes = logits.dim(1);
    for (size_t i = lo; i < hi; ++i) {
      const float* row = logits.data() + (i - lo) * classes;
      hit[i] = static_cast<int>(nn::Argmax(row, classes)) == view.LabelAt(i);
    }
  });
  size_t correct = 0;
  for (uint8_t h : hit) correct += h;
  return static_cast<double>(correct) / static_cast<double>(view.size());
}

}  // namespace fl
}  // namespace dpbr
