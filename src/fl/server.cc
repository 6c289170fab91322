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

// Examples per task for the parallel inference loops; fixed so that any
// blocked reduction order is independent of the pool size.
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
}

Status Server::SetParams(std::vector<float> params) {
  if (params.size() != params_.size()) {
    return Status::InvalidArgument(
        "SetParams: got " + std::to_string(params.size()) +
        " parameters, model has " + std::to_string(params_.size()));
  }
  params_ = std::move(params);
  return Status::OK();
}

Status Server::Step(RowSpan uploads, double lr,
                    agg::AggregationContext ctx) {
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
  std::vector<float> server_grad;
  if (aggregator_->NeedsServerGradient()) {
    DPBR_ASSIGN_OR_RETURN(server_grad, ComputeServerGradient());
    ctx.server_gradient = &server_grad;
  }
  DPBR_ASSIGN_OR_RETURN(std::vector<float> update,
                        aggregator_->Aggregate(uploads, ctx));
  if (update.size() != params_.size()) {
    return Status::Internal("aggregated update dimension mismatch");
  }
  ops::Axpy(static_cast<float>(-lr), update.data(), params_.data(),
            params_.size());
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

Result<std::vector<float>> Server::ComputeServerGradient() {
  if (aux_.empty()) {
    return Status::FailedPrecondition(
        "aggregator needs a server gradient but no auxiliary data was "
        "provided");
  }
  // Per-example gradients share no state across blocks: each block runs a
  // private model clone and accumulates its examples in index order; the
  // per-block partials then fold in block order, so the result depends
  // only on kExampleBlock, never on the pool size.
  size_t dim = params_.size();
  size_t num_blocks = (aux_.size() + kExampleBlock - 1) / kExampleBlock;
  // Every per-block accumulator is sized (and zeroed) before the
  // dispatch so the bodies never allocate into the shared outer vector.
  std::vector<std::vector<float>> partial(num_blocks,
                                          std::vector<float>(dim, 0.0f));
  ParallelForBlocked(aux_.size(), kExampleBlock, [&](size_t lo, size_t hi) {
    std::unique_ptr<nn::Sequential> model = factory_();
    model->SetParamsFrom(params_.data());
    std::vector<float>& acc = partial[lo / kExampleBlock];
    // One batched forward/backward per block; per-example rows are then
    // folded in index order, so the sum depends only on the block split.
    size_t n = hi - lo;
    Tensor x = BatchOf(aux_, lo, hi);
    std::vector<size_t> labels(n);
    for (size_t i = lo; i < hi; ++i) {
      labels[i - lo] = static_cast<size_t>(aux_.LabelAt(i));
    }
    Tensor logits = model->ForwardBatch(x);
    nn::BatchLossGrad lg = nn::SoftmaxCrossEntropyBatch(logits, labels);
    // The vector constructor already zero-fills, so call BackwardBatch
    // directly rather than BackwardBatchTo (which would memset again).
    std::vector<float> grads(n * dim);
    model->BackwardBatch(lg.grad_logits, {grads.data(), dim, 0});
    for (size_t j = 0; j < n; ++j) {
      ops::Axpy(1.0f, grads.data() + j * dim, acc.data(), dim);
    }
  });
  std::vector<float> acc(dim, 0.0f);
  for (const auto& p : partial) ops::Axpy(1.0f, p.data(), acc.data(), dim);
  ops::Scale(1.0f / static_cast<float>(aux_.size()), acc.data(), dim);
  return acc;
}

double Server::EvaluateAccuracy(const data::DatasetView& view) {
  DPBR_CHECK(!view.empty());
  // Inference-only; each block gets a private model clone and per-example
  // hits land in disjoint slots (integer counting — exact under any
  // schedule).
  std::vector<uint8_t> hit(view.size(), 0);
  ParallelForBlocked(view.size(), kExampleBlock, [&](size_t lo, size_t hi) {
    std::unique_ptr<nn::Sequential> model = factory_();
    model->SetParamsFrom(params_.data());
    Tensor logits = model->ForwardBatch(BatchOf(view, lo, hi));
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
