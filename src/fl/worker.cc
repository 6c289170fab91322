#include "fl/worker.h"

#include <algorithm>
#include <cstring>

#include "common/logging.h"
#include "nn/loss.h"
#include "tensor/ops.h"

namespace dpbr {
namespace fl {

HonestDpWorker::HonestDpWorker(int id, data::DatasetView shard,
                               nn::ModelFactory factory,
                               const WorkerOptions& options, uint64_t seed)
    : id_(id),
      shard_(std::move(shard)),
      model_(factory()),
      options_(options),
      seed_(seed) {
  DPBR_CHECK(!shard_.empty());
  DPBR_CHECK_GT(options_.batch_size, 0);
  DPBR_CHECK_GE(options_.beta, 0.0);
  DPBR_CHECK_LT(options_.beta, 1.0);
  dim_ = model_->NumParams();
  momentum_.assign(static_cast<size_t>(options_.batch_size),
                   std::vector<float>(dim_, 0.0f));
  per_example_grads_.assign(static_cast<size_t>(options_.batch_size) * dim_,
                            0.0f);
}

std::vector<float> HonestDpWorker::ComputeUpdate(
    const std::vector<float>& global_params, int round) {
  std::vector<float> upload(dim_);
  ComputeUpdateInto(global_params, round, upload.data());
  return upload;
}

void HonestDpWorker::ComputeUpdateInto(
    const std::vector<float>& global_params, int round, float* out) {
  DPBR_CHECK_EQ(global_params.size(), dim_);
  model_->SetParamsFrom(global_params.data());

  SplitRng rng(seed_, {0xF00, static_cast<uint64_t>(round)});
  size_t bc = static_cast<size_t>(options_.batch_size);

  // Line 5: sample a size-bc mini-batch (without replacement when the
  // shard allows; tiny shards fall back to with-replacement draws).
  std::vector<size_t> batch;
  if (shard_.size() >= bc) {
    batch = rng.SampleWithoutReplacement(shard_.size(), bc);
  } else {
    batch.resize(bc);
    for (auto& b : batch) b = rng.UniformInt(shard_.size());
  }

  // Lines 6-9: per-example gradients, computed as one microbatch through
  // the batched kernels — a single forward/backward invocation per layer
  // with each example's flat gradient landing in its own row of
  // per_example_grads_ — then folded into the per-slot momentum list.
  const data::Dataset* base = shard_.base();
  size_t feature_dim = base->feature_dim();
  std::vector<size_t> batch_shape;
  batch_shape.push_back(bc);
  for (size_t d : base->example_shape()) batch_shape.push_back(d);
  Tensor x(std::move(batch_shape));
  std::vector<size_t> labels(bc);
  for (size_t j = 0; j < bc; ++j) {
    std::memcpy(x.data() + j * feature_dim, shard_.FeaturesAt(batch[j]),
                feature_dim * sizeof(float));
    labels[j] = static_cast<size_t>(shard_.LabelAt(batch[j]));
  }
  Tensor logits = model_->ForwardBatch(x);
  nn::BatchLossGrad lg = nn::SoftmaxCrossEntropyBatch(logits, labels);
  model_->BackwardBatchTo(lg.grad_logits, bc, per_example_grads_.data());

  double one_minus_beta = 1.0 - options_.beta;
  for (size_t j = 0; j < bc; ++j) {
    const float* g = per_example_grads_.data() + j * dim_;
    std::vector<float>& phi = momentum_[j];
    float b = static_cast<float>(options_.beta);
    float omb = static_cast<float>(one_minus_beta);
    for (size_t k = 0; k < dim_; ++k) {
      phi[k] = omb * g[k] + b * phi[k];
    }
  }

  // Line 10: sum of normalized slots, perturbed, averaged — accumulated
  // directly into the caller's row (no per-upload allocation).
  std::fill(out, out + dim_, 0.0f);
  std::vector<float> unit(dim_);
  for (size_t j = 0; j < bc; ++j) {
    unit = momentum_[j];
    ops::NormalizeInPlace(unit.data(), dim_);
    ops::Axpy(1.0f, unit.data(), out, dim_);
  }
  if (options_.sigma > 0.0) {
    // Bulk perturbation (~d draws per round): the blocked sampler is both
    // the hot-path win and pool-size invariant, so the upload stream does
    // not depend on how the trainer schedules workers.
    rng.AddGaussian(out, dim_, options_.sigma);
  }
  ops::Scale(1.0f / static_cast<float>(bc), out, dim_);

  // Line 11: momentum handling after upload (see MomentumReset).
  if (options_.momentum_reset == MomentumReset::kResetToUpload) {
    for (size_t j = 0; j < bc; ++j) {
      momentum_[j].assign(out, out + dim_);
    }
  }
}

Status HonestDpWorker::RestoreMomentum(
    const std::vector<std::vector<float>>& momentum) {
  if (momentum.size() != momentum_.size()) {
    return Status::InvalidArgument(
        "momentum restore: snapshot has " +
        std::to_string(momentum.size()) + " slots, worker expects " +
        std::to_string(momentum_.size()));
  }
  for (const auto& slot : momentum) {
    if (slot.size() != dim_) {
      return Status::InvalidArgument(
          "momentum restore: slot dimension " +
          std::to_string(slot.size()) + " != model dimension " +
          std::to_string(dim_));
    }
  }
  momentum_ = momentum;
  return Status::OK();
}

}  // namespace fl
}  // namespace dpbr
