#include "fl/worker.h"

#include <algorithm>

#include "common/logging.h"
#include "tensor/ops.h"

namespace dpbr {
namespace fl {

HonestDpWorker::HonestDpWorker(int id, data::DatasetView shard,
                               std::shared_ptr<ComputeSlots> slots,
                               const WorkerOptions& options, uint64_t seed)
    : id_(id),
      shard_(std::move(shard)),
      slots_(std::move(slots)),
      options_(options),
      seed_(seed) {
  DPBR_CHECK(!shard_.empty());
  DPBR_CHECK(slots_ != nullptr);
  DPBR_CHECK_GT(options_.batch_size, 0);
  DPBR_CHECK_GE(options_.beta, 0.0);
  DPBR_CHECK_LT(options_.beta, 1.0);
  slots_->Prepare(static_cast<size_t>(options_.batch_size));
  momentum_.assign(static_cast<size_t>(options_.batch_size),
                   std::vector<float>(dim(), 0.0f));
}

HonestDpWorker::HonestDpWorker(int id, data::DatasetView shard,
                               nn::ModelFactory factory,
                               const WorkerOptions& options, uint64_t seed)
    : HonestDpWorker(id, std::move(shard),
                     std::make_shared<ComputeSlots>(std::move(factory)),
                     options, seed) {}

void HonestDpWorker::ComputeUpdateInto(
    const std::vector<float>& global_params, int round, float* out) {
  ComputeSlots::Slot& slot = slots_->LoadedSlot(global_params);
  const size_t d = dim();

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

  // Lines 6-10: per-example gradients, computed as one microbatch through
  // the batched kernels (example j's flat gradient lands in row j of the
  // slot's gradient block). Each is folded into its momentum slot, whose
  // normalized copy, written over the spent gradient row, is summed into
  // the caller's row.
  slot.PerExampleGradients(shard_, batch.data(), bc, slot.grads.data());
  const float b = static_cast<float>(options_.beta);
  const float omb = static_cast<float>(1.0 - options_.beta);
  std::fill(out, out + d, 0.0f);
  for (size_t j = 0; j < bc; ++j) {
    float* g = slot.grads.data() + j * d;
    float* phi = momentum_[j].data();
    for (size_t k = 0; k < d; ++k) g[k] = phi[k] = omb * g[k] + b * phi[k];
    ops::NormalizeInPlace(g, d);
    ops::Axpy(1.0f, g, out, d);
  }
  if (options_.sigma > 0.0) {
    // Bulk perturbation (~d draws per round): the blocked sampler is both
    // the hot-path win and pool-size invariant, so the upload stream does
    // not depend on how the trainer schedules workers.
    rng.AddGaussian(out, d, options_.sigma);
  }
  ops::Scale(1.0f / static_cast<float>(bc), out, d);

  // Line 11: momentum handling after upload (see MomentumReset).
  if (options_.momentum_reset == MomentumReset::kResetToUpload) {
    for (std::vector<float>& phi : momentum_) phi.assign(out, out + d);
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
    if (slot.size() != dim()) {
      return Status::InvalidArgument(
          "momentum restore: slot dimension " +
          std::to_string(slot.size()) + " != model dimension " +
          std::to_string(dim()));
    }
  }
  momentum_ = momentum;
  return Status::OK();
}

}  // namespace fl
}  // namespace dpbr
