#include "fl/worker.h"

#include <algorithm>

#include "common/logging.h"
#include "common/thread_pool.h"
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
  slots_->Prepare();
  const size_t bc = static_cast<size_t>(options_.batch_size);
  momentum_.assign(bc, std::vector<float>(dim(), 0.0f));
  inv_norm_.assign(bc, 0.0f);
}

HonestDpWorker::HonestDpWorker(int id, data::DatasetView shard,
                               nn::ModelFactory factory,
                               const WorkerOptions& options, uint64_t seed)
    : HonestDpWorker(id, std::move(shard),
                     std::make_shared<ComputeSlots>(std::move(factory)),
                     options, seed) {}

void HonestDpWorker::ComputeUpdateInto(
    const std::vector<float>& global_params, int round, float* out) {
  // The caller may have changed global_params in place since the slots
  // last loaded it.
  slots_->ParamsChanged();
  BeginRound(round);
  Examples(global_params, 0, batch_size());
  FinishInto(out);
}

void HonestDpWorker::BeginRound(int round) {
  SplitRng rng(seed_, {0xF00, static_cast<uint64_t>(round)});
  const size_t bc = batch_size();
  // Line 5: sample a size-bc mini-batch (without replacement when the
  // shard allows; tiny shards fall back to with-replacement draws).
  if (shard_.size() >= bc) {
    batch_ = rng.SampleWithoutReplacement(shard_.size(), bc);
  } else {
    batch_.resize(bc);
    for (auto& b : batch_) b = rng.UniformInt(shard_.size());
  }
  // Line 10's noise key: the stream's next draw, as AddGaussian on it
  // would take.
  noise_key_ = rng.Next64();
}

void HonestDpWorker::Examples(const std::vector<float>& global_params,
                              size_t lo, size_t hi) {
  DPBR_CHECK(lo <= hi && hi <= batch_.size());
  ComputeSlots::Slot& slot = slots_->LoadedSlot(global_params);
  const size_t d = dim();
  const float b = static_cast<float>(options_.beta);
  const float omb = static_cast<float>(1.0 - options_.beta);
  float* g = slot.grad.data();
  // Lines 6-8: example j's gradient (one forward and backward pass)
  // folded into its momentum slot; the slot's norm is all line 9 needs
  // from it. Without FMA, β·φ_j + (1−β)·g rounds exactly as
  // (1−β)·g + β·φ_j: two products, one sum. The fold returns the
  // chained sum of squares the inverse norm's bracket starts from.
  for (size_t j = lo; j < hi; ++j) {
    slot.ExampleGradient(shard_, batch_[j], g);
    float* phi = momentum_[j].data();
    double sq = ops::MomentumFold(b, omb, g, phi, d);
    inv_norm_[j] = ops::InverseNorm(phi, d, sq);
  }
}

size_t HonestDpWorker::num_blocks() const {
  return (dim() + kGaussianFillBlock - 1) / kGaussianFillBlock;
}

void HonestDpWorker::FinishBlock(size_t block, float* out) {
  const size_t lo = block * kGaussianFillBlock;
  DPBR_CHECK_LT(lo, dim());
  const size_t n = std::min(dim() - lo, kGaussianFillBlock);
  const size_t bc = batch_size();
  float* o = out + lo;
  // Line 9: the normalized momenta summed in order j. Without FMA,
  // axpy(1/‖φ_j‖, φ_j) rounds exactly as scaling a copy of φ_j and
  // adding it.
  std::fill(o, o + n, 0.0f);
  for (size_t j = 0; j < bc; ++j) {
    ops::Axpy(inv_norm_[j], momentum_[j].data() + lo, o, n);
  }
  if (options_.sigma > 0.0) {
    // Line 10: this block of AddGaussian(out, d, σ) on the round's
    // stream, so the noise does not depend on how blocks are scheduled.
    SplitRng::GaussianBlock(noise_key_, block, o, n, options_.sigma,
                            /*accumulate=*/true);
  }
  ops::Scale(1.0f / static_cast<float>(bc), o, n);

  // Line 11: momentum handling after upload (see MomentumReset).
  if (options_.momentum_reset == MomentumReset::kResetToUpload) {
    for (std::vector<float>& phi : momentum_) {
      std::copy(o, o + n, phi.data() + lo);
    }
  }
}

void HonestDpWorker::FinishInto(float* out) {
  ParallelFor(0, num_blocks(), [&](size_t b) { FinishBlock(b, out); });
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
