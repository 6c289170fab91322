#include "fl/compute_slots.h"

#include <cstring>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "nn/loss.h"

namespace dpbr {
namespace fl {

Tensor ComputeSlots::Slot::Forward(const data::DatasetView& view,
                                  size_t i) {
  const data::Dataset* base = view.base();
  std::vector<size_t> shape{1};
  for (size_t d : base->example_shape()) shape.push_back(d);
  Tensor x(std::move(shape));
  std::memcpy(x.data(), view.FeaturesAt(i),
              base->feature_dim() * sizeof(float));
  return model->ForwardBatch(x);
}

void ComputeSlots::Slot::ExampleGradient(const data::DatasetView& view,
                                         size_t i, float* row) {
  nn::LossGrad lg = nn::SoftmaxCrossEntropy(
      Forward(view, i), static_cast<size_t>(view.LabelAt(i)));
  model->BackwardTo(lg.grad_logits, row);
}

ComputeSlots::ComputeSlots(nn::ModelFactory factory)
    : factory_(std::move(factory)) {
  Prepare();
}

void ComputeSlots::Prepare() {
  while (slots_.size() < ThreadSlotCount()) {
    std::unique_ptr<nn::Sequential> model = factory_();
    dim_ = model->NumParams();
    slots_.push_back(Slot{std::move(model), std::vector<float>(dim_)});
  }
}

std::vector<float> ComputeSlots::InitParams(SplitRng* rng) {
  nn::Sequential* model = ThisSlot().model.get();
  model->InitParams(rng);
  ParamsChanged();
  return model->FlatParams();
}

ComputeSlots::Slot& ComputeSlots::LoadedSlot(
    const std::vector<float>& params) {
  DPBR_CHECK_EQ(params.size(), dim_);
  Slot& s = ThisSlot();
  const uint64_t version = version_.load();
  if (s.loaded_from != params.data() || s.loaded_version != version) {
    s.model->SetParamsFrom(params.data());
    s.loaded_from = params.data();
    s.loaded_version = version;
  }
  return s;
}

ComputeSlots::Slot& ComputeSlots::ThisSlot() {
  size_t slot = ThisThreadSlot();
  DPBR_CHECK(slot < slots_.size() &&
             "thread slot not built: call Prepare() before the dispatch");
  return slots_[slot];
}

}  // namespace fl
}  // namespace dpbr
