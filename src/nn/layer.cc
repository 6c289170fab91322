#include "nn/layer.h"

#include "common/logging.h"

namespace dpbr {
namespace nn {

void BatchState::SetBatched(const std::vector<size_t>& shape) {
  has_forward_ = true;
  shape_ = shape;
}

const std::vector<size_t>& BatchState::RequireBatched(
    const char* layer) const {
  if (!has_forward_) {
    DPBR_LOG_STREAM(Fatal)
        << layer << ": cached-state contract violated — BackwardBatch "
        << "requires a preceding ForwardBatch, but no forward has run";
  }
  return shape_;
}

size_t Layer::RequireBatchedInput(const Tensor& x, size_t rank,
                                  bool at_least_rank) const {
  if (at_least_rank) {
    DPBR_CHECK_GE(x.ndim(), rank);
  } else {
    DPBR_CHECK_EQ(x.ndim(), rank);
  }
  size_t batch = x.dim(0);
  DPBR_CHECK_GT(batch, 0u);
  return batch;
}

const std::vector<size_t>& Layer::RequireBatchedState() const {
  return state_.RequireBatched(name().c_str());
}

void Layer::RequireGradShape(const Tensor& grad_out,
                             const std::vector<size_t>& expected) const {
  DPBR_CHECK_EQ(grad_out.ndim(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    DPBR_CHECK_EQ(grad_out.dim(i), expected[i]);
  }
}

size_t Layer::NumParams() {
  size_t n = 0;
  for (const ParamView& p : Params()) n += p.size;
  return n;
}

}  // namespace nn
}  // namespace dpbr
