#include "nn/layer.h"

#include "common/logging.h"

namespace dpbr {
namespace nn {

void Layer::RecordInput(const Tensor& x, size_t rank, bool at_least_rank) {
  if (at_least_rank) {
    DPBR_CHECK_GE(x.ndim(), rank);
  } else {
    DPBR_CHECK_EQ(x.ndim(), rank);
  }
  DPBR_CHECK_EQ(x.dim(0), 1u);
  input_shape_ = x.shape();
}

const std::vector<size_t>& Layer::RequireForward() const {
  if (input_shape_.empty()) {
    DPBR_LOG_STREAM(Fatal)
        << name() << ": cached-state contract violated — BackwardBatch "
        << "requires a preceding ForwardBatch, but no forward has run";
  }
  return input_shape_;
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
