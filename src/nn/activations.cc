#include "nn/activations.h"

#include <cstring>

#include "common/simd.h"

namespace dpbr {
namespace nn {
namespace {

constexpr size_t kOutSlot = 0;  // cached output

}  // namespace

Tensor Elu::ForwardBatch(const Tensor& x) {
  RequireBatchedInput(x, 2, /*at_least_rank=*/true);
  state_.SetBatched(x.shape());
  Tensor y = x;
  float* cached = ws_.Get(kOutSlot, y.size());
  simd::Kernels().elu_f32(y.data(), y.size());
  std::memcpy(cached, y.data(), y.size() * sizeof(float));
  return y;
}

Tensor Elu::BackwardBatch(const Tensor& grad_out,
                          const PerExampleGradSink& /*sink*/) {
  RequireGradShape(grad_out, RequireBatchedState());
  Tensor dx = grad_out;
  const float* y = ws_.Get(kOutSlot, dx.size());
  // dy ⊙ ELU'(x), with ELU' recovered from the cached output y.
  simd::Kernels().elu_grad_f32(dx.data(), y, dx.size());
  return dx;
}

}  // namespace nn
}  // namespace dpbr
