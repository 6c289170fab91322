#include "nn/activations.h"

#include <cstring>

#include "common/simd.h"

namespace dpbr {
namespace nn {
namespace {

constexpr size_t kOutSlot = 0;  // cached output

}  // namespace

Tensor ElementwiseActivation::ForwardBatch(const Tensor& x) {
  RequireBatchedInput(x, 2, /*at_least_rank=*/true);
  state_.SetBatched(x.shape());
  Tensor y = x;
  float* cached = ws_.Get(kOutSlot, y.size());
  Apply(y.data(), y.size());
  std::memcpy(cached, y.data(), y.size() * sizeof(float));
  return y;
}

Tensor ElementwiseActivation::BackwardBatch(
    const Tensor& grad_out, const PerExampleGradSink& /*sink*/) {
  RequireGradShape(grad_out, RequireBatchedState());
  Tensor dx = grad_out;
  const float* y = ws_.Get(kOutSlot, dx.size());
  ApplyGrad(dx.data(), y, dx.size());
  return dx;
}

void Elu::Apply(float* y, size_t n) const {
  simd::Kernels().elu_f32(y, n, static_cast<float>(alpha_));
}

void Elu::ApplyGrad(float* dy, const float* y, size_t n) const {
  simd::Kernels().elu_grad_f32(dy, y, n, static_cast<float>(alpha_));
}

void Relu::Apply(float* y, size_t n) const { simd::Kernels().relu_f32(y, n); }

void Relu::ApplyGrad(float* dy, const float* y, size_t n) const {
  simd::Kernels().relu_grad_f32(dy, y, n);
}

}  // namespace nn
}  // namespace dpbr
