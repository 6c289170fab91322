#include "nn/activations.h"

#include "common/simd.h"

namespace dpbr {
namespace nn {

Tensor Elu::ForwardBatch(const Tensor& x) {
  RecordInput(x, 2, /*at_least_rank=*/true);
  Tensor y = x;
  simd::Kernels().elu_f32(y.data(), y.size());
  output_.assign(y.data(), y.data() + y.size());
  return y;
}

Tensor Elu::BackwardBatch(const Tensor& grad_out,
                          const PerExampleGradSink& /*sink*/) {
  RequireGradShape(grad_out, RequireForward());
  Tensor dx = grad_out;
  // dy ⊙ ELU'(x), with ELU' recovered from the cached output y.
  simd::Kernels().elu_grad_f32(dx.data(), output_.data(), dx.size());
  return dx;
}

}  // namespace nn
}  // namespace dpbr
