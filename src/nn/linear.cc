#include "nn/linear.h"

#include <cmath>

#include "common/logging.h"
#include "nn/gemm.h"
#include "tensor/ops.h"

namespace dpbr {
namespace nn {

Linear::Linear(size_t in_features, size_t out_features)
    : in_(in_features),
      out_(out_features),
      weight_(in_features * out_features, 0.0f),
      bias_(out_features, 0.0f) {
  DPBR_CHECK_GT(in_, 0u);
  DPBR_CHECK_GT(out_, 0u);
}

Tensor Linear::ForwardBatch(const Tensor& x) {
  RecordInput(x, 2);
  DPBR_CHECK_EQ(x.dim(1), in_);
  input_.assign(x.data(), x.data() + in_);
  Tensor y({1, out_});
  // y = x · Wᵀ, then the bias.
  GemmNT(1, in_, out_, input_.data(), weight_.data(), y.data());
  for (size_t r = 0; r < out_; ++r) y[r] += bias_[r];
  return y;
}

Tensor Linear::BackwardBatch(const Tensor& grad_out,
                             const PerExampleGradSink& sink) {
  RequireForward();
  RequireGradShape(grad_out, {1, out_});
  Tensor dx({1, in_});
  const float* gy = grad_out.data();
  // dW = dy ⊗ x is a rank-1 update (a panel GEMM would pay per-element
  // reduction overhead for k=1) written straight into the sink row, then
  // db = dy; dx = dy · W is one GEMM.
  float* wgrad = sink.Row();
  ops::Ger(1.0f, gy, input_.data(), wgrad, out_, in_);
  ops::Axpy(1.0f, gy, wgrad + weight_.size(), out_);
  GemmNN(1, out_, in_, gy, weight_.data(), dx.data());
  return dx;
}

std::vector<ParamView> Linear::Params() {
  return {
      {weight_.data(), weight_.size()},
      {bias_.data(), bias_.size()},
  };
}

void Linear::InitParams(SplitRng* rng) {
  // He-uniform: U(-b, b) with b = sqrt(6 / fan_in).
  double bound = std::sqrt(6.0 / static_cast<double>(in_));
  for (auto& w : weight_) {
    w = static_cast<float>(rng->Uniform(-bound, bound));
  }
  for (auto& b : bias_) b = 0.0f;
}

}  // namespace nn
}  // namespace dpbr
