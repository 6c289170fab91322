#include "nn/linear.h"

#include <cmath>
#include <cstring>

#include "common/logging.h"
#include "tensor/ops.h"

namespace dpbr {
namespace nn {
namespace {

constexpr size_t kInputSlot = 0;  // cached forward input

}  // namespace

Linear::Linear(size_t in_features, size_t out_features)
    : in_(in_features),
      out_(out_features),
      weight_(in_features * out_features, 0.0f),
      bias_(out_features, 0.0f) {
  DPBR_CHECK_GT(in_, 0u);
  DPBR_CHECK_GT(out_, 0u);
}

Tensor Linear::ForwardBatch(const Tensor& x) {
  size_t batch = RequireBatchedInput(x, 2);
  DPBR_CHECK_EQ(x.dim(1), in_);
  float* cached = ws_.Get(kInputSlot, batch * in_);
  std::memcpy(cached, x.data(), batch * in_ * sizeof(float));
  state_.SetBatched(x.shape());
  Tensor y({batch, out_});
  // Y = X · Wᵀ, one GEMM for the whole microbatch.
  GemmNT(batch, in_, out_, cached, weight_.data(), y.data());
  for (size_t ex = 0; ex < batch; ++ex) {
    float* row = y.data() + ex * out_;
    for (size_t r = 0; r < out_; ++r) row[r] += bias_[r];
  }
  return y;
}

Tensor Linear::BackwardBatch(const Tensor& grad_out,
                             const PerExampleGradSink& sink) {
  const std::vector<size_t>& in = RequireBatchedState();
  size_t batch = in[0];
  RequireGradShape(grad_out, {batch, out_});
  const float* x = ws_.Get(kInputSlot, batch * in_);
  Tensor dx({batch, in_});
  const float* gy = grad_out.data();
  size_t wsize = weight_.size();
  // dW_j = dy_j ⊗ x_j is a rank-1 update (a panel GEMM would pay
  // per-element reduction overhead for k=1) written straight into
  // example j's sink row; dX = dY · W is one GEMM whose rows are the
  // per-example dx_j = dy_j · W.
  for (size_t ex = 0; ex < batch; ++ex) {
    const float* gy_ex = gy + ex * out_;
    float* wgrad = sink.Slot(ex);
    ops::Ger(1.0f, gy_ex, x + ex * in_, wgrad, out_, in_);
    ops::Axpy(1.0f, gy_ex, wgrad + wsize, out_);
  }
  GemmNN(batch, out_, in_, gy, weight_.data(), dx.data());
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
