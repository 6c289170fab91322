#include "nn/linear.h"

#include <cmath>
#include <cstring>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "tensor/ops.h"

namespace dpbr {
namespace nn {
namespace {

constexpr size_t kInputSlot = 0;  // cached forward input(s)

}  // namespace

Linear::Linear(size_t in_features, size_t out_features)
    : in_(in_features),
      out_(out_features),
      weight_(in_features * out_features, 0.0f),
      bias_(out_features, 0.0f),
      weight_grad_(in_features * out_features, 0.0f),
      bias_grad_(out_features, 0.0f) {
  DPBR_CHECK_GT(in_, 0u);
  DPBR_CHECK_GT(out_, 0u);
}

Tensor Linear::Forward(const Tensor& x) {
  DPBR_CHECK_EQ(x.size(), in_);
  float* cached = ws_.Get(kInputSlot, in_);
  std::memcpy(cached, x.data(), in_ * sizeof(float));
  state_.SetPerExample(x.shape());
  Tensor y({out_});
  // y = x · Wᵀ as a 1-row GEMM, then the bias.
  GemmNT(1, in_, out_, cached, weight_.data(), y.data());
  for (size_t r = 0; r < out_; ++r) y[r] += bias_[r];
  return y;
}

Tensor Linear::Backward(const Tensor& grad_out) {
  DPBR_CHECK_EQ(grad_out.size(), out_);
  RequirePerExampleState();
  const float* x = ws_.Get(kInputSlot, in_);
  // dW += dy ⊗ x, db += dy, dx = dy · W.
  ops::Ger(1.0f, grad_out.data(), x, weight_grad_.data(), out_, in_);
  ops::Axpy(1.0f, grad_out.data(), bias_grad_.data(), out_);
  Tensor dx({in_});
  GemmNN(1, out_, in_, grad_out.data(), weight_.data(), dx.data());
  return dx;
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
  const float* w = weight_.data();
  float* dxd = dx.data();
  size_t wsize = weight_.size();
  // The whole backward is one batched dispatch split over examples, the
  // same shape as Conv2d's batched backward but on the raw per-example
  // kernels: dW_j = dy_j ⊗ x_j is a rank-1 update (a panel GEMM would
  // pay per-element reduction overhead for k=1), so each task runs the
  // per-example path's exact Ger/Axpy calls against its own sink row,
  // then its dX row dx_j = dy_j · W through the serial row core of the
  // same GemmNN the per-example path dispatches — every output bitwise
  // equal to the per-example path. Examples touch disjoint sink rows
  // and dx rows, so the split is race-free and pool-size invariant.
  ParallelForBlocked(batch, 1, [&](size_t e0, size_t e1) {
    for (size_t ex = e0; ex < e1; ++ex) {
      const float* gy_ex = gy + ex * out_;
      float* wgrad = sink.Slot(ex);
      ops::Ger(1.0f, gy_ex, x + ex * in_, wgrad, out_, in_);
      ops::Axpy(1.0f, gy_ex, wgrad + wsize, out_);
      GemmNNSerialRow(out_, in_, gy_ex, w, dxd + ex * in_);
    }
  });
  return dx;
}

std::vector<ParamView> Linear::Params() {
  return {
      {weight_.data(), weight_grad_.data(), weight_.size()},
      {bias_.data(), bias_grad_.data(), bias_.size()},
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
