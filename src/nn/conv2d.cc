#include "nn/conv2d.h"

#include <cmath>

#include "common/logging.h"
#include "nn/gemm.h"

namespace dpbr {
namespace nn {
namespace {

// db[oc] += Σ_i gy[oc·q + i], accumulated in double.
void AccumulateBiasRowSums(const float* gy, size_t out_ch, size_t q,
                           float* bgrad) {
  for (size_t oc = 0; oc < out_ch; ++oc) {
    const float* row = gy + oc * q;
    double s = 0.0;
    for (size_t i = 0; i < q; ++i) s += row[i];
    bgrad[oc] += static_cast<float>(s);
  }
}

}  // namespace

Conv2d::Conv2d(size_t in_channels, size_t out_channels, size_t kernel_size,
               size_t padding)
    : in_ch_(in_channels),
      out_ch_(out_channels),
      k_(kernel_size),
      pad_(padding),
      weight_(out_channels * in_channels * kernel_size * kernel_size, 0.0f),
      bias_(out_channels, 0.0f) {
  DPBR_CHECK_GT(in_ch_, 0u);
  DPBR_CHECK_GT(out_ch_, 0u);
  DPBR_CHECK_GT(k_, 0u);
}

Tensor Conv2d::ForwardBatch(const Tensor& x) {
  RecordInput(x, 4);
  DPBR_CHECK_EQ(x.dim(1), in_ch_);
  size_t h = x.dim(2), w = x.dim(3);
  DPBR_CHECK_GE(h + 2 * pad_ + 1, k_);
  DPBR_CHECK_GE(w + 2 * pad_ + 1, k_);
  input_.assign(x.data(), x.data() + x.size());
  size_t oh = h + 2 * pad_ - k_ + 1;
  size_t ow = w + 2 * pad_ - k_ + 1;
  Tensor y({1, out_ch_, oh, ow});
  // The im2col panel is expanded into per-thread scratch right before
  // the tile call and consumed while cache-hot; each output element
  // accumulates its products in ascending-p order.
  size_t q = oh * ow;
  size_t kk = in_ch_ * k_ * k_;
  float* col = ThreadPanel(kPanelSlotCol, kk * q);
  Im2Col(input_.data(), in_ch_, h, w, k_, pad_, col);
  GemmNN(out_ch_, kk, q, weight_.data(), col, y.data(), bias_.data());
  return y;
}

Tensor Conv2d::BackwardBatch(const Tensor& grad_out,
                             const PerExampleGradSink& sink) {
  const std::vector<size_t>& in = RequireForward();
  size_t h = in[2], w = in[3];
  size_t oh = h + 2 * pad_ - k_ + 1;
  size_t ow = w + 2 * pad_ - k_ + 1;
  RequireGradShape(grad_out, {1, out_ch_, oh, ow});
  Tensor dx({1, in_ch_, h, w});
  // Re-expand the im2col panel, then dW = dY·Colᵀ straight into the
  // sink row, the db row sums, and dX as the column-space panel Wᵀ·dY
  // scattered by col2im.
  size_t q = oh * ow;
  size_t kk = in_ch_ * k_ * k_;
  float* col = ThreadPanel(kPanelSlotCol, kk * q);
  float* dcol = ThreadPanel(kPanelSlotDcol, kk * q);
  const float* gy = grad_out.data();
  float* row = sink.Row();
  Im2Col(input_.data(), in_ch_, h, w, k_, pad_, col);
  GemmNT(out_ch_, q, kk, gy, col, row, /*accumulate=*/true);
  AccumulateBiasRowSums(gy, out_ch_, q, row + weight_.size());
  GemmTN(kk, out_ch_, q, weight_.data(), gy, dcol);
  Col2ImAccumulate(dcol, in_ch_, h, w, k_, pad_, dx.data());
  return dx;
}

std::vector<ParamView> Conv2d::Params() {
  return {
      {weight_.data(), weight_.size()},
      {bias_.data(), bias_.size()},
  };
}

void Conv2d::InitParams(SplitRng* rng) {
  double fan_in = static_cast<double>(in_ch_ * k_ * k_);
  double bound = std::sqrt(6.0 / fan_in);
  for (auto& w : weight_) {
    w = static_cast<float>(rng->Uniform(-bound, bound));
  }
  for (auto& b : bias_) b = 0.0f;
}

}  // namespace nn
}  // namespace dpbr
