#include "nn/conv2d.h"

#include <cmath>
#include <cstring>

#include "common/logging.h"

namespace dpbr {
namespace nn {
namespace {

constexpr size_t kInputSlot = 0;  // workspace slot: cached forward input

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
               size_t padding, Conv2dKernel kernel)
    : in_ch_(in_channels),
      out_ch_(out_channels),
      k_(kernel_size),
      pad_(padding),
      kernel_(kernel),
      weight_(out_channels * in_channels * kernel_size * kernel_size, 0.0f),
      bias_(out_channels, 0.0f) {
  DPBR_CHECK_GT(in_ch_, 0u);
  DPBR_CHECK_GT(out_ch_, 0u);
  DPBR_CHECK_GT(k_, 0u);
}

void Conv2d::NaiveForwardOne(const float* x, size_t h, size_t w, float* y) {
  size_t oh = h + 2 * pad_ - k_ + 1;
  size_t ow = w + 2 * pad_ - k_ + 1;
  for (size_t oc = 0; oc < out_ch_; ++oc) {
    for (size_t i = 0; i < oh; ++i) {
      for (size_t j = 0; j < ow; ++j) {
        double s = bias_[oc];
        for (size_t ic = 0; ic < in_ch_; ++ic) {
          for (size_t kh = 0; kh < k_; ++kh) {
            // Input row index with padding offset; skip out-of-bounds rows.
            long long ih = static_cast<long long>(i + kh) -
                           static_cast<long long>(pad_);
            if (ih < 0 || ih >= static_cast<long long>(h)) continue;
            for (size_t kw = 0; kw < k_; ++kw) {
              long long iw = static_cast<long long>(j + kw) -
                             static_cast<long long>(pad_);
              if (iw < 0 || iw >= static_cast<long long>(w)) continue;
              s += static_cast<double>(W(oc, ic, kh, kw)) *
                   x[(ic * h + static_cast<size_t>(ih)) * w +
                     static_cast<size_t>(iw)];
            }
          }
        }
        y[(oc * oh + i) * ow + j] = static_cast<float>(s);
      }
    }
  }
}

void Conv2d::NaiveBackwardOne(const float* x, const float* gy, size_t h,
                              size_t w, float* wgrad, float* bgrad,
                              float* dx) {
  size_t oh = h + 2 * pad_ - k_ + 1;
  size_t ow = w + 2 * pad_ - k_ + 1;
  for (size_t oc = 0; oc < out_ch_; ++oc) {
    for (size_t i = 0; i < oh; ++i) {
      for (size_t j = 0; j < ow; ++j) {
        float g = gy[(oc * oh + i) * ow + j];
        if (g == 0.0f) continue;
        bgrad[oc] += g;
        for (size_t ic = 0; ic < in_ch_; ++ic) {
          for (size_t kh = 0; kh < k_; ++kh) {
            long long ih = static_cast<long long>(i + kh) -
                           static_cast<long long>(pad_);
            if (ih < 0 || ih >= static_cast<long long>(h)) continue;
            for (size_t kw = 0; kw < k_; ++kw) {
              long long iw = static_cast<long long>(j + kw) -
                             static_cast<long long>(pad_);
              if (iw < 0 || iw >= static_cast<long long>(w)) continue;
              size_t in_idx = (ic * h + static_cast<size_t>(ih)) * w +
                              static_cast<size_t>(iw);
              wgrad[((oc * in_ch_ + ic) * k_ + kh) * k_ + kw] += g * x[in_idx];
              dx[in_idx] += g * W(oc, ic, kh, kw);
            }
          }
        }
      }
    }
  }
}

Tensor Conv2d::ForwardBatch(const Tensor& x) {
  size_t batch = RequireBatchedInput(x, 4);
  DPBR_CHECK_EQ(x.dim(1), in_ch_);
  size_t h = x.dim(2), w = x.dim(3);
  DPBR_CHECK_GE(h + 2 * pad_ + 1, k_);
  DPBR_CHECK_GE(w + 2 * pad_ + 1, k_);
  float* cached = ws_.Get(kInputSlot, x.size());
  std::memcpy(cached, x.data(), x.size() * sizeof(float));
  state_.SetBatched(x.shape());
  size_t oh = h + 2 * pad_ - k_ + 1;
  size_t ow = w + 2 * pad_ - k_ + 1;
  Tensor y({batch, out_ch_, oh, ow});
  size_t in_stride = in_ch_ * h * w;
  size_t out_stride = out_ch_ * oh * ow;
  if (kernel_ == Conv2dKernel::kNaive) {
    for (size_t ex = 0; ex < batch; ++ex) {
      NaiveForwardOne(cached + ex * in_stride, h, w,
                      y.data() + ex * out_stride);
    }
    return y;
  }
  // The whole microbatch is one batched-GEMM dispatch that writes
  // straight into the (N, OC, Q) output. Each example's im2col panel is
  // expanded into the dispatch's per-thread scratch right before its
  // tiles are computed, so it is consumed while cache-hot. Each output
  // element accumulates its products in ascending-p order within its own
  // example, so the result is independent of the batch size and, like
  // every kernel here, of the pool size.
  size_t q = oh * ow;
  size_t kk = in_ch_ * k_ * k_;
  GemmBatchedNN(out_ch_, kk, q, batch, weight_.data(), y.data(),
                bias_.data(), [&](size_t ex, float* col) {
                  Im2Col(cached + ex * in_stride, in_ch_, h, w, k_, pad_,
                         col);
                });
  return y;
}

Tensor Conv2d::BackwardBatch(const Tensor& grad_out,
                             const PerExampleGradSink& sink) {
  const std::vector<size_t>& in = RequireBatchedState();
  size_t batch = in[0], h = in[2], w = in[3];
  size_t oh = h + 2 * pad_ - k_ + 1;
  size_t ow = w + 2 * pad_ - k_ + 1;
  RequireGradShape(grad_out, {batch, out_ch_, oh, ow});
  const float* x = ws_.Get(kInputSlot, batch * in_ch_ * h * w);
  Tensor dx({batch, in_ch_, h, w});
  size_t in_stride = in_ch_ * h * w;
  size_t out_stride = out_ch_ * oh * ow;
  if (kernel_ == Conv2dKernel::kNaive) {
    for (size_t ex = 0; ex < batch; ++ex) {
      float* wgrad = sink.Slot(ex);
      float* bgrad = wgrad + weight_.size();
      NaiveBackwardOne(x + ex * in_stride, grad_out.data() + ex * out_stride,
                       h, w, wgrad, bgrad, dx.data() + ex * in_stride);
    }
    return dx;
  }
  // The whole backward — per-example dW/db rows into the sink, dX
  // through col2im — is one batched dispatch split over examples. Each
  // example's task re-expands its im2col panel into per-thread scratch
  // (one K×Q buffer per thread, not per example) and runs the two panel
  // products dW = dY·Colᵀ and dCol = Wᵀ·dY serially, so every value is
  // independent of the batch size — and per-example dW/db rows land in
  // the sink untouched by any cross-example reduction, exactly as DP
  // clipping requires. Examples write disjoint sink rows and dx
  // slices, so the split is race-free; the embedded batch-1
  // GemmBatchedTN and its Col2ImAccumulate run inline inside the task
  // (nested dispatches never fan out), keeping the dispatch count at
  // one per microbatch.
  size_t q = oh * ow;
  size_t kk = in_ch_ * k_ * k_;
  const float* gy = grad_out.data();
  float* dxd = dx.data();
  GemmBatchedNT(
      out_ch_, q, kk, batch, gy, out_stride,
      [&](size_t ex, float* col) {
        Im2Col(x + ex * in_stride, in_ch_, h, w, k_, pad_, col);
      },
      [&](size_t ex) { return sink.Slot(ex); },
      /*accumulate=*/true,
      [&](size_t ex, const float* /*col*/) {
        const float* gy_ex = gy + ex * out_stride;
        // db row.
        AccumulateBiasRowSums(gy_ex, out_ch_, q,
                              sink.Slot(ex) + weight_.size());
        // dX slice: column-space gradient panel scattered by col2im.
        GemmBatchedTN(kk, out_ch_, q, 1, weight_.data(), gy_ex, 0,
                      [&](size_t, const float* dcol) {
                        Col2ImAccumulate(dcol, in_ch_, h, w, k_, pad_,
                                         dxd + ex * in_stride);
                      });
      });
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
