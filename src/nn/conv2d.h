// 2-d convolution on (C, H, W) examples and (N, C, H, W) microbatches.
//
// The production kernel lowers the convolution to im2col + blocked GEMM
// (src/nn/gemm.h) with all scratch held in a per-layer Workspace, so hot
// training loops neither allocate nor re-derive loop bounds. ForwardBatch
// runs the whole microbatch as one batched-GEMM dispatch
// (GemmBatchedNN) and BackwardBatch as one batched backward dispatch
// (GemmBatchedNT + an embedded per-example GemmBatchedTN/col2im), both
// bitwise identical to the per-example loop (same per-element
// accumulation order) with each example's dW/db row written to its own
// PerExampleGradSink slot — so DP per-example gradient clipping is
// preserved at batched speed. The original direct loop nest is kept as a
// reference kernel (`Conv2dKernel::kNaive`) that
// tests/nn/kernel_equivalence_test.cc checks the GEMM path against.

#ifndef DPBR_NN_CONV2D_H_
#define DPBR_NN_CONV2D_H_

#include <string>
#include <vector>

#include "nn/gemm.h"
#include "nn/layer.h"

namespace dpbr {
namespace nn {

/// Kernel implementation selector (tests compare the two paths).
enum class Conv2dKernel {
  kGemm,   ///< im2col + blocked GEMM (production)
  kNaive,  ///< direct quintuple loop (reference)
};

/// Conv2d with stride 1 and symmetric zero padding.
class Conv2d : public Layer {
 public:
  Conv2d(size_t in_channels, size_t out_channels, size_t kernel_size,
         size_t padding = 0, Conv2dKernel kernel = Conv2dKernel::kGemm);

  Tensor Forward(const Tensor& x) override;
  Tensor Backward(const Tensor& grad_out) override;
  Tensor ForwardBatch(const Tensor& x) override;
  Tensor BackwardBatch(const Tensor& grad_out,
                       const PerExampleGradSink& sink) override;
  std::vector<ParamView> Params() override;
  void InitParams(SplitRng* rng) override;
  std::string name() const override { return "Conv2d"; }

  size_t out_channels() const { return out_ch_; }

 private:
  float& W(size_t oc, size_t ic, size_t kh, size_t kw) {
    return weight_[((oc * in_ch_ + ic) * k_ + kh) * k_ + kw];
  }
  float& Wg(size_t oc, size_t ic, size_t kh, size_t kw) {
    return weight_grad_[((oc * in_ch_ + ic) * k_ + kh) * k_ + kw];
  }

  /// Forward/backward for one example whose input plane is `x` and whose
  /// outputs/gradients live at the given raw pointers. Shared by the
  /// per-example and microbatch paths (kernel mode respected).
  void ForwardOne(const float* x, size_t h, size_t w, float* y);
  void BackwardOne(const float* x, const float* gy, size_t h, size_t w,
                   float* wgrad, float* bgrad, float* dx);

  void NaiveForwardOne(const float* x, size_t h, size_t w, float* y);
  void NaiveBackwardOne(const float* x, const float* gy, size_t h, size_t w,
                        float* wgrad, float* bgrad, float* dx);

  size_t in_ch_;
  size_t out_ch_;
  size_t k_;
  size_t pad_;
  Conv2dKernel kernel_;
  std::vector<float> weight_;  // (out, in, k, k)
  std::vector<float> bias_;    // (out)
  std::vector<float> weight_grad_;
  std::vector<float> bias_grad_;
  // im2col / dcol scratch plus the cached forward input(s).
  Workspace ws_;
};

}  // namespace nn
}  // namespace dpbr

#endif  // DPBR_NN_CONV2D_H_
