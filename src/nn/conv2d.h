// 2-d convolution on (N, C, H, W) microbatches.
//
// The production kernel lowers the convolution to im2col + GEMM
// (src/nn/gemm.h), one example at a time on the calling thread: the
// forward is one NN tile call per example, the backward writes each
// example's dW/db row straight into its own PerExampleGradSink slot and
// its dX slice through col2im — so DP per-example gradient clipping is
// preserved, and row j of a batch-N pass is bitwise equal to the batch-1
// pass of example j. tests/nn/kernel_equivalence_test.cc checks it
// against the direct loop nest in tests/nn/conv2d_reference.h.

#ifndef DPBR_NN_CONV2D_H_
#define DPBR_NN_CONV2D_H_

#include <string>
#include <vector>

#include "nn/gemm.h"
#include "nn/layer.h"

namespace dpbr {
namespace nn {

/// Conv2d with stride 1 and symmetric zero padding.
class Conv2d : public Layer {
 public:
  Conv2d(size_t in_channels, size_t out_channels, size_t kernel_size,
         size_t padding = 0);

  Tensor ForwardBatch(const Tensor& x) override;
  Tensor BackwardBatch(const Tensor& grad_out,
                       const PerExampleGradSink& sink) override;
  std::vector<ParamView> Params() override;
  void InitParams(SplitRng* rng) override;
  std::string name() const override { return "Conv2d"; }

  size_t out_channels() const { return out_ch_; }

 private:
  size_t in_ch_;
  size_t out_ch_;
  size_t k_;
  size_t pad_;
  std::vector<float> weight_;  // (out, in, k, k)
  std::vector<float> bias_;    // (out)
  // The cached forward input.
  Workspace ws_;
};

}  // namespace nn
}  // namespace dpbr

#endif  // DPBR_NN_CONV2D_H_
