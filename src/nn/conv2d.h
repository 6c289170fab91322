// 2-d convolution of one (1, C, H, W) example.
//
// The kernel lowers the convolution to im2col + GEMM (src/nn/gemm.h) on
// the calling thread: the forward is one NN tile call; the backward
// writes dW/db straight into the example's PerExampleGradSink row and
// dX through col2im. tests/nn/kernel_equivalence_test.cc checks it
// against the direct loop nest in tests/nn/conv2d_reference.h.

#ifndef DPBR_NN_CONV2D_H_
#define DPBR_NN_CONV2D_H_

#include <string>
#include <vector>

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
  std::vector<float> input_;  // the last forward's input
};

}  // namespace nn
}  // namespace dpbr

#endif  // DPBR_NN_CONV2D_H_
