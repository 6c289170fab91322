// Adaptive average pooling and flattening of one example. Both layers
// cache only the input *shape* (never activations); the pool runs one
// plane kernel over the example's channel planes in a serial loop.

#ifndef DPBR_NN_POOLING_H_
#define DPBR_NN_POOLING_H_

#include <string>
#include <vector>

#include "nn/layer.h"

namespace dpbr {
namespace nn {

/// AdaptiveAvgPool2d: averages a (1, C, H, W) input into
/// (1, C, out_h, out_w) using PyTorch's region convention
///   start = floor(i·H/out_h), end = ceil((i+1)·H/out_h).
class AdaptiveAvgPool2d : public Layer {
 public:
  AdaptiveAvgPool2d(size_t out_h, size_t out_w);

  Tensor ForwardBatch(const Tensor& x) override;
  Tensor BackwardBatch(const Tensor& grad_out,
                       const PerExampleGradSink& sink) override;
  std::string name() const override { return "AdaptiveAvgPool2d"; }

 private:
  /// Pools one (H, W) plane; the backward variant scatters the
  /// gradient. Every channel plane is independent, so an example is a
  /// loop over this one plane kernel.
  void PlaneForward(const float* plane, size_t h, size_t w,
                    float* out_plane) const;
  void PlaneBackward(const float* gy_plane, size_t h, size_t w,
                     float* dx_plane) const;

  size_t out_h_;
  size_t out_w_;
};

/// Flattens the example to 1-d, mapping (1, d1, ..., dk) to
/// (1, d1·...·dk); the backward restores the original shape.
class Flatten : public Layer {
 public:
  Tensor ForwardBatch(const Tensor& x) override;
  Tensor BackwardBatch(const Tensor& grad_out,
                       const PerExampleGradSink& sink) override;
  std::string name() const override { return "Flatten"; }
};

}  // namespace nn
}  // namespace dpbr

#endif  // DPBR_NN_POOLING_H_
