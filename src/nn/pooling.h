// Adaptive average pooling and flattening, with batched variants. Both
// layers cache only the input *shape* (never activations), recorded in a
// BatchState so the per-example and batched paths can never read each
// other's cached shape undetected; the batched pool runs the same plane
// kernel over all (example, channel) planes in a serial loop.

#ifndef DPBR_NN_POOLING_H_
#define DPBR_NN_POOLING_H_

#include <string>
#include <vector>

#include "nn/layer.h"

namespace dpbr {
namespace nn {

/// AdaptiveAvgPool2d: averages a (C, H, W) input into (C, out_h, out_w)
/// using PyTorch's region convention
///   start = floor(i·H/out_h), end = ceil((i+1)·H/out_h).
class AdaptiveAvgPool2d : public Layer {
 public:
  AdaptiveAvgPool2d(size_t out_h, size_t out_w);

  Tensor Forward(const Tensor& x) override;
  Tensor Backward(const Tensor& grad_out) override;
  Tensor ForwardBatch(const Tensor& x) override;
  Tensor BackwardBatch(const Tensor& grad_out,
                       const PerExampleGradSink& sink) override;
  std::string name() const override { return "AdaptiveAvgPool2d"; }

 private:
  /// Pools one (H, W) plane; the `dx` variant scatters the gradient.
  /// Each (example, channel) plane is independent, so both paths are
  /// loops over this one plane kernel.
  void PlaneForward(const float* plane, size_t h, size_t w,
                    float* out_plane) const;
  void PlaneBackward(const float* gy_plane, size_t h, size_t w,
                     float* dx_plane) const;

  /// Pools `c` consecutive (H, W) planes — one (C, H, W) example, or a
  /// whole (N, C, H, W) batch as N·C planes; `dx` variant scatters the
  /// gradient.
  void ForwardOne(const float* x, size_t c, size_t h, size_t w, float* y);
  void BackwardOne(const float* gy, size_t c, size_t h, size_t w, float* dx);

  size_t out_h_;
  size_t out_w_;
};

/// Flattens each example to 1-d; Backward restores the original shape.
/// The batched variant maps (N, d1, ..., dk) to (N, d1·...·dk).
class Flatten : public Layer {
 public:
  Tensor Forward(const Tensor& x) override;
  Tensor Backward(const Tensor& grad_out) override;
  Tensor ForwardBatch(const Tensor& x) override;
  Tensor BackwardBatch(const Tensor& grad_out,
                       const PerExampleGradSink& sink) override;
  std::string name() const override { return "Flatten"; }
};

}  // namespace nn
}  // namespace dpbr

#endif  // DPBR_NN_POOLING_H_
