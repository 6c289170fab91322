// Elementwise activation layers: ELU (the paper's networks) and ReLU.
//
// Both cache only their *output*: each function's derivative is
// recoverable from the output sign (x <= 0 ⟺ y <= 0 for ELU, y == 0 for
// ReLU), which halves the cached state. The cached output lives in a
// grow-only Workspace slot. A microbatch is one serial elementwise
// kernel call over the whole tensor: a longer run of independent
// elements.

#ifndef DPBR_NN_ACTIVATIONS_H_
#define DPBR_NN_ACTIVATIONS_H_

#include <cstddef>
#include <string>

#include "nn/gemm.h"
#include "nn/layer.h"

namespace dpbr {
namespace nn {

/// Shared driver for output-cached elementwise activations: subclasses
/// supply the in-place forward kernel and its output-based derivative.
class ElementwiseActivation : public Layer {
 public:
  Tensor ForwardBatch(const Tensor& x) override;
  Tensor BackwardBatch(const Tensor& grad_out,
                       const PerExampleGradSink& sink) override;

 protected:
  /// y ← f(y) in place over n elements.
  virtual void Apply(float* y, size_t n) const = 0;
  /// dy ← dy ⊙ f'(x), with f' recovered from the cached output y.
  virtual void ApplyGrad(float* dy, const float* y, size_t n) const = 0;

 private:
  Workspace ws_;  // slot 0: cached output(s)
};

/// ELU(x) = x for x > 0, α(eˣ - 1) otherwise.
class Elu : public ElementwiseActivation {
 public:
  explicit Elu(double alpha = 1.0) : alpha_(alpha) {}
  std::string name() const override { return "ELU"; }

 protected:
  void Apply(float* y, size_t n) const override;
  void ApplyGrad(float* dy, const float* y, size_t n) const override;

 private:
  double alpha_;
};

/// ReLU(x) = max(x, 0).
class Relu : public ElementwiseActivation {
 public:
  std::string name() const override { return "ReLU"; }

 protected:
  void Apply(float* y, size_t n) const override;
  void ApplyGrad(float* dy, const float* y, size_t n) const override;
};

}  // namespace nn
}  // namespace dpbr

#endif  // DPBR_NN_ACTIVATIONS_H_
