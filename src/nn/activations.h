// ELU, the activation of the paper's networks.
//
// The layer caches only its *output*: the derivative is recoverable from
// the output sign (x <= 0 ⟺ y <= 0), which halves the cached state. The
// example is one serial elementwise kernel call over the whole tensor.

#ifndef DPBR_NN_ACTIVATIONS_H_
#define DPBR_NN_ACTIVATIONS_H_

#include <string>
#include <vector>

#include "nn/layer.h"

namespace dpbr {
namespace nn {

/// ELU(x) = x for x > 0, eˣ - 1 otherwise (α = 1).
class Elu : public Layer {
 public:
  std::string name() const override { return "ELU"; }
  Tensor ForwardBatch(const Tensor& x) override;
  Tensor BackwardBatch(const Tensor& grad_out,
                       const PerExampleGradSink& sink) override;

 private:
  std::vector<float> output_;  // the last forward's output
};

}  // namespace nn
}  // namespace dpbr

#endif  // DPBR_NN_ACTIVATIONS_H_
