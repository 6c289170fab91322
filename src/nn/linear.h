// Fully connected layer: y = W x + b for one (1, in) example, on the
// shared GEMM primitive (src/nn/gemm.h). The backward adds the example's
// dW/db into its PerExampleGradSink row.

#ifndef DPBR_NN_LINEAR_H_
#define DPBR_NN_LINEAR_H_

#include <string>
#include <vector>

#include "nn/layer.h"

namespace dpbr {
namespace nn {

/// Dense affine map from `in_features` to `out_features`.
class Linear : public Layer {
 public:
  Linear(size_t in_features, size_t out_features);

  Tensor ForwardBatch(const Tensor& x) override;
  Tensor BackwardBatch(const Tensor& grad_out,
                       const PerExampleGradSink& sink) override;
  std::vector<ParamView> Params() override;

  /// He-uniform weights (suits the ELU nets used here), zero bias.
  void InitParams(SplitRng* rng) override;

  std::string name() const override { return "Linear"; }

  size_t in_features() const { return in_; }
  size_t out_features() const { return out_; }

 private:
  size_t in_;
  size_t out_;
  std::vector<float> weight_;  // out x in, row-major
  std::vector<float> bias_;    // out
  std::vector<float> input_;  // the last forward's input
};

}  // namespace nn
}  // namespace dpbr

#endif  // DPBR_NN_LINEAR_H_
