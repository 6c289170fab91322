// GroupNorm of one (1, C, H, W) example, as used by the paper's MNIST
// and Colorectal CNNs (NumGroups=4, NumChannels=16).

#ifndef DPBR_NN_GROUP_NORM_H_
#define DPBR_NN_GROUP_NORM_H_

#include <string>
#include <vector>

#include "nn/layer.h"

namespace dpbr {
namespace nn {

/// Normalizes each group of channels to zero mean / unit variance across
/// (channels-in-group × H × W), with ε = 1e-5 in the variance.
///
/// The layer has no affine parameters (γ ≡ 1, β ≡ 0): the paper's
/// reported model size d = 21802 for the MNIST CNN counts none.
class GroupNorm : public Layer {
 public:
  GroupNorm(size_t num_groups, size_t num_channels);

  Tensor ForwardBatch(const Tensor& x) override;
  Tensor BackwardBatch(const Tensor& grad_out,
                       const PerExampleGradSink& sink) override;
  std::string name() const override { return "GroupNorm"; }

 private:
  size_t groups_;
  size_t channels_;
  std::vector<float> xhat_;      // the last forward's normalized input
  std::vector<double> inv_std_;  // ... and its 1/std per group
};

}  // namespace nn
}  // namespace dpbr

#endif  // DPBR_NN_GROUP_NORM_H_
