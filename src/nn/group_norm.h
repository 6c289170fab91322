// GroupNorm over (N, C, H, W) microbatches, as used by the paper's MNIST
// and Colorectal CNNs (NumGroups=4, NumChannels=16). Statistics are
// always per example, so the layer runs a per-example kernel over the
// examples in a serial loop.

#ifndef DPBR_NN_GROUP_NORM_H_
#define DPBR_NN_GROUP_NORM_H_

#include <string>
#include <vector>

#include "nn/gemm.h"
#include "nn/layer.h"

namespace dpbr {
namespace nn {

/// Normalizes each group of channels to zero mean / unit variance across
/// (channels-in-group × H × W), then applies per-channel affine γ, β.
///
/// With affine=false the layer has no parameters (γ≡1, β≡0); the paper's
/// reported model size d=21802 for the MNIST CNN matches exactly this
/// variant, so the model zoo uses it.
class GroupNorm : public Layer {
 public:
  GroupNorm(size_t num_groups, size_t num_channels, double eps = 1e-5,
            bool affine = true);

  Tensor ForwardBatch(const Tensor& x) override;
  Tensor BackwardBatch(const Tensor& grad_out,
                       const PerExampleGradSink& sink) override;
  std::vector<ParamView> Params() override;
  void InitParams(SplitRng* rng) override;  // γ=1, β=0
  std::string name() const override { return "GroupNorm"; }

 private:
  /// Normalizes one example: writes x̂ and y, records 1/std per group.
  void ForwardOne(const float* x, size_t spatial, float* xhat, float* y,
                  double* inv_std);
  /// Input gradient for one example; when `ggrad`/`bgrad` are non-null,
  /// accumulates this example's affine gradients into them.
  void BackwardOne(const float* dy, const float* xhat, const double* inv_std,
                   size_t spatial, float* dx, float* ggrad, float* bgrad);

  size_t groups_;
  size_t channels_;
  double eps_;
  bool affine_;
  std::vector<float> gamma_;
  std::vector<float> beta_;
  // Workspace-cached normalized input x̂ (float slot, batch-sized) and
  // 1/std per (example, group) (double slot). Both grow-only.
  Workspace ws_;
};

}  // namespace nn
}  // namespace dpbr

#endif  // DPBR_NN_GROUP_NORM_H_
