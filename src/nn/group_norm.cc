#include "nn/group_norm.h"

#include <cmath>

#include "common/logging.h"
#include "common/simd.h"

namespace dpbr {
namespace nn {
namespace {

constexpr double kEps = 1e-5;

}  // namespace

GroupNorm::GroupNorm(size_t num_groups, size_t num_channels)
    : groups_(num_groups), channels_(num_channels), inv_std_(num_groups) {
  DPBR_CHECK_GT(groups_, 0u);
  DPBR_CHECK_EQ(channels_ % groups_, 0u);
}

Tensor GroupNorm::ForwardBatch(const Tensor& x) {
  RecordInput(x, 4);
  DPBR_CHECK_EQ(x.dim(1), channels_);
  size_t group_size = x.size() / groups_;
  xhat_.resize(x.size());
  Tensor y(x.shape());
  const simd::SimdKernels& kern = simd::Kernels();
  for (size_t g = 0; g < groups_; ++g) {
    const float* gx = x.data() + g * group_size;
    double mean = 0.0;
    for (size_t i = 0; i < group_size; ++i) mean += gx[i];
    mean /= static_cast<double>(group_size);
    double var = 0.0;
    for (size_t i = 0; i < group_size; ++i) {
      double d = gx[i] - mean;
      var += d * d;
    }
    var /= static_cast<double>(group_size);
    double inv_std = 1.0 / std::sqrt(var + kEps);
    inv_std_[g] = inv_std;
    // Normalize sweep: element-wise in double then narrowed, so the SIMD
    // path is bitwise equal to the scalar reference. The statistics above
    // stay sequential scalar (they feed the training trajectory). The
    // layer has no affine parameters: y = x̂ + 0, which turns a −0 x̂
    // into +0.
    kern.gnorm_norm_f32(gx, group_size, mean, inv_std,
                        xhat_.data() + g * group_size,
                        y.data() + g * group_size);
  }
  return y;
}

Tensor GroupNorm::BackwardBatch(const Tensor& grad_out,
                                const PerExampleGradSink& /*sink*/) {
  const std::vector<size_t>& in = RequireForward();
  RequireGradShape(grad_out, in);
  Tensor dx(in);
  size_t group_size = dx.size() / groups_;
  double inv_m = 1.0 / static_cast<double>(group_size);
  const simd::SimdKernels& kern = simd::Kernels();
  // Per-group input gradient (the layer-norm formula within a group):
  //   dx = inv_std * (dy - mean(dy) - x̂ * mean(dy ⊙ x̂)).
  for (size_t g = 0; g < groups_; ++g) {
    const float* dy = grad_out.data() + g * group_size;
    const float* xhat = xhat_.data() + g * group_size;
    double sum_dy = 0.0, sum_dy_xhat = 0.0;
    for (size_t i = 0; i < group_size; ++i) {
      double d = dy[i];
      sum_dy += d;
      sum_dy_xhat += d * xhat[i];
    }
    kern.gnorm_dx_f32(dy, xhat, group_size, sum_dy * inv_m,
                      sum_dy_xhat * inv_m, inv_std_[g],
                      dx.data() + g * group_size);
  }
  return dx;
}

}  // namespace nn
}  // namespace dpbr
