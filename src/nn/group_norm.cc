#include "nn/group_norm.h"

#include <cmath>

#include "common/logging.h"
#include "common/simd.h"

namespace dpbr {
namespace nn {
namespace {

constexpr size_t kXhatSlot = 0;    // float slot: cached normalized inputs
constexpr size_t kInvStdSlot = 0;  // double slot: 1/std per (example, group)

}  // namespace

GroupNorm::GroupNorm(size_t num_groups, size_t num_channels, double eps,
                     bool affine)
    : groups_(num_groups),
      channels_(num_channels),
      eps_(eps),
      affine_(affine),
      gamma_(num_channels, 1.0f),
      beta_(num_channels, 0.0f) {
  DPBR_CHECK_GT(groups_, 0u);
  DPBR_CHECK_EQ(channels_ % groups_, 0u);
}

void GroupNorm::ForwardOne(const float* x, size_t spatial, float* xhat,
                           float* y, double* inv_std_out) {
  size_t cpg = channels_ / groups_;  // channels per group
  size_t group_size = cpg * spatial;
  for (size_t g = 0; g < groups_; ++g) {
    const float* gx = x + g * group_size;
    double mean = 0.0;
    for (size_t i = 0; i < group_size; ++i) mean += gx[i];
    mean /= static_cast<double>(group_size);
    double var = 0.0;
    for (size_t i = 0; i < group_size; ++i) {
      double d = gx[i] - mean;
      var += d * d;
    }
    var /= static_cast<double>(group_size);
    double inv_std = 1.0 / std::sqrt(var + eps_);
    inv_std_out[g] = inv_std;
    // Normalize sweep: element-wise in double then narrowed, so the SIMD
    // path is bitwise equal to the scalar reference. The statistics above
    // stay sequential scalar (they feed the training trajectory).
    const simd::SimdKernels& kern = simd::Kernels();
    for (size_t c = 0; c < cpg; ++c) {
      size_t ch = g * cpg + c;
      size_t idx = g * group_size + c * spatial;
      kern.gnorm_norm_f32(x + idx, spatial, mean, inv_std, gamma_[ch],
                          beta_[ch], xhat + idx, y + idx);
    }
  }
}

void GroupNorm::BackwardOne(const float* dy, const float* xhat,
                            const double* inv_std, size_t spatial, float* dx,
                            float* ggrad, float* bgrad) {
  size_t cpg = channels_ / groups_;
  size_t group_size = cpg * spatial;
  double inv_m = 1.0 / static_cast<double>(group_size);

  // Per-channel affine gradients (skipped when the layer has no affine
  // parameters).
  if (ggrad != nullptr) {
    for (size_t ch = 0; ch < channels_; ++ch) {
      double dg = 0.0, db = 0.0;
      for (size_t s = 0; s < spatial; ++s) {
        size_t idx = ch * spatial + s;
        dg += static_cast<double>(dy[idx]) * xhat[idx];
        db += dy[idx];
      }
      ggrad[ch] += static_cast<float>(dg);
      bgrad[ch] += static_cast<float>(db);
    }
  }

  // Per-group input gradient (layer-norm formula applied within a group):
  //   dxhat = dy * γ
  //   dx = inv_std * (dxhat - mean(dxhat) - xhat * mean(dxhat ⊙ xhat)).
  for (size_t g = 0; g < groups_; ++g) {
    double sum_dxhat = 0.0, sum_dxhat_xhat = 0.0;
    for (size_t c = 0; c < cpg; ++c) {
      size_t ch = g * cpg + c;
      for (size_t s = 0; s < spatial; ++s) {
        size_t idx = ch * spatial + s;
        double dxhat = static_cast<double>(dy[idx]) * gamma_[ch];
        sum_dxhat += dxhat;
        sum_dxhat_xhat += dxhat * xhat[idx];
      }
    }
    double mean_dxhat = sum_dxhat * inv_m;
    double mean_dxhat_xhat = sum_dxhat_xhat * inv_m;
    double is = inv_std[g];
    const simd::SimdKernels& kern = simd::Kernels();
    for (size_t c = 0; c < cpg; ++c) {
      size_t ch = g * cpg + c;
      size_t idx = ch * spatial;
      kern.gnorm_dx_f32(dy + idx, xhat + idx, spatial, gamma_[ch],
                        mean_dxhat, mean_dxhat_xhat, is, dx + idx);
    }
  }
}

Tensor GroupNorm::ForwardBatch(const Tensor& x) {
  size_t batch = RequireBatchedInput(x, 4);
  DPBR_CHECK_EQ(x.dim(1), channels_);
  size_t h = x.dim(2), w = x.dim(3);
  float* xhat = ws_.Get(kXhatSlot, x.size());
  // Grow-only, never cleared: ForwardOne overwrites every (example,
  // group) element it is handed, so zeroing would be pure memset cost.
  double* inv_std = ws_.GetDouble(kInvStdSlot, batch * groups_);
  state_.SetBatched(x.shape());
  Tensor y({batch, channels_, h, w});
  size_t stride = channels_ * h * w;
  const float* xd = x.data();
  float* yd = y.data();
  for (size_t ex = 0; ex < batch; ++ex) {
    ForwardOne(xd + ex * stride, h * w, xhat + ex * stride, yd + ex * stride,
               inv_std + ex * groups_);
  }
  return y;
}

Tensor GroupNorm::BackwardBatch(const Tensor& grad_out,
                                const PerExampleGradSink& sink) {
  const std::vector<size_t>& in = RequireBatchedState();
  size_t batch = in[0], h = in[2], w = in[3];
  RequireGradShape(grad_out, {batch, channels_, h, w});
  size_t stride = channels_ * h * w;
  const float* xhat = ws_.Get(kXhatSlot, batch * stride);
  const double* inv_std = ws_.GetDouble(kInvStdSlot, batch * groups_);
  Tensor dx({batch, channels_, h, w});
  const float* gy = grad_out.data();
  float* dxd = dx.data();
  // Per-example gradients stay separated: each example's affine gradient
  // lands in its own sink row.
  for (size_t ex = 0; ex < batch; ++ex) {
    float* ggrad = nullptr;
    float* bgrad = nullptr;
    if (affine_) {
      ggrad = sink.Slot(ex);
      bgrad = ggrad + gamma_.size();
    }
    BackwardOne(gy + ex * stride, xhat + ex * stride, inv_std + ex * groups_,
                h * w, dxd + ex * stride, ggrad, bgrad);
  }
  return dx;
}

std::vector<ParamView> GroupNorm::Params() {
  if (!affine_) return {};
  return {
      {gamma_.data(), gamma_.size()},
      {beta_.data(), beta_.size()},
  };
}

void GroupNorm::InitParams(SplitRng* /*rng*/) {
  for (auto& g : gamma_) g = 1.0f;
  for (auto& b : beta_) b = 0.0f;
}

}  // namespace nn
}  // namespace dpbr
