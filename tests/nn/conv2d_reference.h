// The direct loop nest of nn::Conv2d (stride 1, symmetric zero padding),
// for tests and benchmarks only: the library runs im2col + GEMM, and
// tests/nn/kernel_equivalence_test.cc checks it against these loops.
// Both functions read the layer's weight and bias through its Params()
// ({weight (out, in, k, k), bias (out)}), so a reference pass sees
// exactly the parameters the layer under test holds.

#ifndef DPBR_TESTS_NN_CONV2D_REFERENCE_H_
#define DPBR_TESTS_NN_CONV2D_REFERENCE_H_

#include <cstddef>
#include <vector>

#include "common/logging.h"
#include "nn/layer.h"
#include "tensor/tensor.h"

namespace dpbr {
namespace nn {

/// The hyperparameters a Conv2d was built with.
struct ConvGeometry {
  size_t in_ch;
  size_t out_ch;
  size_t k;
  size_t pad;
};

namespace conv2d_reference_internal {

// Input index of kernel tap (kh, kw) at output (i, j), or false when the
// tap lands in the zero padding.
inline bool InputIndex(const ConvGeometry& g, size_t h, size_t w, size_t ic,
                       size_t i, size_t j, size_t kh, size_t kw,
                       size_t* idx) {
  long long ih =
      static_cast<long long>(i + kh) - static_cast<long long>(g.pad);
  long long iw =
      static_cast<long long>(j + kw) - static_cast<long long>(g.pad);
  if (ih < 0 || ih >= static_cast<long long>(h)) return false;
  if (iw < 0 || iw >= static_cast<long long>(w)) return false;
  *idx = (ic * h + static_cast<size_t>(ih)) * w + static_cast<size_t>(iw);
  return true;
}

inline size_t WeightIndex(const ConvGeometry& g, size_t oc, size_t ic,
                          size_t kh, size_t kw) {
  return ((oc * g.in_ch + ic) * g.k + kh) * g.k + kw;
}

}  // namespace conv2d_reference_internal

/// y = conv(x) + b for one (1, in_ch, H, W) example, each output summed
/// in double over (ic, kh, kw) in ascending order.
inline Tensor ReferenceConv2dForward(const std::vector<ParamView>& params,
                                     const ConvGeometry& g, const Tensor& x) {
  using conv2d_reference_internal::InputIndex;
  using conv2d_reference_internal::WeightIndex;
  DPBR_CHECK_EQ(params.size(), 2u);
  DPBR_CHECK_EQ(x.ndim(), 4u);
  DPBR_CHECK_EQ(x.dim(0), 1u);
  DPBR_CHECK_EQ(x.dim(1), g.in_ch);
  const float* weight = params[0].value;
  const float* bias = params[1].value;
  size_t h = x.dim(2), w = x.dim(3);
  size_t oh = h + 2 * g.pad - g.k + 1;
  size_t ow = w + 2 * g.pad - g.k + 1;
  Tensor y({1, g.out_ch, oh, ow});
  for (size_t oc = 0; oc < g.out_ch; ++oc) {
    for (size_t i = 0; i < oh; ++i) {
      for (size_t j = 0; j < ow; ++j) {
        double s = bias[oc];
        for (size_t ic = 0; ic < g.in_ch; ++ic) {
          for (size_t kh = 0; kh < g.k; ++kh) {
            for (size_t kw = 0; kw < g.k; ++kw) {
              size_t idx;
              if (!InputIndex(g, h, w, ic, i, j, kh, kw, &idx)) continue;
              s += static_cast<double>(weight[WeightIndex(g, oc, ic, kh, kw)]) *
                   x[idx];
            }
          }
        }
        y[(oc * oh + i) * ow + j] = static_cast<float>(s);
      }
    }
  }
  return y;
}

/// The backward of ReferenceConv2dForward for output gradient `gy`:
/// returns dx and adds dW then db into `grad_row` (zeroed by the caller,
/// as a Layer::BackwardBatch sink row is).
inline Tensor ReferenceConv2dBackward(const std::vector<ParamView>& params,
                                      const ConvGeometry& g, const Tensor& x,
                                      const Tensor& gy, float* grad_row) {
  using conv2d_reference_internal::InputIndex;
  using conv2d_reference_internal::WeightIndex;
  DPBR_CHECK_EQ(params.size(), 2u);
  DPBR_CHECK_EQ(x.ndim(), 4u);
  DPBR_CHECK_EQ(x.dim(0), 1u);
  DPBR_CHECK_EQ(x.dim(1), g.in_ch);
  const float* weight = params[0].value;
  size_t h = x.dim(2), w = x.dim(3);
  size_t oh = h + 2 * g.pad - g.k + 1;
  size_t ow = w + 2 * g.pad - g.k + 1;
  DPBR_CHECK_EQ(gy.size(), g.out_ch * oh * ow);
  Tensor dx({1, g.in_ch, h, w});
  float* wgrad = grad_row;
  float* bgrad = wgrad + params[0].size;
  for (size_t oc = 0; oc < g.out_ch; ++oc) {
    for (size_t i = 0; i < oh; ++i) {
      for (size_t j = 0; j < ow; ++j) {
        float gv = gy[(oc * oh + i) * ow + j];
        if (gv == 0.0f) continue;
        bgrad[oc] += gv;
        for (size_t ic = 0; ic < g.in_ch; ++ic) {
          for (size_t kh = 0; kh < g.k; ++kh) {
            for (size_t kw = 0; kw < g.k; ++kw) {
              size_t idx;
              if (!InputIndex(g, h, w, ic, i, j, kh, kw, &idx)) continue;
              size_t widx = WeightIndex(g, oc, ic, kh, kw);
              wgrad[widx] += gv * x[idx];
              dx[idx] += gv * weight[widx];
            }
          }
        }
      }
    }
  }
  return dx;
}

}  // namespace nn
}  // namespace dpbr

#endif  // DPBR_TESTS_NN_CONV2D_REFERENCE_H_
