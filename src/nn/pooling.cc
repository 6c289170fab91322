#include "nn/pooling.h"

#include "common/logging.h"

namespace dpbr {
namespace nn {
namespace {

inline size_t RegionStart(size_t i, size_t in, size_t out) {
  return (i * in) / out;
}

inline size_t RegionEnd(size_t i, size_t in, size_t out) {
  return ((i + 1) * in + out - 1) / out;  // ceil
}

size_t ShapeProduct(const std::vector<size_t>& shape) {
  size_t p = 1;
  for (size_t d : shape) p *= d;
  return p;
}

}  // namespace

AdaptiveAvgPool2d::AdaptiveAvgPool2d(size_t out_h, size_t out_w)
    : out_h_(out_h), out_w_(out_w) {
  DPBR_CHECK_GT(out_h_, 0u);
  DPBR_CHECK_GT(out_w_, 0u);
}

void AdaptiveAvgPool2d::PlaneForward(const float* plane, size_t h, size_t w,
                                     float* out_plane) const {
  for (size_t i = 0; i < out_h_; ++i) {
    size_t h0 = RegionStart(i, h, out_h_), h1 = RegionEnd(i, h, out_h_);
    for (size_t j = 0; j < out_w_; ++j) {
      size_t w0 = RegionStart(j, w, out_w_), w1 = RegionEnd(j, w, out_w_);
      double s = 0.0;
      for (size_t a = h0; a < h1; ++a) {
        for (size_t b = w0; b < w1; ++b) s += plane[a * w + b];
      }
      out_plane[i * out_w_ + j] =
          static_cast<float>(s / static_cast<double>((h1 - h0) * (w1 - w0)));
    }
  }
}

void AdaptiveAvgPool2d::PlaneBackward(const float* gy_plane, size_t h,
                                      size_t w, float* dx_plane) const {
  // One add per element of the region. A region row is narrower than a
  // vector on the repo's CNNs (at most 7 floats: a 4×4 pool over at most
  // 28 columns), so this stays a plain loop.
  for (size_t i = 0; i < out_h_; ++i) {
    size_t h0 = RegionStart(i, h, out_h_), h1 = RegionEnd(i, h, out_h_);
    for (size_t j = 0; j < out_w_; ++j) {
      size_t w0 = RegionStart(j, w, out_w_), w1 = RegionEnd(j, w, out_w_);
      float g = gy_plane[i * out_w_ + j] /
                static_cast<float>((h1 - h0) * (w1 - w0));
      for (size_t a = h0; a < h1; ++a) {
        for (size_t b = w0; b < w1; ++b) dx_plane[a * w + b] += g;
      }
    }
  }
}

Tensor AdaptiveAvgPool2d::ForwardBatch(const Tensor& x) {
  RecordInput(x, 4);
  size_t c = x.dim(1), h = x.dim(2), w = x.dim(3);
  DPBR_CHECK_GE(h, out_h_);
  DPBR_CHECK_GE(w, out_w_);
  Tensor y({1, c, out_h_, out_w_});
  for (size_t p = 0; p < c; ++p) {
    PlaneForward(x.data() + p * h * w, h, w, y.data() + p * out_h_ * out_w_);
  }
  return y;
}

Tensor AdaptiveAvgPool2d::BackwardBatch(const Tensor& grad_out,
                                        const PerExampleGradSink& /*sink*/) {
  const std::vector<size_t>& in = RequireForward();
  size_t c = in[1], h = in[2], w = in[3];
  RequireGradShape(grad_out, {1, c, out_h_, out_w_});
  Tensor dx(in);
  // Same plane loop as the forward, onto the zero-initialized dx.
  for (size_t p = 0; p < c; ++p) {
    PlaneBackward(grad_out.data() + p * out_h_ * out_w_, h, w,
                  dx.data() + p * h * w);
  }
  return dx;
}

Tensor Flatten::ForwardBatch(const Tensor& x) {
  RecordInput(x, 2, /*at_least_rank=*/true);
  auto r = x.Reshape({1, x.size()});
  DPBR_CHECK(r.ok());
  return std::move(r).value();
}

Tensor Flatten::BackwardBatch(const Tensor& grad_out,
                              const PerExampleGradSink& /*sink*/) {
  const std::vector<size_t>& in = RequireForward();
  RequireGradShape(grad_out, {1, ShapeProduct(in)});
  auto r = grad_out.Reshape(in);
  DPBR_CHECK(r.ok());
  return std::move(r).value();
}

}  // namespace nn
}  // namespace dpbr
