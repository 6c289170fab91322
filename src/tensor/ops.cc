#include "tensor/ops.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/simd.h"

namespace dpbr {
namespace ops {

void Axpy(float alpha, const float* x, float* y, size_t n) {
  simd::Kernels().axpy_f32(alpha, x, y, n);
}

void Scale(float alpha, float* x, size_t n) {
  simd::Kernels().scale_f32(alpha, x, n);
}

double MomentumFold(float beta, float omb, const float* g, float* phi,
                    size_t n) {
  return simd::Kernels().momentum_fold_f32(beta, omb, g, phi, n);
}

double Dot(const float* x, const float* y, size_t n) {
  double s = 0.0;
  for (size_t i = 0; i < n; ++i) s += static_cast<double>(x[i]) * y[i];
  return s;
}

double SquaredNorm(const float* x, size_t n) { return Dot(x, x, n); }

double Norm(const float* x, size_t n) { return std::sqrt(SquaredNorm(x, n)); }

double ChainedSquaredNorm(const float* x, size_t n) {
  double acc[8] = {};
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    for (size_t k = 0; k < 8; ++k) {
      double v = static_cast<double>(x[i + k]);
      acc[k] += v * v;
    }
  }
  for (; i < n; ++i) {
    double v = static_cast<double>(x[i]);
    acc[0] += v * v;
  }
  return ((acc[0] + acc[1]) + (acc[2] + acc[3])) +
         ((acc[4] + acc[5]) + (acc[6] + acc[7]));
}

double ChainedSquaredNormTolerance(double sq, size_t n) {
  return 4.0 * static_cast<double>(n + 8) * 0x1p-53 * sq;
}

float InverseNorm(const float* x, size_t n) {
  return InverseNorm(x, n, ChainedSquaredNorm(x, n));
}

float InverseNorm(const float* x, size_t n, double sq) {
  auto inverse = [](double s) {
    return static_cast<float>(1.0 / std::max(std::sqrt(s), 1e-12));
  };
  if (std::isfinite(sq)) {
    double tol = ChainedSquaredNormTolerance(sq, n);
    float at_hi = inverse(sq + tol);
    if (at_hi == inverse(sq - tol)) return at_hi;
  }
  return inverse(SquaredNorm(x, n));
}

double NormalizeInPlace(float* x, size_t n, double eps) {
  double nrm = Norm(x, n);
  double denom = std::max(nrm, eps);
  float inv = static_cast<float>(1.0 / denom);
  Scale(inv, x, n);
  return nrm;
}

void Ger(float alpha, const float* u, const float* v, float* a, size_t rows,
         size_t cols) {
  const simd::SimdKernels& kern = simd::Kernels();
  for (size_t r = 0; r < rows; ++r) {
    kern.axpy_f32(alpha * u[r], v, a + r * cols, cols);
  }
}

std::vector<float> Scaled(const std::vector<float>& x, float alpha) {
  std::vector<float> out(x.size());
  for (size_t i = 0; i < x.size(); ++i) out[i] = alpha * x[i];
  return out;
}

double Dot(const std::vector<float>& x, const std::vector<float>& y) {
  DPBR_CHECK_EQ(x.size(), y.size());
  return Dot(x.data(), y.data(), x.size());
}

double Norm(const std::vector<float>& x) { return Norm(x.data(), x.size()); }

}  // namespace ops
}  // namespace dpbr
