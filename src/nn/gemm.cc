#include "nn/gemm.h"

#include <algorithm>
#include <cstring>

#include "common/logging.h"
#include "common/simd.h"

namespace dpbr {
namespace nn {

float* ThreadPanel(size_t slot, size_t n) {
  // One grow-only arena per thread: a thread runs one pass at a time, so
  // a slot is never shared by two live panels. Growth happens only until
  // the high-water mark of each slot is reached; steady-state calls are a
  // lookup.
  static thread_local std::deque<std::vector<float>> panels;
  while (panels.size() <= slot) panels.emplace_back();
  std::vector<float>& p = panels[slot];
  if (p.size() < n) p.resize(n);
  return p.data();
}

float* Workspace::Get(size_t slot, size_t n) {
  while (buffers_.size() <= slot) buffers_.emplace_back();
  std::vector<float>& buf = buffers_[slot];
  if (buf.size() < n) buf.resize(n);
  return buf.data();
}

double* Workspace::GetDouble(size_t slot, size_t n) {
  while (dbuffers_.size() <= slot) dbuffers_.emplace_back();
  std::vector<double>& buf = dbuffers_[slot];
  if (buf.size() < n) buf.resize(n);
  return buf.data();
}

void GemmNN(size_t m, size_t k, size_t n, const float* a, const float* b,
            float* c, const float* row_init) {
  if (m == 0 || n == 0) return;
  simd::Kernels().gemm_nn_tile_f32(m, n, k, a, k, 1, b, n, row_init, c, n);
}

void GemmNT(size_t m, size_t k, size_t n, const float* a, const float* b,
            float* c, bool accumulate) {
  if (m == 0 || n == 0) return;
  simd::Kernels().gemm_nt_tile_f32(m, n, k, a, k, b, k, accumulate, c, n);
}

void GemmTN(size_t m, size_t k, size_t n, const float* a, const float* b,
            float* c) {
  if (m == 0 || n == 0) return;
  simd::Kernels().gemm_nn_tile_f32(m, n, k, a, 1, m, b, n, nullptr, c, n);
}

void Im2Col(const float* x, size_t channels, size_t h, size_t w,
            size_t kernel, size_t pad, float* col) {
  DPBR_CHECK_GE(h + 2 * pad + 1, kernel);
  DPBR_CHECK_GE(w + 2 * pad + 1, kernel);
  size_t oh = h + 2 * pad - kernel + 1;
  size_t ow = w + 2 * pad - kernel + 1;
  size_t q = oh * ow;  // columns per row
  for (size_t ic = 0; ic < channels; ++ic) {
    const float* plane = x + ic * h * w;
    for (size_t kh = 0; kh < kernel; ++kh) {
      for (size_t kw = 0; kw < kernel; ++kw) {
        float* row = col + ((ic * kernel + kh) * kernel + kw) * q;
        for (size_t i = 0; i < oh; ++i) {
          float* dst = row + i * ow;
          // Input row feeding output row i through tap (kh, kw).
          long long ih = static_cast<long long>(i + kh) -
                         static_cast<long long>(pad);
          if (ih < 0 || ih >= static_cast<long long>(h)) {
            std::memset(dst, 0, ow * sizeof(float));
            continue;
          }
          // Valid output columns j satisfy 0 <= j + kw - pad < w.
          size_t j_lo = pad > kw ? pad - kw : 0;
          size_t j_hi = w + pad > kw ? std::min(ow, w + pad - kw) : 0;
          if (j_lo >= j_hi) {
            std::memset(dst, 0, ow * sizeof(float));
            continue;
          }
          std::memset(dst, 0, j_lo * sizeof(float));
          std::memcpy(dst + j_lo,
                      plane + static_cast<size_t>(ih) * w + (j_lo + kw - pad),
                      (j_hi - j_lo) * sizeof(float));
          std::memset(dst + j_hi, 0, (ow - j_hi) * sizeof(float));
        }
      }
    }
  }
}

void Col2ImAccumulate(const float* col, size_t channels, size_t h, size_t w,
                      size_t kernel, size_t pad, float* dx) {
  size_t oh = h + 2 * pad - kernel + 1;
  size_t ow = w + 2 * pad - kernel + 1;
  size_t q = oh * ow;
  const simd::SimdKernels& kern = simd::Kernels();
  for (size_t ic = 0; ic < channels; ++ic) {
    float* plane = dx + ic * h * w;
    for (size_t kh = 0; kh < kernel; ++kh) {
      for (size_t kw = 0; kw < kernel; ++kw) {
        const float* row = col + ((ic * kernel + kh) * kernel + kw) * q;
        for (size_t i = 0; i < oh; ++i) {
          long long ih = static_cast<long long>(i + kh) -
                         static_cast<long long>(pad);
          if (ih < 0 || ih >= static_cast<long long>(h)) continue;
          size_t j_lo = pad > kw ? pad - kw : 0;
          size_t j_hi = w + pad > kw ? std::min(ow, w + pad - kw) : 0;
          if (j_lo >= j_hi) continue;
          const float* src = row + i * ow + j_lo;
          float* dst = plane + static_cast<size_t>(ih) * w +
                       (j_lo + kw - pad);
          kern.add_f32(src, dst, j_hi - j_lo);
        }
      }
    }
  }
}

}  // namespace nn
}  // namespace dpbr
