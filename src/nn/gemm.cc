#include "nn/gemm.h"

#include <algorithm>
#include <cstring>
#include <deque>
#include <vector>

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

namespace {

// dst[0, n) = src[0, n) in constant-size 4-float moves, which compile to
// inline vector loads and stores instead of a libc call per row. The last
// chunk overlaps the one before it when n is not a multiple of 4: copying
// an element twice writes the same bits.
inline void CopyRow(const float* src, float* dst, size_t n) {
  if (n < 4) {
    for (size_t j = 0; j < n; ++j) dst[j] = src[j];
    return;
  }
  for (size_t j = 0; j + 4 <= n; j += 4) {
    std::memcpy(dst + j, src + j, 4 * sizeof(float));
  }
  std::memcpy(dst + n - 4, src + n - 4, 4 * sizeof(float));
}

// Output rows [lo, hi) whose tap at kernel offset `kk` lands inside an
// input extent of `size`: those with 0 <= i + kk - pad < size.
inline void ValidRange(size_t size, size_t out, size_t kk, size_t pad,
                       size_t* lo, size_t* hi) {
  *lo = pad > kk ? pad - kk : 0;
  *hi = size + pad > kk ? std::min(out, size + pad - kk) : 0;
}

}  // namespace

void Im2Col(const float* x, size_t channels, size_t h, size_t w,
            size_t kernel, size_t pad, float* col) {
  DPBR_CHECK_GE(h + 2 * pad + 1, kernel);
  DPBR_CHECK_GE(w + 2 * pad + 1, kernel);
  size_t ph = h + 2 * pad;
  size_t pw = w + 2 * pad;
  size_t oh = ph - kernel + 1;
  size_t ow = pw - kernel + 1;
  size_t q = oh * ow;  // columns per row
  // Zero-pad the image once, so every tap row below is a plain copy.
  float* padded = ThreadPanel(kPanelSlotPad, channels * ph * pw);
  for (size_t ic = 0; ic < channels; ++ic) {
    float* plane = padded + ic * ph * pw;
    std::fill_n(plane, pad * pw, 0.0f);
    for (size_t i = 0; i < h; ++i) {
      float* dst = plane + (pad + i) * pw;
      std::fill_n(dst, pad, 0.0f);
      CopyRow(x + (ic * h + i) * w, dst + pad, w);
      std::fill_n(dst + pad + w, pad, 0.0f);
    }
    std::fill_n(plane + (pad + h) * pw, pad * pw, 0.0f);
  }
  // Row (ic, kh, kw), output row i is padded row i + kh from column kw.
  for (size_t ic = 0; ic < channels; ++ic) {
    for (size_t kh = 0; kh < kernel; ++kh) {
      for (size_t kw = 0; kw < kernel; ++kw) {
        const float* src = padded + (ic * ph + kh) * pw + kw;
        float* row = col + ((ic * kernel + kh) * kernel + kw) * q;
        for (size_t i = 0; i < oh; ++i) {
          CopyRow(src + i * pw, row + i * ow, ow);
        }
      }
    }
  }
}

void Col2ImAccumulate(const float* col, size_t channels, size_t h, size_t w,
                      size_t kernel, size_t pad, float* dx) {
  DPBR_CHECK_GE(h + 2 * pad + 1, kernel);
  DPBR_CHECK_GE(w + 2 * pad + 1, kernel);
  size_t oh = h + 2 * pad - kernel + 1;
  size_t ow = w + 2 * pad - kernel + 1;
  size_t q = oh * ow;
  for (size_t ic = 0; ic < channels; ++ic) {
    float* plane = dx + ic * h * w;
    for (size_t kh = 0; kh < kernel; ++kh) {
      size_t i_lo, i_hi;
      ValidRange(h, oh, kh, pad, &i_lo, &i_hi);
      for (size_t kw = 0; kw < kernel; ++kw) {
        size_t j_lo, j_hi;
        ValidRange(w, ow, kw, pad, &j_lo, &j_hi);
        if (j_lo >= j_hi) continue;
        size_t n = j_hi - j_lo;
        const float* row = col + ((ic * kernel + kh) * kernel + kw) * q;
        for (size_t i = i_lo; i < i_hi; ++i) {
          const float* src = row + i * ow + j_lo;
          float* dst = plane + (i + kh - pad) * w + (j_lo + kw - pad);
          for (size_t j = 0; j < n; ++j) dst[j] += src[j];
        }
      }
    }
  }
}

}  // namespace nn
}  // namespace dpbr
