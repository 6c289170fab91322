#include "nn/gemm.h"

#include <algorithm>
#include <cstring>

#include "common/logging.h"
#include "common/simd.h"
#include "common/thread_pool.h"

namespace dpbr {
namespace nn {
namespace {

// Rows of C handled by one parallel task of GemmNN/GemmNT. Derived
// from nothing but this constant and m, so the work split is independent
// of the pool size; the tile kernels fix every element's accumulation
// order, so the split never changes a value either.
constexpr size_t kRowBlock = 8;

}  // namespace

float* ThreadPanel(size_t slot, size_t n) {
  // One grow-only arena per thread (tasks run inline or on distinct pool
  // workers, so slots are never shared across concurrent tasks). Growth
  // happens only until the high-water mark of each slot is reached;
  // steady-state calls are a lookup. The allocation lives here, outside
  // any dispatch body's text, which is the structure the hot-path lint
  // enforces: call sites inside ParallelFor bodies perform none.
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
  const simd::SimdKernels& kern = simd::Kernels();
  ParallelForBlocked(m, kRowBlock, [&](size_t lo, size_t hi) {
    kern.gemm_nn_tile_f32(hi - lo, n, k, a + lo * k, k, 1, b, n,
                          row_init != nullptr ? row_init + lo : nullptr,
                          c + lo * n, n);
  });
}

void GemmNNSerialRow(size_t k, size_t n, const float* a, const float* b,
                     float* c, const float* row_init) {
  if (n == 0) return;
  simd::Kernels().gemm_nn_tile_f32(1, n, k, a, k, 1, b, n, row_init, c, n);
}

void GemmBatchedNN(size_t m, size_t k, size_t n, size_t batch,
                   const float* a, float* c, const float* row_init,
                   FunctionRef<void(size_t ex, float* panel)> fill_panel) {
  if (m == 0 || n == 0 || batch == 0) return;
  ParallelForBlocked(batch, 1, [&](size_t e0, size_t e1) {
    // One panel per worker thread (tasks run inline or on distinct pool
    // workers): grow-only, reused across examples and dispatches, so the
    // serial case keeps a single cache-hot panel. Panel contents never
    // outlive the example's tiles, so this sharing cannot change any
    // output bit.
    float* panel = ThreadPanel(kPanelSlotNNFill, k * n);
    const simd::SimdKernels& kern = simd::Kernels();
    for (size_t ex = e0; ex < e1; ++ex) {
      fill_panel(ex, panel);
      kern.gemm_nn_tile_f32(m, n, k, a, k, 1, panel, n, row_init,
                            c + ex * m * n, n);
    }
  });
}

void GemmBatchedNT(
    size_t m, size_t k, size_t n, size_t batch, const float* a,
    size_t a_stride, FunctionRef<void(size_t ex, float* panel)> fill_b,
    FunctionRef<float*(size_t ex)> c_of, bool accumulate,
    FunctionRef<void(size_t ex, const float* panel)> epilogue) {
  if (m == 0 || n == 0 || batch == 0) return;
  ParallelForBlocked(batch, 1, [&](size_t e0, size_t e1) {
    // One B panel per worker thread, grow-only across examples and
    // dispatches (see GemmBatchedNN). Distinct from the TN panel, so an
    // epilogue that runs a batch-1 GemmBatchedTN (Conv2d's dX) cannot
    // clobber the panel it was handed.
    float* panel = ThreadPanel(kPanelSlotNTFill, n * k);
    const simd::SimdKernels& kern = simd::Kernels();
    for (size_t ex = e0; ex < e1; ++ex) {
      fill_b(ex, panel);
      // All m rows in one tile call: identical per-element dot8_f32
      // values to a GemmNT over the same operands, which only splits
      // these rows.
      kern.gemm_nt_tile_f32(m, n, k, a + ex * a_stride, k, panel, k,
                            accumulate, c_of(ex), n);
      if (epilogue) epilogue(ex, panel);
    }
  });
}

void GemmBatchedTN(
    size_t m, size_t k, size_t n, size_t batch, const float* a,
    const float* b, size_t b_stride,
    FunctionRef<void(size_t ex, const float* panel)> consume) {
  if (m == 0 || n == 0 || batch == 0) return;
  ParallelForBlocked(batch, 1, [&](size_t e0, size_t e1) {
    float* panel = ThreadPanel(kPanelSlotTNOut, m * n);
    const simd::SimdKernels& kern = simd::Kernels();
    for (size_t ex = e0; ex < e1; ++ex) {
      // Aᵀ read in place: row r of Aᵀ is column r of A, stride m.
      kern.gemm_nn_tile_f32(m, n, k, a, 1, m, b + ex * b_stride, n, nullptr,
                            panel, n);
      consume(ex, panel);
    }
  });
}

void GemmNT(size_t m, size_t k, size_t n, const float* a, const float* b,
            float* c, bool accumulate) {
  if (m == 0 || n == 0) return;
  const simd::SimdKernels& kern = simd::Kernels();
  ParallelForBlocked(m, kRowBlock, [&](size_t lo, size_t hi) {
    kern.gemm_nt_tile_f32(hi - lo, n, k, a + lo * k, k, b, k, accumulate,
                          c + lo * n, n);
  });
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
  // Channels touch disjoint slices of both `col` and `dx`, so the split
  // is race-free and each channel's accumulation order is fixed.
  ParallelForBlocked(channels, 1, [&](size_t c0, size_t c1) {
    for (size_t ic = c0; ic < c1; ++ic) {
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
            simd::Kernels().add_f32(src, dst, j_hi - j_lo);
          }
        }
      }
    }
  });
}

}  // namespace nn
}  // namespace dpbr
