#include "nn/gemm.h"

#include <algorithm>
#include <cstring>

#include "common/logging.h"
#include "common/simd.h"
#include "common/thread_pool.h"

namespace dpbr {
namespace nn {
namespace {

// Rows of C handled by one parallel task. Derived from nothing but this
// constant and m, so the work split — and therefore every accumulation
// sequence — is independent of the pool size.
constexpr size_t kRowBlock = 8;

// k-panel height for the rank-1-update kernels: a panel of B rows is
// streamed once per block of C rows, keeping it hot in L1/L2. Tiling
// only reorders *loads*; each C element still accumulates its products
// in ascending-p order, so the tile size never changes results.
constexpr size_t kPanelK = 64;

// j-tile width for the dot-product (NT) kernel: a tile of B rows stays
// cached while every A row is dotted against it.
constexpr size_t kTileN = 32;

// Column-tile width for the NN kernel. Wide outputs (the batched conv
// panel is N·OH·OW columns) are cut into tiles so one C-row tile (4 KB)
// stays in L1 across the whole ascending-p sweep instead of being
// re-streamed from L2 once per panel row. Column tiling never touches an
// element's accumulation order, so results are unchanged; it only adds a
// second parallelism axis (row blocks × column tiles).
constexpr size_t kColTileNN = 1024;

// Serial NN kernel on the C tile [i0, i1) × [j0, j1).
void GemmNNTile(size_t i0, size_t i1, size_t j0, size_t j1, size_t k,
                size_t n, const float* a, const float* b, float* c,
                const float* row_init) {
  size_t jn = j1 - j0;
  for (size_t i = i0; i < i1; ++i) {
    float* crow = c + i * n + j0;
    if (row_init != nullptr) {
      for (size_t j = 0; j < jn; ++j) crow[j] = row_init[i];
    } else {
      std::memset(crow, 0, jn * sizeof(float));
    }
  }
  const simd::SimdKernels& kern = simd::Kernels();
  for (size_t p0 = 0; p0 < k; p0 += kPanelK) {
    size_t p1 = std::min(k, p0 + kPanelK);
    for (size_t i = i0; i < i1; ++i) {
      const float* arow = a + i * k;
      float* crow = c + i * n + j0;
      for (size_t p = p0; p < p1; ++p) {
        const float* brow = b + p * n + j0;
        kern.axpy_f32(arow[p], brow, crow, jn);
      }
    }
  }
}

// Serial TN kernel on a block of C rows [i0, i1): C = Aᵀ·B, A is (k×m).
void GemmTNRows(size_t i0, size_t i1, size_t m, size_t k, size_t n,
                const float* a, const float* b, float* c) {
  for (size_t i = i0; i < i1; ++i) {
    std::memset(c + i * n, 0, n * sizeof(float));
  }
  const simd::SimdKernels& kern = simd::Kernels();
  for (size_t p0 = 0; p0 < k; p0 += kPanelK) {
    size_t p1 = std::min(k, p0 + kPanelK);
    for (size_t i = i0; i < i1; ++i) {
      float* crow = c + i * n;
      for (size_t p = p0; p < p1; ++p) {
        kern.axpy_f32(a[p * m + i], b + p * n, crow, n);
      }
    }
  }
}

// Serial NT kernel on a block of C rows [i0, i1): C = A·Bᵀ, B is (n×k).
// The per-element dot is simd dot8_f32 — eight fixed interleaved chains
// (lane l sums p ≡ l (mod 8), lanes combined in a fixed tree), whose
// lane assignment depends only on k, so the value is reproducible and
// identical on every dispatch tier (the historical DotChained fold).
void GemmNTRows(size_t i0, size_t i1, size_t k, size_t n, const float* a,
                const float* b, float* c, bool accumulate) {
  const simd::SimdKernels& kern = simd::Kernels();
  for (size_t j0 = 0; j0 < n; j0 += kTileN) {
    size_t j1 = std::min(n, j0 + kTileN);
    for (size_t i = i0; i < i1; ++i) {
      const float* arow = a + i * k;
      float* crow = c + i * n;
      for (size_t j = j0; j < j1; ++j) {
        float d = kern.dot8_f32(arow, b + j * k, k);
        crow[j] = accumulate ? crow[j] + d : d;
      }
    }
  }
}

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
  // 2-d work split: tasks are (row block, column tile) pairs, derived
  // from (m, n) and compile-time constants only — never the pool size.
  size_t col_tiles = (n + kColTileNN - 1) / kColTileNN;
  size_t row_blocks = (m + kRowBlock - 1) / kRowBlock;
  ParallelForBlocked(row_blocks * col_tiles, 1, [&](size_t t0, size_t t1) {
    for (size_t t = t0; t < t1; ++t) {
      size_t i0 = (t / col_tiles) * kRowBlock;
      size_t j0 = (t % col_tiles) * kColTileNN;
      GemmNNTile(i0, std::min(m, i0 + kRowBlock), j0,
                 std::min(n, j0 + kColTileNN), k, n, a, b, c, row_init);
    }
  });
}

void GemmNNSerialRow(size_t k, size_t n, const float* a, const float* b,
                     float* c, const float* row_init) {
  if (n == 0) return;
  for (size_t j0 = 0; j0 < n; j0 += kColTileNN) {
    GemmNNTile(0, 1, j0, std::min(n, j0 + kColTileNN), k, n, a, b, c,
               row_init);
  }
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
    for (size_t ex = e0; ex < e1; ++ex) {
      fill_panel(ex, panel);
      float* cx = c + ex * m * n;
      for (size_t i0 = 0; i0 < m; i0 += kRowBlock) {
        for (size_t j0 = 0; j0 < n; j0 += kColTileNN) {
          GemmNNTile(i0, std::min(m, i0 + kRowBlock), j0,
                     std::min(n, j0 + kColTileNN), k, n, a, panel, cx,
                     row_init);
        }
      }
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
    for (size_t ex = e0; ex < e1; ++ex) {
      fill_b(ex, panel);
      // All m rows serially: identical per-element dot8_f32 values to
      // a GemmNT over the same operands, which only splits these rows.
      GemmNTRows(0, m, k, n, a + ex * a_stride, panel, c_of(ex),
                 accumulate);
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
    for (size_t ex = e0; ex < e1; ++ex) {
      GemmTNRows(0, m, m, k, n, a, b + ex * b_stride, panel);
      consume(ex, panel);
    }
  });
}

void GemmNT(size_t m, size_t k, size_t n, const float* a, const float* b,
            float* c, bool accumulate) {
  if (m == 0 || n == 0) return;
  ParallelForBlocked(m, kRowBlock, [&](size_t lo, size_t hi) {
    GemmNTRows(lo, hi, k, n, a, b, c, accumulate);
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
