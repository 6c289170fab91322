// Serial GEMM entry points over the register-blocked SIMD tiles, and the
// conv data movement around them.
//
// Every product is one call of one simd::SimdKernels entry:
// gemm_nn_tile_f32 (NN, and TN by reading A transposed in place) or
// gemm_nt_tile_f32. Each fixes every output element's accumulation order
// (ascending-p multiply-then-add; the pinned dot8 fold) independently of
// its tile and tier, so results are bit-identical on any SIMD tier (the
// contract tests/nn/kernel_equivalence_test.cc enforces).
//
// The conv data movement around the tiles is plain portable C++ with no
// table call: Im2Col only copies (through a zero-padded per-thread
// panel, so the copies need no bounds checks) and Col2ImAccumulate adds
// each tap once in a fixed order, so both are bitwise the same on every
// tier (tests/nn/im2col_test.cc pins them to their row-wise references).
//
// Nothing here touches the thread pool: every nn pass runs on the
// calling thread. A federated round parallelizes across its local-step
// examples, server-gradient rows and evaluated examples, one pass per
// pool task.

#ifndef DPBR_NN_GEMM_H_
#define DPBR_NN_GEMM_H_

#include <cstddef>

namespace dpbr {
namespace nn {

// --- Per-thread panel arena -----------------------------------------
//
// Conv2d streams each example's transient panels through per-thread
// grow-only scratch: one buffer per (thread, slot), shared by every layer
// the thread runs and reused across examples, never shrunk. Panel
// contents never outlive the example that filled them, so the sharing
// cannot change any output bit.

/// The im2col panel of the example being processed.
constexpr size_t kPanelSlotCol = 0;
/// The column-space input gradient Wᵀ·dY, before col2im scatters it.
constexpr size_t kPanelSlotDcol = 1;
/// Im2Col's zero-padded copy of the example's (C, H+2p, W+2p) image.
constexpr size_t kPanelSlotPad = 2;

/// Returns the calling thread's panel `slot` grown to at least `n`
/// floats. Grow-only and thread-local: after warm-up no call allocates.
float* ThreadPanel(size_t slot, size_t n);

/// C (m×n) = A (m×k) · B (k×n), all row-major. When `row_init` is
/// non-null, row i of C starts from the scalar row_init[i] (broadcast
/// across the row) instead of zero — Conv2d uses this to fold the bias
/// into the kernel the way the naive loop does. Accumulation per element
/// runs over p = 0..k-1 in ascending order (float accumulators, so the
/// result is reproducible but differs from a double-accumulated naive
/// loop in the last bits; the equivalence test bounds the gap at 1e-4).
void GemmNN(size_t m, size_t k, size_t n, const float* a, const float* b,
            float* c, const float* row_init = nullptr);

/// C (m×n) = (or +=) A (m×k) · Bᵀ for row-major B (n×k). Each element is
/// the simd NT tile's dot8 value of two unit-stride rows: eight fixed
/// interleaved partial sums (lane l takes p ≡ l mod 8) combined in a
/// fixed tree — deterministic and SIMD-friendly without -ffast-math.
void GemmNT(size_t m, size_t k, size_t n, const float* a, const float* b,
            float* c, bool accumulate = false);

/// C (m×n) = Aᵀ · B for row-major A (k×m) and B (k×n), with GemmNN's
/// ascending-p accumulation (Aᵀ is read in place, column r of A as row r
/// of Aᵀ).
void GemmTN(size_t m, size_t k, size_t n, const float* a, const float* b,
            float* c);

/// Expands a (C, H, W) image into the (C·kh·kw) × (OH·OW) column matrix
/// of a stride-1, symmetrically zero-padded convolution. Row r encodes
/// (ic, kh, kw) in row-major order; column q encodes (oh, ow). Out-of-
/// bounds taps are written as +0.
///
/// The image is first zero-padded into the calling thread's
/// kPanelSlotPad panel (C·(H+2p)·(W+2p) floats), so each of a row's OH
/// segments is an unchecked OW-float copy from a fixed offset. Every
/// element of `col` is written and is a bit-exact copy of an input
/// element or +0; nothing is computed. `col` must not alias that panel.
void Im2Col(const float* x, size_t channels, size_t h, size_t w,
            size_t kernel, size_t pad, float* col);

/// Scatter-adds a column-matrix gradient back onto the (C, H, W) image
/// gradient: the exact adjoint of Im2Col. `dx` must be pre-zeroed (or
/// hold a partial gradient to accumulate onto). Each dX element takes
/// its taps as single float adds in ascending (ic, kh, kw) order, the
/// order fixed by (kernel, shape) only; out-of-bounds taps are skipped.
void Col2ImAccumulate(const float* col, size_t channels, size_t h, size_t w,
                      size_t kernel, size_t pad, float* dx);

}  // namespace nn
}  // namespace dpbr

#endif  // DPBR_NN_GEMM_H_
