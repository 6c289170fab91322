// Threaded GEMM drivers over the register-blocked SIMD tiles, and the
// per-layer workspace arena the nn compute layer runs on.
//
// Every product runs through one of two simd::SimdKernels entries:
// gemm_nn_tile_f32 (NN, and TN by reading A transposed in place) and
// gemm_nt_tile_f32. Each fixes every output element's accumulation order
// (ascending-p multiply-then-add; the pinned dot8 fold) independently of
// its tile, tier and schedule. Work is split across rows of the output
// matrix, or across examples, with block boundaries derived from the
// problem shape only. Calling the same kernel under pool sizes 1, 2 and
// N, on any SIMD tier, therefore yields bit-identical results (the
// contract tests/nn/kernel_equivalence_test.cc enforces).
//
// Hooks are FunctionRef, not std::function: the batched kernels invoke
// them synchronously inside dispatch bodies, so the call sites construct
// a two-word borrow instead of a possibly-allocating wrapper (the
// hot-path lint bans allocation inside ParallelFor bodies).
//
// Layers call these kernels through a Workspace they own, so hot-loop
// invocations reuse grow-only scratch buffers instead of allocating.

#ifndef DPBR_NN_GEMM_H_
#define DPBR_NN_GEMM_H_

#include <cstddef>
#include <deque>
#include <vector>

#include "common/function_ref.h"

namespace dpbr {
namespace nn {

/// Grow-only scratch-buffer arena. Each slot is a persistent buffer that
/// is resized (never shrunk) on request; repeated calls with the same
/// shapes perform no allocation and no clearing after the first — slots
/// whose every element the caller overwrites carry zero steady-state
/// cost. A Workspace belongs to exactly one layer instance and is not
/// thread-safe — layers already serve one example (or one microbatch) at
/// a time. Float and double slots live in independent index spaces.
class Workspace {
 public:
  /// Returns slot `slot` grown to hold at least `n` floats. The pointer
  /// is stable until the next Get() on the same slot with a larger `n`.
  float* Get(size_t slot, size_t n);

  /// Double-precision counterpart of Get() (e.g. GroupNorm's per-group
  /// 1/std, which the kernels compute in double).
  double* GetDouble(size_t slot, size_t n);

 private:
  std::deque<std::vector<float>> buffers_;
  std::deque<std::vector<double>> dbuffers_;
};

// --- Per-thread panel arena -----------------------------------------
//
// The batched kernels stream transient per-example panels through
// per-thread grow-only scratch: one buffer per (thread, slot), reused
// across examples and dispatches, never shrunk. Panel contents never
// outlive the example that filled them, so the sharing cannot change
// any output bit. The slot map keeps nested callers disjoint — the
// batch-1 GemmBatchedTN inside a GemmBatchedNT epilogue never fills the
// panel its caller was handed.

/// Slots used internally by GemmBatchedNN / GemmBatchedNT /
/// GemmBatchedTN for their streamed operand panels.
constexpr size_t kPanelSlotNNFill = 0;
constexpr size_t kPanelSlotNTFill = 1;
constexpr size_t kPanelSlotTNOut = 2;

/// Returns the calling thread's panel `slot` grown to at least `n`
/// floats. Grow-only and thread-local: after warm-up no call allocates,
/// which is what lets dispatch bodies use it freely.
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

/// Serial single-row NN GEMM: c (1×n) = a (1×k) · B (k×n), with row 0 of
/// c starting from the scalar row_init[0] when non-null. Runs the same
/// NN tile GemmNN dispatches, so the per-element ascending-p values
/// are bitwise identical to GemmNN(1, k, n, ...) — the primitive for
/// batched dispatches that compute one dX row per example inside their
/// own task (Linear::BackwardBatch).
void GemmNNSerialRow(size_t k, size_t n, const float* a, const float* b,
                     float* c, const float* row_init = nullptr);

/// Batched NN GEMM sharing one left operand: for each ex in [0, batch),
/// C_ex (m×n) = A (m×k) · B_ex (k×n) with C_ex = c + ex·m·n. Bitwise
/// identical to calling GemmNN per example — same per-element
/// ascending-p accumulation — but the whole batch is one parallel
/// dispatch (one pool barrier instead of `batch`) split across examples
/// by the shape only, so it is pool-size invariant like every other
/// kernel here. The right operands are streamed, not materialized:
/// fill_panel(ex, panel) is called inside example ex's task to write the
/// k×n matrix B_ex into `panel`, a per-thread grow-only scratch buffer
/// that is consumed immediately while cache-hot (its contents are
/// transient, so sharing it per thread cannot affect results). This is
/// the batched conv forward kernel: fill_panel is Im2Col and C the
/// (N, OC, OH·OW) output tensor written in place.
void GemmBatchedNN(size_t m, size_t k, size_t n, size_t batch,
                   const float* a, float* c, const float* row_init,
                   FunctionRef<void(size_t ex, float* panel)> fill_panel);

// --- Batched backward GEMM stack ------------------------------------
//
// The backward twins of GemmBatchedNN: each runs a whole microbatch of
// per-example panel GEMMs as ONE parallel dispatch, split across
// examples by the shape only (pool-size invariant), with each example's
// product computed serially inside its task in a fixed per-element
// accumulation order — so an example's result never depends on the
// batch it rides in. Panels live in grow-only per-thread scratch that
// never outlives its example.
//
// Composition contract: at batch == 1 these drivers never touch the pool
// (ParallelFor's single-iteration inline path), so they are dispatch-
// free when called from another batched dispatch's hook. That is how
// Conv2d::BackwardBatch runs its entire backward — dW/db rows into the
// PerExampleGradSink, dX through col2im — as a single dispatch: one
// GemmBatchedNT whose epilogue folds in the bias row-sums and a
// batch-1 GemmBatchedTN per example.

/// Batched NT GEMM with streamed right panels: for each ex in [0,batch),
///   C_ex (m×n) (+)= A_ex (m×k) · B_ex (n×k)ᵀ
/// where A_ex = a + ex·a_stride and B_ex is written into a per-thread
/// panel by fill_b(ex, panel) right before it is consumed cache-hot
/// (Conv2d's backward fills it with Im2Col). C_ex = c_of(ex) is written
/// in place — a
/// PerExampleGradSink row in the backward, so per-example dW rows land
/// exactly where DP clipping reads them, with `accumulate` matching the
/// sink's accumulate-onto-prezeroed-rows contract. Per-element values
/// are GemmNT's dot8 folds bit for bit. The optional
/// epilogue(ex, panel) runs inside the same task after the product, with
/// the filled panel still valid — the hook for the rest of an
/// example's backward (bias row sums, the dX panel product), which is
/// what makes a whole layer backward a single dispatch.
void GemmBatchedNT(
    size_t m, size_t k, size_t n, size_t batch, const float* a,
    size_t a_stride, FunctionRef<void(size_t ex, float* panel)> fill_b,
    FunctionRef<float*(size_t ex)> c_of, bool accumulate = false,
    FunctionRef<void(size_t ex, const float* panel)> epilogue = {});

/// Batched TN GEMM with consumed output panels: for each ex in [0,batch),
///   P_ex (m×n) = Aᵀ · B_ex
/// for the shared row-major A (k×m) and B_ex = b + ex·b_stride, computed
/// into a per-thread panel (ascending-p accumulation, as in GemmNN) and
/// handed to consume(ex, panel) while cache-hot. Conv2d's backward
/// consumes the column-space gradient panel with Col2ImAccumulate to
/// scatter it onto the example's dX slice, so the materialized K×Q
/// matrix never leaves the thread that produced it.
void GemmBatchedTN(size_t m, size_t k, size_t n, size_t batch,
                   const float* a, const float* b, size_t b_stride,
                   FunctionRef<void(size_t ex, const float* panel)> consume);

/// C (m×n) = (or +=) A (m×k) · Bᵀ for row-major B (n×k). Each element is
/// the simd dot8_f32 value of two unit-stride rows: eight fixed
/// interleaved partial sums (lane l takes p ≡ l mod 8) combined in a
/// fixed tree — deterministic and SIMD-friendly without -ffast-math.
void GemmNT(size_t m, size_t k, size_t n, const float* a, const float* b,
            float* c, bool accumulate = false);

/// Expands a (C, H, W) image into the (C·kh·kw) × (OH·OW) column matrix
/// of a stride-1, symmetrically zero-padded convolution. Row r encodes
/// (ic, kh, kw) in row-major order; column q encodes (oh, ow). Out-of-
/// bounds taps are written as 0.
void Im2Col(const float* x, size_t channels, size_t h, size_t w,
            size_t kernel, size_t pad, float* col);


/// Scatter-adds a column-matrix gradient back onto the (C, H, W) image
/// gradient: the exact adjoint of Im2Col. `dx` must be pre-zeroed (or
/// hold a partial gradient to accumulate onto). Parallel across channels;
/// the per-channel accumulation order is fixed by (kernel, shape) only.
void Col2ImAccumulate(const float* col, size_t channels, size_t h, size_t w,
                      size_t kernel, size_t pad, float* dx);

}  // namespace nn
}  // namespace dpbr

#endif  // DPBR_NN_GEMM_H_
