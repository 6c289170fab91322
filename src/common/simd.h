// Runtime-dispatched SIMD kernel layer for the hot inner loops.
//
// Layering (the avx_traits idiom): `simd_traits.h` defines width-templated
// intrinsic traits (SSE2 / AVX2 / AVX-512) plus generic kernels written
// once against the trait interface, and one helper that fills every
// generic slot of a table from them. Each ISA gets its own translation
// unit, compiled with exactly the -m flags it needs, that adds only its
// ISA-specific kernels (the transpose tiles, the ziggurat batches); this
// header exposes one table of function pointers per ISA. A one-time CPUID
// probe (plus the DPBR_FORCE_SCALAR environment override) picks the active
// table; hot loops fetch it via Kernels() and stay ISA-agnostic.
//
// Determinism contract:
//  * The scalar kernels in simd.cc are the bitwise reference. Every SIMD
//    kernel must produce bit-identical output to its scalar twin — the
//    equivalence suite (tests/common/simd_test.cc) enforces this on every
//    ISA the host supports, including NaN/±0/denormal/±Inf payloads.
//  * Element-wise kernels (axpy, activations, GroupNorm sweeps) vectorize
//    without reassociating anything, so bitwise equality is structural.
//  * The GEMM tiles keep a block of C in registers across the whole k
//    sweep, but each element's sequence of operations is fixed by the
//    kernel's definition: ascending-p multiply-then-add for the NN tile,
//    the dot8 fold for the NT tile. Register-tile shapes differ per tier;
//    values do not. One exception to bitwise: where two NaN operands
//    meet, x86 keeps the first operand's payload and compilers order
//    commutative adds and multiplies freely, so a NaN result stays NaN
//    but its payload is not pinned.
//  * Reductions (the NT tile's dot8, distsq8, sum8) use a PINNED 8-lane
//    fold: lane l accumulates elements with index ≡ l (mod 8) and the lanes
//    combine in a fixed tree, regardless of the ISA's native width. The
//    fold order is part of the kernel's definition — scalar and SIMD
//    agree bitwise, and results are pool-size- and ISA-invariant — but it
//    differs from a naive sequential sum by ordinary float/double
//    reassociation error (covered by explicit-tolerance tests).
//  * The ziggurat fast-path kernel reproduces the scalar rejection
//    sampler's stream exactly: it only vectorizes the accepted prefix of
//    a batch of counter-indexed draws and hands the first rejected draw
//    back to the scalar wedge/tail code. It computes four 8-draw batches
//    ahead (counters c, c+8, c+16, c+24) and commits their accepted
//    prefixes in order, so no batch waits on the previous one's accept
//    mask; batches past the first rejection are discarded.
//
// Thread-safety: the active table is an atomic pointer resolved once at
// first use. ScopedForceIsa may retarget it between parallel dispatches
// (tests and benches do); never while a dispatch is in flight.

#ifndef DPBR_COMMON_SIMD_H_
#define DPBR_COMMON_SIMD_H_

#include <cstddef>
#include <cstdint>

namespace dpbr {
namespace simd {

/// Instruction-set tiers, in increasing order of capability.
enum class IsaLevel : int {
  kScalar = 0,
  kSse2 = 1,
  kAvx2 = 2,
  kAvx512 = 3,
};

/// Human-readable name ("scalar", "sse2", "avx2", "avx512").
const char* IsaName(IsaLevel level);

/// The pinned fold width for the chained reductions. Independent of the
/// ISA's native vector width so that the NT tile's dot8, distsq8 and
/// sum8 return the same bits on every dispatch tier.
constexpr size_t kFoldLanes = 8;

/// One table of kernel entry points per ISA tier. All pointers are
/// non-null in every table (a tier without its own transpose takes the
/// next lower tier's), except zig_try_fill_f32 which may be null (caller
/// falls back to the scalar rejection loop).
struct SimdKernels {
  IsaLevel isa;

  /// y[i] += a * x[i]. Multiply-then-add per element, never fused, so
  /// every accumulation chain matches the scalar reference bitwise.
  void (*axpy_f32)(float a, const float* x, float* y, size_t n);

  /// y[i] *= a.
  void (*scale_f32)(float a, float* y, size_t n);

  /// The momentum fold and its norm in one pass: phi[i] = beta·phi[i] +
  /// omb·g[i] (two products, one sum, never fused: the bits of
  /// scale_f32(beta, phi) then axpy_f32(omb, g, phi)), returning the new
  /// phi's eight-chain double sum of squares in ops::ChainedSquaredNorm's
  /// order (chain k takes i ≡ k mod 8, the n % 8 tail goes to chain 0,
  /// fixed combine tree).
  double (*momentum_fold_f32)(float beta, float omb, const float* g,
                              float* phi, size_t n);

  /// Register-blocked NN GEMM tile: for r < rows, j < cols,
  ///   c[r·ldc + j] = init_r + Σ_{p<k} a[r·a_rs + p·a_cs] · b[p·ldb + j]
  /// with init_r = row_init ? row_init[r] : 0. Each element starts at
  /// init_r and adds one product per p in ascending order, multiply then
  /// add, never fused — the exact sequence of an axpy_f32 per (row, p).
  /// (a_rs, a_cs) = (k, 1) reads a row-major m×k A (NN); (1, m) reads
  /// the transpose of a row-major k×m A (TN). c must not alias a or b.
  void (*gemm_nn_tile_f32)(size_t rows, size_t cols, size_t k,
                           const float* a, size_t a_rs, size_t a_cs,
                           const float* b, size_t ldb, const float* row_init,
                           float* c, size_t ldc);

  /// Register-blocked NT GEMM tile: for r < rows, j < cols,
  ///   d = dot8(a + r·lda, b + j·ldb, k)
  ///   c[r·ldc + j] = accumulate ? c[r·ldc + j] + d : d
  /// where dot8 is the 8-chain float dot product: lane l sums
  /// a[p]·b[p] for p ≡ l (mod 8), multiply then add, and the lanes
  /// combine ((s01+s23)+(s45+s67)) with sJK = accJ+accK.
  void (*gemm_nt_tile_f32)(size_t rows, size_t cols, size_t k,
                           const float* a, size_t lda, const float* b,
                           size_t ldb, bool accumulate, float* c,
                           size_t ldc);

  /// 8-chain double squared distance: lane l sums
  /// (double(a[p])-double(b[p]))² for p ≡ l (mod 8), same combine tree.
  double (*distsq8_f64)(const float* a, const float* b, size_t n);

  /// 8-chain double sum of float elements, same lane/combine structure.
  double (*sum8_f64)(const float* x, size_t n);

  /// In place ELU (α = 1): y[i] = y[i] > 0 ? y[i] : exp(y[i]) - 1. The
  /// exp stays scalar libm (the bitwise reference); vector code only
  /// skips all-positive blocks, so this kernel is exp-bound on mixed signs.
  void (*elu_f32)(float* y, size_t n);

  /// g[i] = y[i] <= 0 ? g[i] * (y[i] + 1) : g[i].
  void (*elu_grad_f32)(float* g, const float* y, size_t n);

  /// GroupNorm normalize sweep: xhat[i] = float((x[i]-mean)*inv_std) in
  /// double, y[i] = gamma*xhat[i] + beta in float (mul then add).
  void (*gnorm_norm_f32)(const float* x, size_t n, double mean,
                         double inv_std, float gamma, float beta,
                         float* xhat, float* y);

  /// GroupNorm input-gradient sweep, all double until the final cast:
  /// dxhat = double(dy[i]) * gamma;
  /// dx[i] = float(inv_std * ((dxhat - mean_dxhat)
  ///                          - double(xhat[i]) * mean_dxhat_xhat)).
  void (*gnorm_dx_f32)(const float* dy, const float* xhat, size_t n,
                       double gamma, double mean_dxhat,
                       double mean_dxhat_xhat, double inv_std, float* dx);

  /// True iff every element is finite (no NaN/±Inf).
  bool (*all_finite_f32)(const float* x, size_t n);

  /// dst[c*dst_stride + r] = src[r*src_stride + c] for r<rows, c<cols.
  /// Pure data movement (the aggregator selection-tile gather).
  void (*transpose_f32)(const float* src, size_t src_stride, size_t rows,
                        size_t cols, float* dst, size_t dst_stride);

  /// Vectorized ziggurat fast path, or null (scalar loop). Attempts
  /// draws for counters counter, counter+1, ... using the SplitMix64
  /// stream Mix64(key + counter) and tables w/kcut (256 entries each);
  /// writes the accepted prefix to out (g = float(stddev * ±j*w[layer]);
  /// accumulate adds instead of stores) and returns its length
  /// (= Next64 draws consumed). Stops at the first draw needing the
  /// exact wedge/tail fallback, or after max_n accepted draws.
  size_t (*zig_try_fill_f32)(uint64_t key, uint64_t counter,
                             const double* w, const uint64_t* kcut,
                             double stddev, bool accumulate, float* out,
                             size_t max_n);
};

/// The active kernel table (atomic pointer; see header comment).
const SimdKernels& Kernels();

/// Tier of the active table.
IsaLevel ActiveIsa();

/// Best tier this build + CPU supports, ignoring every override.
IsaLevel DetectedIsa();

/// True when the DPBR_FORCE_SCALAR environment variable requests the
/// scalar tier (value 1/true/yes/on).
bool ForceScalarFromEnv();

/// Table for an explicit tier, or nullptr when the build or the CPU
/// cannot run it. KernelsFor(kScalar) never returns null.
const SimdKernels* KernelsFor(IsaLevel level);

/// RAII override of the active table for tests and benchmarks. Aborts if
/// the requested tier is unavailable (callers should probe KernelsFor
/// and skip). Toggle only between parallel dispatches.
class ScopedForceIsa {
 public:
  explicit ScopedForceIsa(IsaLevel level);
  ~ScopedForceIsa();

  ScopedForceIsa(const ScopedForceIsa&) = delete;
  ScopedForceIsa& operator=(const ScopedForceIsa&) = delete;

 private:
  IsaLevel prev_;
};

}  // namespace simd
}  // namespace dpbr

#endif  // DPBR_COMMON_SIMD_H_
