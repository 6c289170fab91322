// Width-templated intrinsic traits and the generic kernels built on them.
//
// Included ONLY by the per-ISA translation units (simd_sse2.cc,
// simd_avx2.cc, simd_avx512.cc), each compiled with exactly the -m flags
// its trait needs; simd.h stays intrinsic-free. Every trait exposes the
// same static interface:
//
//   VF / kF        native float vector type / lane count
//   VD / kD        native double vector type / lane count (kD = kF / 2)
//   MF             float compare-mask type (vector or AVX-512 k-mask)
//   Set1F/LoadF/StoreF/AddF/SubF/MulF        float vector ops (never FMA)
//   Set1D/StoreD/AddD/SubD/MulD              double vector ops
//   CvtLoF2D/CvtHiF2D/CvtD2F                 float<->double widen/narrow
//   CmpLeZeroF/SelectF                       ordered compare vs 0, blend
//   AllGtZeroF/AllFiniteF                    whole-vector predicates
//   V8 / kJ8                                 pinned-fold view: one dot8
//                                            accumulator per kJ8 columns
//   Zero8/LoadA8/LoadB8/AddMul8/Store8/Fold8 fold-view ops (never FMA;
//                                            Fold8 is the dot8 tree)
//   kNnRows/kNnVecs/kNtRows/kNtGroups        GEMM register-tile shapes
//
// Kernels8<Traits> then implements the element-wise kernel bodies and
// the chained double reductions (the momentum fold's sum of squares,
// distsq8, sum8: one pinned 8-lane fold, Fold8F64, whatever the vector
// width) once, and GemmTiles<Traits> the register-blocked GEMM tiles.
// GenericTable fills every one of those slots, so an ISA's table builder
// sets only its tier and what is hand-written in its translation unit:
// the transpose tiles (SSE2, AVX2) and the ziggurat batches (AVX2,
// AVX-512), whose shuffles and gathers have no trait form.
// ZigPipelinedFill is the ziggurat commit loop those two batches share.
//
// All kernels handle arbitrary n: full vectors in the main loop, then a
// scalar tail that never reads or writes past index n-1 (the equivalence
// suite runs exact-sized heap buffers under ASan to enforce this).

#ifndef DPBR_COMMON_SIMD_TRAITS_H_
#define DPBR_COMMON_SIMD_TRAITS_H_

#include <cmath>
#include <cstddef>
#include <cstdint>

#include "common/simd.h"

#if defined(__SSE2__)
#include <immintrin.h>
#endif

namespace dpbr {
namespace simd {
namespace detail {

#if defined(__SSE2__)

struct TraitsSse2 {
  using VF = __m128;
  using VD = __m128d;
  using MF = __m128;
  static constexpr size_t kF = 4;
  static constexpr size_t kD = 2;

  static VF Set1F(float a) { return _mm_set1_ps(a); }
  static VF LoadF(const float* p) { return _mm_loadu_ps(p); }
  static void StoreF(float* p, VF v) { _mm_storeu_ps(p, v); }
  static VF AddF(VF a, VF b) { return _mm_add_ps(a, b); }
  static VF SubF(VF a, VF b) { return _mm_sub_ps(a, b); }
  static VF MulF(VF a, VF b) { return _mm_mul_ps(a, b); }

  static VD Set1D(double a) { return _mm_set1_pd(a); }
  static void StoreD(double* p, VD v) { _mm_storeu_pd(p, v); }
  static VD AddD(VD a, VD b) { return _mm_add_pd(a, b); }
  static VD SubD(VD a, VD b) { return _mm_sub_pd(a, b); }
  static VD MulD(VD a, VD b) { return _mm_mul_pd(a, b); }

  static VD CvtLoF2D(VF v) { return _mm_cvtps_pd(v); }
  static VD CvtHiF2D(VF v) { return _mm_cvtps_pd(_mm_movehl_ps(v, v)); }
  static VF CvtD2F(VD lo, VD hi) {
    return _mm_movelh_ps(_mm_cvtpd_ps(lo), _mm_cvtpd_ps(hi));
  }

  static MF CmpLeZeroF(VF v) { return _mm_cmple_ps(v, _mm_setzero_ps()); }
  static VF SelectF(MF m, VF a, VF b) {
    return _mm_or_ps(_mm_and_ps(m, a), _mm_andnot_ps(m, b));
  }
  static bool AllGtZeroF(VF v) {
    return _mm_movemask_ps(_mm_cmpgt_ps(v, _mm_setzero_ps())) == 0xF;
  }
  static bool AllFiniteF(VF v) {
    VF abs = _mm_and_ps(v, _mm_castsi128_ps(_mm_set1_epi32(0x7FFFFFFF)));
    VF inf = _mm_castsi128_ps(_mm_set1_epi32(0x7F800000));
    return _mm_movemask_ps(_mm_cmplt_ps(abs, inf)) == 0xF;
  }

  // Pinned-fold view (see GemmTiles): one 8-lane dot8 accumulator per
  // kJ8 output columns — here a pair of xmm for a single column.
  struct V8 {
    __m128 lo, hi;
  };
  static constexpr size_t kJ8 = 1;
  static V8 Zero8() { return {_mm_setzero_ps(), _mm_setzero_ps()}; }
  static V8 LoadA8(const float* a) {
    return {_mm_loadu_ps(a), _mm_loadu_ps(a + 4)};
  }
  static V8 LoadB8(const float* b0, const float* /*b1*/) { return LoadA8(b0); }
  static V8 AddMul8(V8 acc, V8 x, V8 y) {
    return {AddF(acc.lo, MulF(x.lo, y.lo)), AddF(acc.hi, MulF(x.hi, y.hi))};
  }
  static void Store8(float* out, V8 v) {
    _mm_storeu_ps(out, v.lo);
    _mm_storeu_ps(out + 4, v.hi);
  }
  // out[0] = ((l0+l1)+(l2+l3)) + ((l4+l5)+(l6+l7)), the dot8 tree.
  static void Fold8(V8 v, float* out) {
    __m128 lo = AddF(v.lo, _mm_shuffle_ps(v.lo, v.lo, 0xB1));
    __m128 hi = AddF(v.hi, _mm_shuffle_ps(v.hi, v.hi, 0xB1));
    lo = AddF(lo, _mm_shuffle_ps(lo, lo, 0x4E));
    hi = AddF(hi, _mm_shuffle_ps(hi, hi, 0x4E));
    out[0] = _mm_cvtss_f32(_mm_add_ss(lo, hi));
  }

  // Register-tile shapes: NN rows × vectors, NT rows × column groups.
  static constexpr size_t kNnRows = 6;
  static constexpr size_t kNnVecs = 2;
  static constexpr size_t kNtRows = 2;
  static constexpr size_t kNtGroups = 2;
};

#endif  // __SSE2__

#if defined(__AVX2__)

struct TraitsAvx2 {
  using VF = __m256;
  using VD = __m256d;
  using MF = __m256;
  static constexpr size_t kF = 8;
  static constexpr size_t kD = 4;

  static VF Set1F(float a) { return _mm256_set1_ps(a); }
  static VF LoadF(const float* p) { return _mm256_loadu_ps(p); }
  static void StoreF(float* p, VF v) { _mm256_storeu_ps(p, v); }
  static VF AddF(VF a, VF b) { return _mm256_add_ps(a, b); }
  static VF SubF(VF a, VF b) { return _mm256_sub_ps(a, b); }
  static VF MulF(VF a, VF b) { return _mm256_mul_ps(a, b); }

  static VD Set1D(double a) { return _mm256_set1_pd(a); }
  static void StoreD(double* p, VD v) { _mm256_storeu_pd(p, v); }
  static VD AddD(VD a, VD b) { return _mm256_add_pd(a, b); }
  static VD SubD(VD a, VD b) { return _mm256_sub_pd(a, b); }
  static VD MulD(VD a, VD b) { return _mm256_mul_pd(a, b); }

  static VD CvtLoF2D(VF v) {
    return _mm256_cvtps_pd(_mm256_castps256_ps128(v));
  }
  static VD CvtHiF2D(VF v) {
    return _mm256_cvtps_pd(_mm256_extractf128_ps(v, 1));
  }
  static VF CvtD2F(VD lo, VD hi) {
    return _mm256_insertf128_ps(_mm256_zextps128_ps256(_mm256_cvtpd_ps(lo)),
                                _mm256_cvtpd_ps(hi), 1);
  }

  static MF CmpLeZeroF(VF v) {
    return _mm256_cmp_ps(v, _mm256_setzero_ps(), _CMP_LE_OQ);
  }
  static VF SelectF(MF m, VF a, VF b) { return _mm256_blendv_ps(b, a, m); }
  static bool AllGtZeroF(VF v) {
    return _mm256_movemask_ps(_mm256_cmp_ps(v, _mm256_setzero_ps(),
                                            _CMP_GT_OQ)) == 0xFF;
  }
  static bool AllFiniteF(VF v) {
    VF abs = _mm256_and_ps(
        v, _mm256_castsi256_ps(_mm256_set1_epi32(0x7FFFFFFF)));
    VF inf = _mm256_castsi256_ps(_mm256_set1_epi32(0x7F800000));
    return _mm256_movemask_ps(_mm256_cmp_ps(abs, inf, _CMP_LT_OQ)) == 0xFF;
  }

  // Pinned-fold view: one ymm is one column's 8 fold lanes.
  using V8 = __m256;
  static constexpr size_t kJ8 = 1;
  static V8 Zero8() { return _mm256_setzero_ps(); }
  static V8 LoadA8(const float* a) { return _mm256_loadu_ps(a); }
  static V8 LoadB8(const float* b0, const float* /*b1*/) {
    return _mm256_loadu_ps(b0);
  }
  static V8 AddMul8(V8 acc, V8 x, V8 y) { return AddF(acc, MulF(x, y)); }
  static void Store8(float* out, V8 v) { _mm256_storeu_ps(out, v); }
  static void Fold8(V8 v, float* out) {
    v = AddF(v, _mm256_permute_ps(v, 0xB1));
    v = AddF(v, _mm256_permute_ps(v, 0x4E));
    out[0] = _mm_cvtss_f32(
        _mm_add_ss(_mm256_castps256_ps128(v), _mm256_extractf128_ps(v, 1)));
  }

  static constexpr size_t kNnRows = 6;
  static constexpr size_t kNnVecs = 2;
  static constexpr size_t kNtRows = 4;
  static constexpr size_t kNtGroups = 2;
};

#endif  // __AVX2__

#if defined(__AVX512F__) && defined(__AVX512DQ__)

struct TraitsAvx512 {
  using VF = __m512;
  using VD = __m512d;
  using MF = __mmask16;
  static constexpr size_t kF = 16;
  static constexpr size_t kD = 8;

  static VF Set1F(float a) { return _mm512_set1_ps(a); }
  static VF LoadF(const float* p) { return _mm512_loadu_ps(p); }
  static void StoreF(float* p, VF v) { _mm512_storeu_ps(p, v); }
  static VF AddF(VF a, VF b) { return _mm512_add_ps(a, b); }
  static VF SubF(VF a, VF b) { return _mm512_sub_ps(a, b); }
  static VF MulF(VF a, VF b) { return _mm512_mul_ps(a, b); }

  static VD Set1D(double a) { return _mm512_set1_pd(a); }
  static void StoreD(double* p, VD v) { _mm512_storeu_pd(p, v); }
  static VD AddD(VD a, VD b) { return _mm512_add_pd(a, b); }
  static VD SubD(VD a, VD b) { return _mm512_sub_pd(a, b); }
  static VD MulD(VD a, VD b) { return _mm512_mul_pd(a, b); }

  static VD CvtLoF2D(VF v) {
    return _mm512_cvtps_pd(_mm512_castps512_ps256(v));
  }
  static VD CvtHiF2D(VF v) {
    return _mm512_cvtps_pd(
        _mm256_castpd_ps(_mm512_extractf64x4_pd(_mm512_castps_pd(v), 1)));
  }
  static VF CvtD2F(VD lo, VD hi) {
    // zext (not cast) of the low half: GCC's undefined-upper cast trips
    // -Wmaybe-uninitialized, and the zero-extend is free anyway.
    __m512 out = _mm512_zextps256_ps512(_mm512_cvtpd_ps(lo));
    return _mm512_castpd_ps(_mm512_insertf64x4(
        _mm512_castps_pd(out), _mm256_castps_pd(_mm512_cvtpd_ps(hi)), 1));
  }

  static MF CmpLeZeroF(VF v) {
    return _mm512_cmp_ps_mask(v, _mm512_setzero_ps(), _CMP_LE_OQ);
  }
  static VF SelectF(MF m, VF a, VF b) {
    return _mm512_mask_blend_ps(m, b, a);
  }
  static bool AllGtZeroF(VF v) {
    return _mm512_cmp_ps_mask(v, _mm512_setzero_ps(), _CMP_GT_OQ) == 0xFFFF;
  }
  static bool AllFiniteF(VF v) {
    VF abs = _mm512_abs_ps(v);
    VF inf = _mm512_castsi512_ps(_mm512_set1_epi32(0x7F800000));
    return _mm512_cmp_ps_mask(abs, inf, _CMP_LT_OQ) == 0xFFFF;
  }

  // Pinned-fold view: one zmm carries two columns' 8 fold lanes (column
  // b0 in the low half, b1 in the high half); A's 8 lanes are broadcast
  // to both halves.
  using V8 = __m512;
  static constexpr size_t kJ8 = 2;
  static V8 Zero8() { return _mm512_setzero_ps(); }
  static V8 LoadA8(const float* a) {
    return _mm512_broadcast_f32x8(_mm256_loadu_ps(a));
  }
  static V8 LoadB8(const float* b0, const float* b1) {
    return _mm512_insertf32x8(_mm512_zextps256_ps512(_mm256_loadu_ps(b0)),
                              _mm256_loadu_ps(b1), 1);
  }
  static V8 AddMul8(V8 acc, V8 x, V8 y) { return AddF(acc, MulF(x, y)); }
  static void Store8(float* out, V8 v) { _mm512_storeu_ps(out, v); }
  // Both columns' trees at once: pairs, then quads within each 128-bit
  // lane, then the two 128-bit lanes of each 256-bit half.
  static void Fold8(V8 v, float* out) {
    v = AddF(v, _mm512_permute_ps(v, 0xB1));
    v = AddF(v, _mm512_permute_ps(v, 0x4E));
    v = AddF(v, _mm512_shuffle_f32x4(v, v, 0xB1));
    out[0] = _mm512_cvtss_f32(v);
    out[1] = _mm_cvtss_f32(_mm512_extractf32x4_ps(v, 2));
  }

  static constexpr size_t kNnRows = 8;
  static constexpr size_t kNnVecs = 3;
  static constexpr size_t kNtRows = 3;
  static constexpr size_t kNtGroups = 4;
};

#endif  // __AVX512F__ && __AVX512DQ__

// Generic element-wise kernels and chained reductions over a trait.
// Each body mirrors the scalar reference in simd.cc
// operation-for-operation (multiply then add, ordered compares, doubles
// where the scalar uses doubles, the reductions' lane order), so the
// vector main loop and the scalar tail produce identical bits.
template <typename T>
struct Kernels8 {
  using VF = typename T::VF;
  using VD = typename T::VD;

  static void AxpyF32(float a, const float* x, float* y, size_t n) {
    VF va = T::Set1F(a);
    size_t i = 0;
    for (; i + T::kF <= n; i += T::kF) {
      T::StoreF(y + i, T::AddF(T::LoadF(y + i), T::MulF(va, T::LoadF(x + i))));
    }
    for (; i < n; ++i) y[i] += a * x[i];
  }

  static void ScaleF32(float a, float* y, size_t n) {
    VF va = T::Set1F(a);
    size_t i = 0;
    for (; i + T::kF <= n; i += T::kF) {
      T::StoreF(y + i, T::MulF(va, T::LoadF(y + i)));
    }
    for (; i < n; ++i) y[i] *= a;
  }

  // phi[i] = beta·phi[i] + omb·g[i] (two products, one sum, never
  // fused), then the new phi's eight-chain sum of squares (Fold8F64,
  // with the n % 8 tail on chain 0).
  static double MomentumFoldF32(float beta, float omb, const float* g,
                                float* phi, size_t n) {
    VF vb = T::Set1F(beta);
    VF vo = T::Set1F(omb);
    return Fold8F64(
        n, /*tail_to_lane0=*/true,
        [&](size_t i) {
          VF v = T::AddF(T::MulF(vb, T::LoadF(phi + i)),
                         T::MulF(vo, T::LoadF(g + i)));
          T::StoreF(phi + i, v);
          VD lo = T::CvtLoF2D(v);
          VD hi = T::CvtHiF2D(v);
          return VD2{T::MulD(lo, lo), T::MulD(hi, hi)};
        },
        [&](size_t i) {
          float v = beta * phi[i] + omb * g[i];
          phi[i] = v;
          double dv = static_cast<double>(v);
          return dv * dv;
        });
  }

  // (double(a[i]) - double(b[i]))² on the eight lanes (Fold8F64, tail
  // lanes by index).
  static double DistSq8F64(const float* a, const float* b, size_t n) {
    return Fold8F64(
        n, /*tail_to_lane0=*/false,
        [&](size_t i) {
          VF va = T::LoadF(a + i);
          VF vb = T::LoadF(b + i);
          VD lo = T::SubD(T::CvtLoF2D(va), T::CvtLoF2D(vb));
          VD hi = T::SubD(T::CvtHiF2D(va), T::CvtHiF2D(vb));
          return VD2{T::MulD(lo, lo), T::MulD(hi, hi)};
        },
        [&](size_t i) {
          double d = static_cast<double>(a[i]) - static_cast<double>(b[i]);
          return d * d;
        });
  }

  // double(x[i]) on the eight lanes (Fold8F64, tail lanes by index).
  static double Sum8F64(const float* x, size_t n) {
    return Fold8F64(
        n, /*tail_to_lane0=*/false,
        [&](size_t i) {
          VF v = T::LoadF(x + i);
          return VD2{T::CvtLoF2D(v), T::CvtHiF2D(v)};
        },
        [&](size_t i) { return static_cast<double>(x[i]); });
  }

  static void EluF32(float* y, size_t n) {
    // exp() stays scalar libm — the bitwise reference admits no vector
    // polynomial — so the vector pass only skips all-positive blocks
    // (which ELU maps to themselves).
    size_t i = 0;
    for (; i + T::kF <= n; i += T::kF) {
      if (T::AllGtZeroF(T::LoadF(y + i))) continue;
      for (size_t l = 0; l < T::kF; ++l) {
        float v = y[i + l];
        if (!(v > 0.0f)) y[i + l] = std::exp(v) - 1.0f;
      }
    }
    for (; i < n; ++i) {
      float v = y[i];
      if (!(v > 0.0f)) y[i] = std::exp(v) - 1.0f;
    }
  }

  static void EluGradF32(float* g, const float* y, size_t n) {
    VF one = T::Set1F(1.0f);
    size_t i = 0;
    for (; i + T::kF <= n; i += T::kF) {
      VF vy = T::LoadF(y + i);
      VF vg = T::LoadF(g + i);
      VF neg = T::MulF(vg, T::AddF(vy, one));
      T::StoreF(g + i, T::SelectF(T::CmpLeZeroF(vy), neg, vg));
    }
    for (; i < n; ++i) {
      if (y[i] <= 0.0f) g[i] = g[i] * (y[i] + 1.0f);
    }
  }

  static void GNormNormF32(const float* x, size_t n, double mean,
                           double inv_std, float gamma, float beta,
                           float* xhat, float* y) {
    VD vm = T::Set1D(mean);
    VD vs = T::Set1D(inv_std);
    VF vg = T::Set1F(gamma);
    VF vb = T::Set1F(beta);
    size_t i = 0;
    for (; i + T::kF <= n; i += T::kF) {
      VF vx = T::LoadF(x + i);
      VD lo = T::MulD(T::SubD(T::CvtLoF2D(vx), vm), vs);
      VD hi = T::MulD(T::SubD(T::CvtHiF2D(vx), vm), vs);
      VF xh = T::CvtD2F(lo, hi);
      T::StoreF(xhat + i, xh);
      T::StoreF(y + i, T::AddF(T::MulF(vg, xh), vb));
    }
    for (; i < n; ++i) {
      float xh = static_cast<float>((x[i] - mean) * inv_std);
      xhat[i] = xh;
      y[i] = gamma * xh + beta;
    }
  }

  static void GNormDxF32(const float* dy, const float* xhat, size_t n,
                         double gamma, double mean_dxhat,
                         double mean_dxhat_xhat, double inv_std, float* dx) {
    VD vg = T::Set1D(gamma);
    VD vmd = T::Set1D(mean_dxhat);
    VD vmdx = T::Set1D(mean_dxhat_xhat);
    VD vis = T::Set1D(inv_std);
    size_t i = 0;
    for (; i + T::kF <= n; i += T::kF) {
      VF vdy = T::LoadF(dy + i);
      VF vxh = T::LoadF(xhat + i);
      VD dxh_lo = T::MulD(T::CvtLoF2D(vdy), vg);
      VD dxh_hi = T::MulD(T::CvtHiF2D(vdy), vg);
      VD lo = T::MulD(vis, T::SubD(T::SubD(dxh_lo, vmd),
                                   T::MulD(T::CvtLoF2D(vxh), vmdx)));
      VD hi = T::MulD(vis, T::SubD(T::SubD(dxh_hi, vmd),
                                   T::MulD(T::CvtHiF2D(vxh), vmdx)));
      T::StoreF(dx + i, T::CvtD2F(lo, hi));
    }
    for (; i < n; ++i) {
      double dxh = static_cast<double>(dy[i]) * gamma;
      dx[i] = static_cast<float>(
          inv_std * (dxh - mean_dxhat -
                     static_cast<double>(xhat[i]) * mean_dxhat_xhat));
    }
  }

  static bool AllFiniteF32(const float* x, size_t n) {
    size_t i = 0;
    for (; i + T::kF <= n; i += T::kF) {
      if (!T::AllFiniteF(T::LoadF(x + i))) return false;
    }
    for (; i < n; ++i) {
      if (!std::isfinite(x[i])) return false;
    }
    return true;
  }

 private:
  // The double terms of kF consecutive floats: elements 0..kD-1 in lo,
  // kD..kF-1 in hi.
  struct VD2 {
    VD lo, hi;
  };

  // The pinned eight-lane double fold of the chained reductions: lane l
  // adds term(i) for i ≡ l (mod 8) in ascending i, and the lanes combine
  // ((l0+l1)+(l2+l3))+((l4+l5)+(l6+l7)). With tail_to_lane0 the n % 8
  // tail goes to lane 0 instead (ops::ChainedSquaredNorm's rule). A step
  // covers max(kF, 8) floats; vec_terms(i) returns the terms of the kF
  // floats at i, and their double vectors feed the lanes in index order,
  // so every lane adds its terms in the scalar order. The floats past the
  // last full step take term(i), one at a time in ascending i.
  template <typename VecTerms, typename Term>
  static double Fold8F64(size_t n, bool tail_to_lane0, VecTerms vec_terms,
                         Term term) {
    constexpr size_t kAcc = kFoldLanes / T::kD;
    constexpr size_t kStep = T::kF > kFoldLanes ? T::kF : kFoldLanes;
    VD acc[kAcc];
    for (size_t a = 0; a < kAcc; ++a) acc[a] = T::Set1D(0.0);
    size_t i = 0;
    for (; i + kStep <= n; i += kStep) {
      for (size_t f = 0; f < kStep / T::kF; ++f) {
        VD2 t = vec_terms(i + f * T::kF);
        size_t a = (2 * f) % kAcc;
        acc[a] = T::AddD(acc[a], t.lo);
        a = (2 * f + 1) % kAcc;
        acc[a] = T::AddD(acc[a], t.hi);
      }
    }
    double lanes[kFoldLanes];
    for (size_t a = 0; a < kAcc; ++a) T::StoreD(lanes + a * T::kD, acc[a]);
    const size_t tail = n % kFoldLanes;
    for (; i < n; ++i) {
      lanes[tail_to_lane0 && n - i <= tail ? 0 : i % kFoldLanes] += term(i);
    }
    return ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3])) +
           ((lanes[4] + lanes[5]) + (lanes[6] + lanes[7]));
  }
};

#if defined(__AVX2__)

// One ziggurat batch: the variates of the eight draws at counters
// first .. first+7 (float(stddev * ±j·w[layer])) and their fast-path
// accept mask (bit l for draw l).
struct ZigBatch {
  __m256 variates;
  unsigned accept_mask;
};

// Batches computed ahead of the commit. A batch's counter would
// otherwise wait on the previous batch's accept mask; computing
// kZigDepth batches from one counter keeps the Mix64 chains and gathers
// of all of them in flight.
constexpr size_t kZigDepth = 4;

// The zig_try_fill_f32 body over a per-ISA batch function
// (uint64_t first) -> ZigBatch, with first = key + counter of the
// batch's first draw. The commit takes each batch's accepted prefix in
// counter order and returns at the first rejected draw or at max_n, so
// the stream is the one an unpipelined loop commits; the batches past
// that point are discarded.
template <typename BatchFn>
size_t ZigPipelinedFill(BatchFn batch8, uint64_t first, bool accumulate,
                        float* out, size_t max_n) {
  size_t total = 0;
  while (total < max_n) {
    ZigBatch batch[kZigDepth];
    for (size_t q = 0; q < kZigDepth; ++q) {
      batch[q] = batch8(first + total + 8 * q);  // wraps like the scalar add
    }
    for (size_t q = 0; q < kZigDepth; ++q) {
      size_t prefix = static_cast<size_t>(
          __builtin_ctz(~batch[q].accept_mask | 0x100u));
      size_t room = max_n - total;
      size_t take = prefix < room ? prefix : room;
      float* o = out + total;
      if (take < 8) {
        float buf[8];
        _mm256_storeu_ps(buf, batch[q].variates);
        for (size_t l = 0; l < take; ++l) {
          if (accumulate) {
            o[l] += buf[l];
          } else {
            o[l] = buf[l];
          }
        }
        // A rejected draw (the scalar wedge/tail takes over) or max_n.
        return total + take;
      }
      __m256 g = batch[q].variates;
      if (accumulate) g = _mm256_add_ps(_mm256_loadu_ps(o), g);
      _mm256_storeu_ps(o, g);
      total += 8;
    }
  }
  return total;
}

#endif  // __AVX2__

// Register-blocked GEMM tiles over a trait (the gemm_nn_tile_f32 /
// gemm_nt_tile_f32 table entries; contracts in simd.h). Register-tile
// shapes come from the trait; per-element values do not depend on them:
//  * NN keeps a kNnRows × (kNnVecs·kF) block of C in registers across
//    the whole k sweep; every element still takes its products one p at
//    a time, ascending, multiply then add. Row remainders run at half
//    the tile height (down to one row), column remainders at one vector
//    and then in the scalar loop.
//  * NT keeps one pinned 8-lane fold accumulator per (row, column) —
//    kJ8 columns share a vector — and finishes each element exactly as
//    ScalarDot8F32 does: scalar tail lanes, then the fixed combine tree (in
//    registers via Fold8 when k leaves no tail lanes). Column
//    remainders run at half the group count; a lone column in a
//    multi-column group is computed twice and stored once.
template <typename T>
struct GemmTiles {
  using VF = typename T::VF;
  using V8 = typename T::V8;

  static void NNTileF32(size_t rows, size_t cols, size_t k, const float* a,
                        size_t a_rs, size_t a_cs, const float* b, size_t ldb,
                        const float* row_init, float* c, size_t ldc) {
    constexpr size_t kWide = T::kNnVecs * T::kF;
    size_t j = 0;
    for (; j + kWide <= cols; j += kWide) {
      NNRows<T::kNnRows, T::kNnVecs>(rows, k, a, a_rs, a_cs, b + j, ldb,
                                     row_init, c + j, ldc);
    }
    for (; j + T::kF <= cols; j += T::kF) {
      NNRows<T::kNnRows, 1>(rows, k, a, a_rs, a_cs, b + j, ldb, row_init,
                            c + j, ldc);
    }
    if (j == cols) return;
    for (size_t r = 0; r < rows; ++r) {
      float* crow = c + r * ldc + j;
      float init = row_init != nullptr ? row_init[r] : 0.0f;
      for (size_t t = 0; j + t < cols; ++t) crow[t] = init;
      for (size_t p = 0; p < k; ++p) {
        float ar = a[r * a_rs + p * a_cs];
        const float* brow = b + p * ldb + j;
        for (size_t t = 0; j + t < cols; ++t) crow[t] += ar * brow[t];
      }
    }
  }

  static void NTTileF32(size_t rows, size_t cols, size_t k, const float* a,
                        size_t lda, const float* b, size_t ldb,
                        bool accumulate, float* c, size_t ldc) {
    NTCols<T::kNtGroups>(rows, cols, k, a, lda, b, ldb, accumulate, c, ldc);
  }

 private:
  // One MR × (NV·kF) block of C, held in registers for the whole sweep.
  template <size_t MR, size_t NV>
  static void NNBlock(size_t k, const float* a, size_t a_rs, size_t a_cs,
                      const float* b, size_t ldb, const float* row_init,
                      float* c, size_t ldc) {
    VF acc[MR][NV];
    for (size_t r = 0; r < MR; ++r) {
      VF init = T::Set1F(row_init != nullptr ? row_init[r] : 0.0f);
      for (size_t v = 0; v < NV; ++v) acc[r][v] = init;
    }
    for (size_t p = 0; p < k; ++p) {
      const float* brow = b + p * ldb;
      const float* acol = a + p * a_cs;
      VF bv[NV];
      for (size_t v = 0; v < NV; ++v) bv[v] = T::LoadF(brow + v * T::kF);
      for (size_t r = 0; r < MR; ++r) {
        VF ar = T::Set1F(acol[r * a_rs]);
        for (size_t v = 0; v < NV; ++v) {
          acc[r][v] = T::AddF(acc[r][v], T::MulF(ar, bv[v]));
        }
      }
    }
    for (size_t r = 0; r < MR; ++r) {
      for (size_t v = 0; v < NV; ++v) {
        T::StoreF(c + r * ldc + v * T::kF, acc[r][v]);
      }
    }
  }

  template <size_t MR, size_t NV>
  static void NNRows(size_t rows, size_t k, const float* a, size_t a_rs,
                     size_t a_cs, const float* b, size_t ldb,
                     const float* row_init, float* c, size_t ldc) {
    size_t r = 0;
    for (; r + MR <= rows; r += MR) {
      NNBlock<MR, NV>(k, a + r * a_rs, a_rs, a_cs, b, ldb,
                      row_init != nullptr ? row_init + r : nullptr,
                      c + r * ldc, ldc);
    }
    if constexpr (MR > 1) {
      if (r < rows) {
        NNRows<MR / 2, NV>(rows - r, k, a + r * a_rs, a_rs, a_cs, b, ldb,
                           row_init != nullptr ? row_init + r : nullptr,
                           c + r * ldc, ldc);
      }
    }
  }

  // One MR × (NG·kJ8) block of dot8 folds; only the first `ncols`
  // columns are real (the rest repeat the last one and are not stored).
  template <size_t MR, size_t NG>
  static void NTBlock(size_t ncols, size_t k, const float* a, size_t lda,
                      const float* b, size_t ldb, bool accumulate, float* c,
                      size_t ldc) {
    constexpr size_t kCols = NG * T::kJ8;
    const float* bcol[kCols];
    for (size_t t = 0; t < kCols; ++t) {
      bcol[t] = b + (t < ncols ? t : ncols - 1) * ldb;
    }
    V8 acc[MR][NG];
    for (size_t r = 0; r < MR; ++r) {
      for (size_t g = 0; g < NG; ++g) acc[r][g] = T::Zero8();
    }
    size_t p = 0;
    for (; p + kFoldLanes <= k; p += kFoldLanes) {
      V8 av[MR];
      for (size_t r = 0; r < MR; ++r) av[r] = T::LoadA8(a + r * lda + p);
      for (size_t g = 0; g < NG; ++g) {
        V8 bv = T::LoadB8(bcol[g * T::kJ8] + p,
                          bcol[g * T::kJ8 + T::kJ8 - 1] + p);
        for (size_t r = 0; r < MR; ++r) {
          acc[r][g] = T::AddMul8(acc[r][g], av[r], bv);
        }
      }
    }
    for (size_t r = 0; r < MR; ++r) {
      const float* arow = a + r * lda;
      for (size_t g = 0; g < NG; ++g) {
        float d[T::kJ8];
        if (p == k) {
          T::Fold8(acc[r][g], d);
        } else {
          // Tail lanes, then the tree, in scalar exactly as ScalarDot8F32.
          float lanes[kFoldLanes * T::kJ8];
          T::Store8(lanes, acc[r][g]);
          for (size_t jj = 0; jj < T::kJ8; ++jj) {
            float* l = lanes + jj * kFoldLanes;
            const float* bt = bcol[g * T::kJ8 + jj];
            for (size_t q = 0; p + q < k; ++q) {
              l[q] += arow[p + q] * bt[p + q];
            }
            float s01 = l[0] + l[1];
            float s23 = l[2] + l[3];
            float s45 = l[4] + l[5];
            float s67 = l[6] + l[7];
            d[jj] = (s01 + s23) + (s45 + s67);
          }
        }
        for (size_t jj = 0; jj < T::kJ8; ++jj) {
          size_t t = g * T::kJ8 + jj;
          if (t >= ncols) break;
          float* cj = c + r * ldc + t;
          *cj = accumulate ? *cj + d[jj] : d[jj];
        }
      }
    }
  }

  template <size_t MR, size_t NG>
  static void NTRows(size_t rows, size_t ncols, size_t k, const float* a,
                     size_t lda, const float* b, size_t ldb, bool accumulate,
                     float* c, size_t ldc) {
    size_t r = 0;
    for (; r + MR <= rows; r += MR) {
      NTBlock<MR, NG>(ncols, k, a + r * lda, lda, b, ldb, accumulate,
                      c + r * ldc, ldc);
    }
    if constexpr (MR > 1) {
      if (r < rows) {
        NTRows<MR / 2, NG>(rows - r, ncols, k, a + r * lda, lda, b, ldb,
                           accumulate, c + r * ldc, ldc);
      }
    }
  }

  template <size_t NG>
  static void NTCols(size_t rows, size_t cols, size_t k, const float* a,
                     size_t lda, const float* b, size_t ldb, bool accumulate,
                     float* c, size_t ldc) {
    constexpr size_t kCols = NG * T::kJ8;
    size_t j = 0;
    for (; j + kCols <= cols; j += kCols) {
      NTRows<T::kNtRows, NG>(rows, kCols, k, a, lda, b + j * ldb, ldb,
                             accumulate, c + j, ldc);
    }
    if (j == cols) return;
    if constexpr (NG > 1) {
      NTCols<NG / 2>(rows, cols - j, k, a, lda, b + j * ldb, ldb,
                     accumulate, c + j, ldc);
    } else {
      NTRows<T::kNtRows, 1>(rows, cols - j, k, a, lda, b + j * ldb, ldb,
                            accumulate, c + j, ldc);
    }
  }
};

// `base` with every generic slot filled from the kernels over trait T
// and tagged `isa`; base supplies only transpose_f32 and
// zig_try_fill_f32, which the caller then overrides where its ISA has
// its own.
template <typename T>
SimdKernels GenericTable(IsaLevel isa, SimdKernels base) {
  using K8 = Kernels8<T>;
  using Tiles = GemmTiles<T>;
  SimdKernels t = base;
  t.isa = isa;
  t.axpy_f32 = &K8::AxpyF32;
  t.scale_f32 = &K8::ScaleF32;
  t.momentum_fold_f32 = &K8::MomentumFoldF32;
  t.gemm_nn_tile_f32 = &Tiles::NNTileF32;
  t.gemm_nt_tile_f32 = &Tiles::NTTileF32;
  t.distsq8_f64 = &K8::DistSq8F64;
  t.sum8_f64 = &K8::Sum8F64;
  t.elu_f32 = &K8::EluF32;
  t.elu_grad_f32 = &K8::EluGradF32;
  t.gnorm_norm_f32 = &K8::GNormNormF32;
  t.gnorm_dx_f32 = &K8::GNormDxF32;
  t.all_finite_f32 = &K8::AllFiniteF32;
  return t;
}

}  // namespace detail
}  // namespace simd
}  // namespace dpbr

#endif  // DPBR_COMMON_SIMD_TRAITS_H_
