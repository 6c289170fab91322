// SSE2 kernel table. Compiled without extra -m flags: SSE2 is the x86-64
// baseline, and the whole body is stubbed out on non-x86 builds.

#include "common/simd_internal.h"

#if defined(__SSE2__)
#include "common/simd_traits.h"
#endif

namespace dpbr {
namespace simd {

#if defined(__SSE2__)

namespace {

using K8 = detail::Kernels8<detail::TraitsSse2>;
using Tiles = detail::GemmTiles<detail::TraitsSse2>;

double Sse2DistSq8F64(const float* a, const float* b, size_t n) {
  __m128d acc01 = _mm_setzero_pd();
  __m128d acc23 = _mm_setzero_pd();
  __m128d acc45 = _mm_setzero_pd();
  __m128d acc67 = _mm_setzero_pd();
  size_t p = 0;
  for (; p + kFoldLanes <= n; p += kFoldLanes) {
    __m128 va = _mm_loadu_ps(a + p);
    __m128 vb = _mm_loadu_ps(b + p);
    __m128d d01 = _mm_sub_pd(_mm_cvtps_pd(va), _mm_cvtps_pd(vb));
    __m128d d23 = _mm_sub_pd(_mm_cvtps_pd(_mm_movehl_ps(va, va)),
                             _mm_cvtps_pd(_mm_movehl_ps(vb, vb)));
    acc01 = _mm_add_pd(acc01, _mm_mul_pd(d01, d01));
    acc23 = _mm_add_pd(acc23, _mm_mul_pd(d23, d23));
    va = _mm_loadu_ps(a + p + 4);
    vb = _mm_loadu_ps(b + p + 4);
    __m128d d45 = _mm_sub_pd(_mm_cvtps_pd(va), _mm_cvtps_pd(vb));
    __m128d d67 = _mm_sub_pd(_mm_cvtps_pd(_mm_movehl_ps(va, va)),
                             _mm_cvtps_pd(_mm_movehl_ps(vb, vb)));
    acc45 = _mm_add_pd(acc45, _mm_mul_pd(d45, d45));
    acc67 = _mm_add_pd(acc67, _mm_mul_pd(d67, d67));
  }
  double acc[kFoldLanes];
  _mm_storeu_pd(acc, acc01);
  _mm_storeu_pd(acc + 2, acc23);
  _mm_storeu_pd(acc + 4, acc45);
  _mm_storeu_pd(acc + 6, acc67);
  for (size_t l = 0; p + l < n; ++l) {
    double d = static_cast<double>(a[p + l]) - static_cast<double>(b[p + l]);
    acc[l] += d * d;
  }
  double s01 = acc[0] + acc[1];
  double s23 = acc[2] + acc[3];
  double s45 = acc[4] + acc[5];
  double s67 = acc[6] + acc[7];
  return (s01 + s23) + (s45 + s67);
}

double Sse2Sum8F64(const float* x, size_t n) {
  __m128d acc01 = _mm_setzero_pd();
  __m128d acc23 = _mm_setzero_pd();
  __m128d acc45 = _mm_setzero_pd();
  __m128d acc67 = _mm_setzero_pd();
  size_t p = 0;
  for (; p + kFoldLanes <= n; p += kFoldLanes) {
    __m128 v = _mm_loadu_ps(x + p);
    acc01 = _mm_add_pd(acc01, _mm_cvtps_pd(v));
    acc23 = _mm_add_pd(acc23, _mm_cvtps_pd(_mm_movehl_ps(v, v)));
    v = _mm_loadu_ps(x + p + 4);
    acc45 = _mm_add_pd(acc45, _mm_cvtps_pd(v));
    acc67 = _mm_add_pd(acc67, _mm_cvtps_pd(_mm_movehl_ps(v, v)));
  }
  double acc[kFoldLanes];
  _mm_storeu_pd(acc, acc01);
  _mm_storeu_pd(acc + 2, acc23);
  _mm_storeu_pd(acc + 4, acc45);
  _mm_storeu_pd(acc + 6, acc67);
  for (size_t l = 0; p + l < n; ++l) acc[l] += static_cast<double>(x[p + l]);
  double s01 = acc[0] + acc[1];
  double s23 = acc[2] + acc[3];
  double s45 = acc[4] + acc[5];
  double s67 = acc[6] + acc[7];
  return (s01 + s23) + (s45 + s67);
}

void Sse2TransposeF32(const float* src, size_t src_stride, size_t rows,
                      size_t cols, float* dst, size_t dst_stride) {
  size_t r4 = rows & ~size_t{3};
  size_t c4 = cols & ~size_t{3};
  for (size_t r = 0; r < r4; r += 4) {
    const float* s = src + r * src_stride;
    for (size_t c = 0; c < c4; c += 4) {
      __m128 row0 = _mm_loadu_ps(s + 0 * src_stride + c);
      __m128 row1 = _mm_loadu_ps(s + 1 * src_stride + c);
      __m128 row2 = _mm_loadu_ps(s + 2 * src_stride + c);
      __m128 row3 = _mm_loadu_ps(s + 3 * src_stride + c);
      _MM_TRANSPOSE4_PS(row0, row1, row2, row3);
      float* d = dst + c * dst_stride + r;
      _mm_storeu_ps(d + 0 * dst_stride, row0);
      _mm_storeu_ps(d + 1 * dst_stride, row1);
      _mm_storeu_ps(d + 2 * dst_stride, row2);
      _mm_storeu_ps(d + 3 * dst_stride, row3);
    }
    for (size_t c = c4; c < cols; ++c) {
      for (size_t l = 0; l < 4; ++l) {
        dst[c * dst_stride + r + l] = src[(r + l) * src_stride + c];
      }
    }
  }
  for (size_t r = r4; r < rows; ++r) {
    for (size_t c = 0; c < cols; ++c) {
      dst[c * dst_stride + r] = src[r * src_stride + c];
    }
  }
}

}  // namespace

const SimdKernels* detail::Sse2Table() {
  static const SimdKernels table = [] {
    SimdKernels t = ScalarTable();
    t.isa = IsaLevel::kSse2;
    t.axpy_f32 = &K8::AxpyF32;
    t.scale_f32 = &K8::ScaleF32;
    t.add_scalar_f32 = &K8::AddScalarF32;
    t.momentum_fold_f32 = &K8::MomentumFoldF32;
    t.gemm_nn_tile_f32 = &Tiles::NNTileF32;
    t.gemm_nt_tile_f32 = &Tiles::NTTileF32;
    t.distsq8_f64 = &Sse2DistSq8F64;
    t.sum8_f64 = &Sse2Sum8F64;
    t.relu_f32 = &K8::ReluF32;
    t.relu_grad_f32 = &K8::ReluGradF32;
    t.elu_f32 = &K8::EluF32;
    t.elu_grad_f32 = &K8::EluGradF32;
    t.gnorm_norm_f32 = &K8::GNormNormF32;
    t.gnorm_dx_f32 = &K8::GNormDxF32;
    t.all_finite_f32 = &K8::AllFiniteF32;
    t.transpose_f32 = &Sse2TransposeF32;
    // zig_try_fill_f32 stays null: without gathers the batch kernel is
    // not faster than the scalar rejection loop.
    return t;
  }();
  return &table;
}

#else  // !__SSE2__

const SimdKernels* detail::Sse2Table() { return nullptr; }

#endif

}  // namespace simd
}  // namespace dpbr
