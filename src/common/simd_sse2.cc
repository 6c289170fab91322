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
    SimdKernels t = detail::GenericTable<detail::TraitsSse2>(IsaLevel::kSse2,
                                                              ScalarTable());
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
