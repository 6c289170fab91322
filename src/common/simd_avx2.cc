// AVX2 kernel table. Compiled with -mavx2 -ffp-contract=off (never -mfma:
// fused multiply-add would break bitwise equality with the scalar
// reference). The body self-gates on __AVX2__ so the file still compiles
// to a null table when the toolchain cannot target AVX2.

#include "common/simd_internal.h"

#if defined(__AVX2__)
#include "common/simd_traits.h"
#endif

namespace dpbr {
namespace simd {

#if defined(__AVX2__)

namespace {

// 8x8 in-register transpose (unpack / shuffle / 128-bit permute).
void Transpose8x8(const float* src, size_t ss, float* dst, size_t ds) {
  __m256 r0 = _mm256_loadu_ps(src + 0 * ss);
  __m256 r1 = _mm256_loadu_ps(src + 1 * ss);
  __m256 r2 = _mm256_loadu_ps(src + 2 * ss);
  __m256 r3 = _mm256_loadu_ps(src + 3 * ss);
  __m256 r4 = _mm256_loadu_ps(src + 4 * ss);
  __m256 r5 = _mm256_loadu_ps(src + 5 * ss);
  __m256 r6 = _mm256_loadu_ps(src + 6 * ss);
  __m256 r7 = _mm256_loadu_ps(src + 7 * ss);
  __m256 t0 = _mm256_unpacklo_ps(r0, r1);
  __m256 t1 = _mm256_unpackhi_ps(r0, r1);
  __m256 t2 = _mm256_unpacklo_ps(r2, r3);
  __m256 t3 = _mm256_unpackhi_ps(r2, r3);
  __m256 t4 = _mm256_unpacklo_ps(r4, r5);
  __m256 t5 = _mm256_unpackhi_ps(r4, r5);
  __m256 t6 = _mm256_unpacklo_ps(r6, r7);
  __m256 t7 = _mm256_unpackhi_ps(r6, r7);
  __m256 u0 = _mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(1, 0, 1, 0));
  __m256 u1 = _mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(3, 2, 3, 2));
  __m256 u2 = _mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(1, 0, 1, 0));
  __m256 u3 = _mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(3, 2, 3, 2));
  __m256 u4 = _mm256_shuffle_ps(t4, t6, _MM_SHUFFLE(1, 0, 1, 0));
  __m256 u5 = _mm256_shuffle_ps(t4, t6, _MM_SHUFFLE(3, 2, 3, 2));
  __m256 u6 = _mm256_shuffle_ps(t5, t7, _MM_SHUFFLE(1, 0, 1, 0));
  __m256 u7 = _mm256_shuffle_ps(t5, t7, _MM_SHUFFLE(3, 2, 3, 2));
  _mm256_storeu_ps(dst + 0 * ds, _mm256_permute2f128_ps(u0, u4, 0x20));
  _mm256_storeu_ps(dst + 1 * ds, _mm256_permute2f128_ps(u1, u5, 0x20));
  _mm256_storeu_ps(dst + 2 * ds, _mm256_permute2f128_ps(u2, u6, 0x20));
  _mm256_storeu_ps(dst + 3 * ds, _mm256_permute2f128_ps(u3, u7, 0x20));
  _mm256_storeu_ps(dst + 4 * ds, _mm256_permute2f128_ps(u0, u4, 0x31));
  _mm256_storeu_ps(dst + 5 * ds, _mm256_permute2f128_ps(u1, u5, 0x31));
  _mm256_storeu_ps(dst + 6 * ds, _mm256_permute2f128_ps(u2, u6, 0x31));
  _mm256_storeu_ps(dst + 7 * ds, _mm256_permute2f128_ps(u3, u7, 0x31));
}

void Avx2TransposeF32(const float* src, size_t src_stride, size_t rows,
                      size_t cols, float* dst, size_t dst_stride) {
  size_t r8 = rows & ~size_t{7};
  size_t c8 = cols & ~size_t{7};
  for (size_t r = 0; r < r8; r += 8) {
    for (size_t c = 0; c < c8; c += 8) {
      Transpose8x8(src + r * src_stride + c, src_stride,
                   dst + c * dst_stride + r, dst_stride);
    }
    for (size_t c = c8; c < cols; ++c) {
      for (size_t l = 0; l < 8; ++l) {
        dst[c * dst_stride + r + l] = src[(r + l) * src_stride + c];
      }
    }
  }
  for (size_t r = r8; r < rows; ++r) {
    for (size_t c = 0; c < cols; ++c) {
      dst[c * dst_stride + r] = src[r * src_stride + c];
    }
  }
}

// ---- Vectorized ziggurat fast path -----------------------------------
//
// The SplitMix64 generator is a pure function of (key, counter), so a
// batch of four draws is four independent Mix64 evaluations — no serial
// dependency to break. The kernel reproduces the scalar sampler's fast
// path exactly (layer = bits & 0xFF, j = bits >> 11, sign from bit 8,
// accept when j < k[layer], variate = float(stddev * ±(j * w[layer])))
// and stops at the first draw that needs the wedge/tail fallback; the
// caller's scalar GaussianZiggurat() then re-derives that same draw from
// the counter, keeping the output stream bit-identical.

inline __m256i Mul64(__m256i a, __m256i b) {
  // 64x64->64 low multiply out of 32x32->64 pieces (AVX2 has no
  // _mm256_mullo_epi64).
  __m256i a_hi = _mm256_srli_epi64(a, 32);
  __m256i b_hi = _mm256_srli_epi64(b, 32);
  __m256i lo = _mm256_mul_epu32(a, b);
  __m256i cross = _mm256_add_epi64(_mm256_mul_epu32(a_hi, b),
                                   _mm256_mul_epu32(a, b_hi));
  return _mm256_add_epi64(lo, _mm256_slli_epi64(cross, 32));
}

inline __m256i Mix64x4(__m256i z) {
  z = _mm256_add_epi64(
      z, _mm256_set1_epi64x(static_cast<long long>(0x9e3779b97f4a7c15ULL)));
  z = Mul64(_mm256_xor_si256(z, _mm256_srli_epi64(z, 30)),
            _mm256_set1_epi64x(static_cast<long long>(0xbf58476d1ce4e5b9ULL)));
  z = Mul64(_mm256_xor_si256(z, _mm256_srli_epi64(z, 27)),
            _mm256_set1_epi64x(static_cast<long long>(0x94d049bb133111ebULL)));
  return _mm256_xor_si256(z, _mm256_srli_epi64(z, 31));
}

inline __m256d U64ToF64(__m256i v) {
  // Split-and-rebias u64 -> f64; exact for v < 2^53 (ziggurat j has 53
  // bits), and AVX2 has no direct conversion.
  __m256i hi = _mm256_srli_epi64(v, 32);
  hi = _mm256_or_si256(hi, _mm256_castpd_si256(_mm256_set1_pd(0x1.0p84)));
  __m256i lo = _mm256_blend_epi32(
      v, _mm256_castpd_si256(_mm256_set1_pd(0x1.0p52)), 0xAA);
  __m256d f = _mm256_sub_pd(_mm256_castsi256_pd(hi),
                            _mm256_set1_pd(0x1.00000001p+84));  // 2^84 + 2^52
  return _mm256_add_pd(f, _mm256_castsi256_pd(lo));
}

struct ZigHalf {
  __m128 variates;  // float(stddev * signed variate), 4 lanes
  int accept_mask;  // bit l set when draw l takes the fast path
};

inline ZigHalf ZigBatch4(uint64_t first, const double* w,
                         const uint64_t* kcut, __m256d vstd) {
  __m256i ctr = _mm256_add_epi64(
      _mm256_set1_epi64x(static_cast<long long>(first)),
      _mm256_setr_epi64x(0, 1, 2, 3));
  __m256i bits = Mix64x4(ctr);
  __m256i layer = _mm256_and_si256(bits, _mm256_set1_epi64x(0xFF));
  __m256i j = _mm256_srli_epi64(bits, 11);
  __m256d wv = _mm256_i64gather_pd(w, layer, 8);
  __m256i kv = _mm256_i64gather_epi64(
      reinterpret_cast<const long long*>(kcut), layer, 8);
  // j and k[layer] are both < 2^53, so the signed compare is exact.
  int accept = _mm256_movemask_pd(
      _mm256_castsi256_pd(_mm256_cmpgt_epi64(kv, j)));
  __m256d x = _mm256_mul_pd(U64ToF64(j), wv);
  // Sign bit (draw bit 8) applied by XOR — identical to the scalar
  // multiply by ±1.0, including for x == 0.
  __m256i sign = _mm256_slli_epi64(
      _mm256_and_si256(_mm256_srli_epi64(bits, 8), _mm256_set1_epi64x(1)),
      63);
  x = _mm256_xor_pd(x, _mm256_castsi256_pd(sign));
  return {_mm256_cvtpd_ps(_mm256_mul_pd(vstd, x)), accept};
}

inline detail::ZigBatch ZigBatch8(uint64_t first, const double* w,
                                  const uint64_t* kcut, __m256d vstd) {
  ZigHalf lo = ZigBatch4(first, w, kcut, vstd);
  ZigHalf hi = ZigBatch4(first + 4, w, kcut, vstd);
  return {_mm256_insertf128_ps(_mm256_zextps128_ps256(lo.variates),
                               hi.variates, 1),
          static_cast<unsigned>(lo.accept_mask | (hi.accept_mask << 4))};
}

size_t Avx2ZigTryFillF32(uint64_t key, uint64_t counter, const double* w,
                         const uint64_t* kcut, double stddev, bool accumulate,
                         float* out, size_t max_n) {
  const __m256d vstd = _mm256_set1_pd(stddev);
  return detail::ZigPipelinedFill(
      [&](uint64_t first) { return ZigBatch8(first, w, kcut, vstd); },
      key + counter, accumulate, out, max_n);
}

}  // namespace

const SimdKernels* detail::Avx2Table() {
  static const SimdKernels table = [] {
    SimdKernels t = detail::GenericTable<detail::TraitsAvx2>(IsaLevel::kAvx2,
                                                              ScalarTable());
    t.transpose_f32 = &Avx2TransposeF32;
    t.zig_try_fill_f32 = &Avx2ZigTryFillF32;
    return t;
  }();
  return &table;
}

#else  // !__AVX2__

const SimdKernels* detail::Avx2Table() { return nullptr; }

#endif

}  // namespace simd
}  // namespace dpbr
