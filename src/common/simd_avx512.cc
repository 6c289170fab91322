// AVX-512 kernel table. Compiled with -mavx512f -mavx512dq
// -ffp-contract=off when the toolchain supports it; self-gated so the
// file compiles to a null table otherwise.
//
// The generic kernels widen to 512 bits: the NT tile packs two columns'
// 8-lane folds into one zmm, and a chained-reduction step feeds 16
// floats to the 8 pinned lanes. The ziggurat batch runs its eight draws
// in one zmm with native 64-bit multiplies (~2.6 against ~3.5 ns per
// draw for the AVX2 batch on one core of the 4-vCPU AVX-512 dev host).
// The transpose keeps its AVX2 tile.

#include "common/simd_internal.h"

#if defined(__AVX512F__) && defined(__AVX512DQ__)
#include "common/simd_traits.h"
#endif

namespace dpbr {
namespace simd {

#if defined(__AVX512F__) && defined(__AVX512DQ__)

namespace {

// The ziggurat batch of Avx2ZigTryFillF32 in one zmm: the 64-bit
// multiplies of Mix64 and the u64 -> f64 conversion (exact below 2^53)
// are native here.
inline __m512i Mix64x8(__m512i z) {
  z = _mm512_add_epi64(
      z, _mm512_set1_epi64(static_cast<long long>(0x9e3779b97f4a7c15ULL)));
  z = _mm512_mullo_epi64(
      _mm512_xor_si512(z, _mm512_srli_epi64(z, 30)),
      _mm512_set1_epi64(static_cast<long long>(0xbf58476d1ce4e5b9ULL)));
  z = _mm512_mullo_epi64(
      _mm512_xor_si512(z, _mm512_srli_epi64(z, 27)),
      _mm512_set1_epi64(static_cast<long long>(0x94d049bb133111ebULL)));
  return _mm512_xor_si512(z, _mm512_srli_epi64(z, 31));
}

inline detail::ZigBatch ZigBatch8(uint64_t first, const double* w,
                                  const uint64_t* kcut, __m512d vstd) {
  __m512i ctr =
      _mm512_add_epi64(_mm512_set1_epi64(static_cast<long long>(first)),
                       _mm512_set_epi64(7, 6, 5, 4, 3, 2, 1, 0));
  __m512i bits = Mix64x8(ctr);
  __m512i layer = _mm512_and_si512(bits, _mm512_set1_epi64(0xFF));
  __m512i j = _mm512_srli_epi64(bits, 11);
  __m512d wv = _mm512_i64gather_pd(layer, w, 8);
  __m512i kv = _mm512_i64gather_epi64(layer, kcut, 8);
  __mmask8 accept = _mm512_cmplt_epu64_mask(j, kv);
  __m512d x = _mm512_mul_pd(_mm512_cvtepu64_pd(j), wv);
  __m512i sign = _mm512_slli_epi64(
      _mm512_and_si512(_mm512_srli_epi64(bits, 8), _mm512_set1_epi64(1)),
      63);
  x = _mm512_castsi512_pd(_mm512_xor_si512(_mm512_castpd_si512(x), sign));
  return {_mm512_cvtpd_ps(_mm512_mul_pd(vstd, x)),
          static_cast<unsigned>(accept)};
}

size_t Avx512ZigTryFillF32(uint64_t key, uint64_t counter, const double* w,
                           const uint64_t* kcut, double stddev,
                           bool accumulate, float* out, size_t max_n) {
  const __m512d vstd = _mm512_set1_pd(stddev);
  return detail::ZigPipelinedFill(
      [&](uint64_t first) { return ZigBatch8(first, w, kcut, vstd); },
      key + counter, accumulate, out, max_n);
}

}  // namespace

const SimdKernels* detail::Avx512Table() {
  static const SimdKernels table = [] {
    const SimdKernels* base = Avx2Table();
    SimdKernels t = detail::GenericTable<detail::TraitsAvx512>(
        IsaLevel::kAvx512, base != nullptr ? *base : ScalarTable());
    t.zig_try_fill_f32 = &Avx512ZigTryFillF32;
    return t;
  }();
  return &table;
}

#else  // !(__AVX512F__ && __AVX512DQ__)

const SimdKernels* detail::Avx512Table() { return nullptr; }

#endif

}  // namespace simd
}  // namespace dpbr
