// Known-bad fixture: a per-ISA SIMD translation unit whose synthetic
// compile-db entry carries its -m flag but not -ffp-contract=off, so the
// compiler may fuse the kernels' mul/add pairs into FMAs. The intrinsics
// are legal here (the fixture is linted as the AVX2 TU); only the
// missing flag fires.
// lint-as: src/common/simd_avx2.cc
// lint-compile-flags: -O2 -mavx2
// expect-lint: simd-fpcontract

#include <immintrin.h>

namespace dpbr {

void AxpyEight(float a, const float* x, float* y) {
  __m256 v = _mm256_add_ps(_mm256_loadu_ps(y),
                           _mm256_mul_ps(_mm256_set1_ps(a),
                                         _mm256_loadu_ps(x)));
  _mm256_storeu_ps(y, v);
}

}  // namespace dpbr
