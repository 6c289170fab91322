// Known-clean fixture: the same per-ISA TU built the way src/CMakeLists
// builds it — its -m flag plus -ffp-contract=off, even when an earlier
// -ffp-contract value is overridden. The self-test demands ZERO findings.
// lint-as: src/common/simd_avx2.cc
// lint-compile-flags: -O2 -ffp-contract=fast -mavx2 -ffp-contract=off

#include <immintrin.h>

namespace dpbr {

void AxpyEight(float a, const float* x, float* y) {
  __m256 v = _mm256_add_ps(_mm256_loadu_ps(y),
                           _mm256_mul_ps(_mm256_set1_ps(a),
                                         _mm256_loadu_ps(x)));
  _mm256_storeu_ps(y, v);
}

}  // namespace dpbr
