// Internal wiring between the dispatcher (simd.cc) and the per-ISA
// translation units. Not for use outside src/common/simd*.cc and the
// equivalence tests.

#ifndef DPBR_COMMON_SIMD_INTERNAL_H_
#define DPBR_COMMON_SIMD_INTERNAL_H_

#include "common/simd.h"

namespace dpbr {
namespace simd {
namespace detail {

/// The scalar reference table. Always valid; every pointer non-null
/// except zig_try_fill_f32 (null: callers run the plain rejection loop).
const SimdKernels& ScalarTable();

/// Per-ISA tables, or nullptr when the build cannot target the ISA
/// (non-x86, or the compiler lacks the -m flags). Each builder fills the
/// generic slots with detail::GenericTable and sets its ISA-specific
/// ones; a tier without its own transpose takes a lower tier's, so every
/// slot stays populated. Calling the builder is safe on any CPU; calling
/// through the table it returns requires the ISA (the dispatcher checks
/// CPUID first).
const SimdKernels* Sse2Table();
const SimdKernels* Avx2Table();
const SimdKernels* Avx512Table();

}  // namespace detail
}  // namespace simd
}  // namespace dpbr

#endif  // DPBR_COMMON_SIMD_INTERNAL_H_
