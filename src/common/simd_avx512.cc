// AVX-512 kernel table. Compiled with -mavx512f -mavx512dq
// -ffp-contract=off when the toolchain supports it; self-gated so the
// file compiles to a null table otherwise.
//
// The element-wise kernels and the GEMM tiles widen to 512 bits (the
// NT tile packs two columns' 8-lane folds into one zmm). The pinned
// 8-lane reductions, the transpose, and the ziggurat batch kernel keep
// their AVX2 implementations: the fold width is fixed at 8 by the
// determinism contract, so a 16-lane version of one dot would have to
// emulate the 8-lane tree anyway and wins nothing.

#include "common/simd_internal.h"

#if defined(__AVX512F__) && defined(__AVX512DQ__)
#include "common/simd_traits.h"
#endif

namespace dpbr {
namespace simd {

#if defined(__AVX512F__) && defined(__AVX512DQ__)

namespace {
using K8 = detail::Kernels8<detail::TraitsAvx512>;
using Tiles = detail::GemmTiles<detail::TraitsAvx512>;
}  // namespace

const SimdKernels* detail::Avx512Table() {
  static const SimdKernels table = [] {
    const SimdKernels* base = Avx2Table();
    SimdKernels t = base != nullptr ? *base : ScalarTable();
    t.isa = IsaLevel::kAvx512;
    t.axpy_f32 = &K8::AxpyF32;
    t.scale_f32 = &K8::ScaleF32;
    t.add_scalar_f32 = &K8::AddScalarF32;
    t.gemm_nn_tile_f32 = &Tiles::NNTileF32;
    t.gemm_nt_tile_f32 = &Tiles::NTTileF32;
    t.relu_f32 = &K8::ReluF32;
    t.relu_grad_f32 = &K8::ReluGradF32;
    t.elu_f32 = &K8::EluF32;
    t.elu_grad_f32 = &K8::EluGradF32;
    t.gnorm_norm_f32 = &K8::GNormNormF32;
    t.gnorm_dx_f32 = &K8::GNormDxF32;
    t.all_finite_f32 = &K8::AllFiniteF32;
    return t;
  }();
  return &table;
}

#else  // !(__AVX512F__ && __AVX512DQ__)

const SimdKernels* detail::Avx512Table() { return nullptr; }

#endif

}  // namespace simd
}  // namespace dpbr
