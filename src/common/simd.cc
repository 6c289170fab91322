#include "common/simd.h"

#include <atomic>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <cstring>

#include "common/logging.h"
#include "common/simd_internal.h"

// The scalar kernels below are the bitwise reference AND the denominator
// of the SIMD-vs-scalar bench ratios. Keep the compiler from quietly
// vectorizing them, or the ratio floors would measure autovec-vs-intrinsics
// instead of scalar-vs-SIMD.
#if defined(__clang__)
#define DPBR_NOVEC_FN
#define DPBR_NOVEC_LOOP \
  _Pragma("clang loop vectorize(disable) interleave(disable)")
#elif defined(__GNUC__)
#define DPBR_NOVEC_FN \
  __attribute__((optimize("no-tree-vectorize", "no-tree-slp-vectorize")))
#define DPBR_NOVEC_LOOP
#else
#define DPBR_NOVEC_FN
#define DPBR_NOVEC_LOOP
#endif

namespace dpbr {
namespace simd {
namespace {

DPBR_NOVEC_FN void ScalarAxpyF32(float a, const float* x, float* y,
                                 size_t n) {
  DPBR_NOVEC_LOOP
  for (size_t i = 0; i < n; ++i) y[i] += a * x[i];
}

DPBR_NOVEC_FN void ScalarScaleF32(float a, float* y, size_t n) {
  DPBR_NOVEC_LOOP
  for (size_t i = 0; i < n; ++i) y[i] *= a;
}

// The momentum fold's defining sequence: scale, axpy, then the eight-chain
// sum of squares in ops::ChainedSquaredNorm's order.
DPBR_NOVEC_FN double ScalarMomentumFoldF32(float beta, float omb,
                                           const float* g, float* phi,
                                           size_t n) {
  ScalarScaleF32(beta, phi, n);
  ScalarAxpyF32(omb, g, phi, n);
  double acc[kFoldLanes] = {0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0};
  size_t i = 0;
  for (; i + kFoldLanes <= n; i += kFoldLanes) {
    DPBR_NOVEC_LOOP
    for (size_t l = 0; l < kFoldLanes; ++l) {
      double v = static_cast<double>(phi[i + l]);
      acc[l] += v * v;
    }
  }
  DPBR_NOVEC_LOOP
  for (; i < n; ++i) {
    double v = static_cast<double>(phi[i]);
    acc[0] += v * v;
  }
  return ((acc[0] + acc[1]) + (acc[2] + acc[3])) +
         ((acc[4] + acc[5]) + (acc[6] + acc[7]));
}

// The pinned 8-lane fold: the NT tile's per-element order (see simd.h).
DPBR_NOVEC_FN float ScalarDot8F32(const float* x, const float* y,
                                  size_t n) {
  float acc[kFoldLanes] = {0.0f, 0.0f, 0.0f, 0.0f, 0.0f, 0.0f, 0.0f, 0.0f};
  size_t p = 0;
  for (; p + kFoldLanes <= n; p += kFoldLanes) {
    DPBR_NOVEC_LOOP
    for (size_t l = 0; l < kFoldLanes; ++l) acc[l] += x[p + l] * y[p + l];
  }
  DPBR_NOVEC_LOOP
  for (size_t l = 0; p + l < n; ++l) acc[l] += x[p + l] * y[p + l];
  float s01 = acc[0] + acc[1];
  float s23 = acc[2] + acc[3];
  float s45 = acc[4] + acc[5];
  float s67 = acc[6] + acc[7];
  return (s01 + s23) + (s45 + s67);
}

// The NN tile's defining order: each C element starts at its row's
// init value and takes one multiply-then-add per p, ascending — the
// sequence a per-(row, p) axpy produces.
DPBR_NOVEC_FN void ScalarGemmNNTileF32(size_t rows, size_t cols, size_t k,
                                       const float* a, size_t a_rs,
                                       size_t a_cs, const float* b,
                                       size_t ldb, const float* row_init,
                                       float* c, size_t ldc) {
  for (size_t r = 0; r < rows; ++r) {
    float* crow = c + r * ldc;
    float init = row_init != nullptr ? row_init[r] : 0.0f;
    DPBR_NOVEC_LOOP
    for (size_t j = 0; j < cols; ++j) crow[j] = init;
    for (size_t p = 0; p < k; ++p) {
      float ar = a[r * a_rs + p * a_cs];
      const float* brow = b + p * ldb;
      DPBR_NOVEC_LOOP
      for (size_t j = 0; j < cols; ++j) crow[j] += ar * brow[j];
    }
  }
}

// The NT tile's defining order: every element is one dot8 fold.
DPBR_NOVEC_FN void ScalarGemmNTTileF32(size_t rows, size_t cols, size_t k,
                                       const float* a, size_t lda,
                                       const float* b, size_t ldb,
                                       bool accumulate, float* c,
                                       size_t ldc) {
  for (size_t r = 0; r < rows; ++r) {
    for (size_t j = 0; j < cols; ++j) {
      float d = ScalarDot8F32(a + r * lda, b + j * ldb, k);
      float* cj = c + r * ldc + j;
      *cj = accumulate ? *cj + d : d;
    }
  }
}

DPBR_NOVEC_FN double ScalarDistSq8F64(const float* a, const float* b,
                                      size_t n) {
  double acc[kFoldLanes] = {0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0};
  size_t p = 0;
  for (; p + kFoldLanes <= n; p += kFoldLanes) {
    DPBR_NOVEC_LOOP
    for (size_t l = 0; l < kFoldLanes; ++l) {
      double d = static_cast<double>(a[p + l]) - static_cast<double>(b[p + l]);
      acc[l] += d * d;
    }
  }
  DPBR_NOVEC_LOOP
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

DPBR_NOVEC_FN double ScalarSum8F64(const float* x, size_t n) {
  double acc[kFoldLanes] = {0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0};
  size_t p = 0;
  for (; p + kFoldLanes <= n; p += kFoldLanes) {
    DPBR_NOVEC_LOOP
    for (size_t l = 0; l < kFoldLanes; ++l) {
      acc[l] += static_cast<double>(x[p + l]);
    }
  }
  DPBR_NOVEC_LOOP
  for (size_t l = 0; p + l < n; ++l) acc[l] += static_cast<double>(x[p + l]);
  double s01 = acc[0] + acc[1];
  double s23 = acc[2] + acc[3];
  double s45 = acc[4] + acc[5];
  double s67 = acc[6] + acc[7];
  return (s01 + s23) + (s45 + s67);
}

DPBR_NOVEC_FN void ScalarEluF32(float* y, size_t n) {
  DPBR_NOVEC_LOOP
  for (size_t i = 0; i < n; ++i) {
    float v = y[i];
    if (!(v > 0.0f)) y[i] = std::exp(v) - 1.0f;
  }
}

DPBR_NOVEC_FN void ScalarEluGradF32(float* g, const float* y, size_t n) {
  DPBR_NOVEC_LOOP
  for (size_t i = 0; i < n; ++i) {
    if (y[i] <= 0.0f) g[i] = g[i] * (y[i] + 1.0f);
  }
}

DPBR_NOVEC_FN void ScalarGNormNormF32(const float* x, size_t n, double mean,
                                      double inv_std, float* xhat, float* y) {
  DPBR_NOVEC_LOOP
  for (size_t i = 0; i < n; ++i) {
    float xh = static_cast<float>((x[i] - mean) * inv_std);
    xhat[i] = xh;
    y[i] = xh + 0.0f;
  }
}

DPBR_NOVEC_FN void ScalarGNormDxF32(const float* dy, const float* xhat,
                                    size_t n, double mean_dy,
                                    double mean_dy_xhat, double inv_std,
                                    float* dx) {
  DPBR_NOVEC_LOOP
  for (size_t i = 0; i < n; ++i) {
    dx[i] = static_cast<float>(
        inv_std * (static_cast<double>(dy[i]) - mean_dy -
                   static_cast<double>(xhat[i]) * mean_dy_xhat));
  }
}

DPBR_NOVEC_FN bool ScalarAllFiniteF32(const float* x, size_t n) {
  DPBR_NOVEC_LOOP
  for (size_t i = 0; i < n; ++i) {
    if (!std::isfinite(x[i])) return false;
  }
  return true;
}

DPBR_NOVEC_FN void ScalarTransposeF32(const float* src, size_t src_stride,
                                      size_t rows, size_t cols, float* dst,
                                      size_t dst_stride) {
  for (size_t r = 0; r < rows; ++r) {
    const float* srow = src + r * src_stride;
    DPBR_NOVEC_LOOP
    for (size_t c = 0; c < cols; ++c) dst[c * dst_stride + r] = srow[c];
  }
}

bool EnvTruthy(const char* name) {
  const char* v = std::getenv(name);
  if (v == nullptr) return false;
  char buf[8];
  size_t n = std::strlen(v);
  if (n == 0 || n >= sizeof(buf)) return false;
  for (size_t i = 0; i < n; ++i) {
    buf[i] = static_cast<char>(
        std::tolower(static_cast<unsigned char>(v[i])));
  }
  buf[n] = '\0';
  return std::strcmp(buf, "1") == 0 || std::strcmp(buf, "true") == 0 ||
         std::strcmp(buf, "yes") == 0 || std::strcmp(buf, "on") == 0;
}

std::atomic<const SimdKernels*> g_active{nullptr};

}  // namespace

namespace detail {

const SimdKernels& ScalarTable() {
  static const SimdKernels table = {
      /*isa=*/IsaLevel::kScalar,
      /*axpy_f32=*/&ScalarAxpyF32,
      /*scale_f32=*/&ScalarScaleF32,
      /*momentum_fold_f32=*/&ScalarMomentumFoldF32,
      /*gemm_nn_tile_f32=*/&ScalarGemmNNTileF32,
      /*gemm_nt_tile_f32=*/&ScalarGemmNTTileF32,
      /*distsq8_f64=*/&ScalarDistSq8F64,
      /*sum8_f64=*/&ScalarSum8F64,
      /*elu_f32=*/&ScalarEluF32,
      /*elu_grad_f32=*/&ScalarEluGradF32,
      /*gnorm_norm_f32=*/&ScalarGNormNormF32,
      /*gnorm_dx_f32=*/&ScalarGNormDxF32,
      /*all_finite_f32=*/&ScalarAllFiniteF32,
      /*transpose_f32=*/&ScalarTransposeF32,
      /*zig_try_fill_f32=*/nullptr,
  };
  return table;
}

}  // namespace detail

const char* IsaName(IsaLevel level) {
  switch (level) {
    case IsaLevel::kScalar:
      return "scalar";
    case IsaLevel::kSse2:
      return "sse2";
    case IsaLevel::kAvx2:
      return "avx2";
    case IsaLevel::kAvx512:
      return "avx512";
  }
  return "unknown";
}

bool ForceScalarFromEnv() { return EnvTruthy("DPBR_FORCE_SCALAR"); }

IsaLevel DetectedIsa() {
  static const IsaLevel level = [] {
#if defined(__x86_64__) || defined(__i386__)
    // CPUID gates come first: the table builders live in TUs compiled
    // with the ISA's -m flags, so they must not run on a CPU without it.
    if (__builtin_cpu_supports("avx512f") &&
        __builtin_cpu_supports("avx512dq") &&
        detail::Avx512Table() != nullptr) {
      return IsaLevel::kAvx512;
    }
    if (__builtin_cpu_supports("avx2") && detail::Avx2Table() != nullptr) {
      return IsaLevel::kAvx2;
    }
    if (__builtin_cpu_supports("sse2") && detail::Sse2Table() != nullptr) {
      return IsaLevel::kSse2;
    }
#endif
    return IsaLevel::kScalar;
  }();
  return level;
}

const SimdKernels* KernelsFor(IsaLevel level) {
  if (level == IsaLevel::kScalar) return &detail::ScalarTable();
  if (static_cast<int>(level) > static_cast<int>(DetectedIsa())) {
    return nullptr;  // build or CPU cannot run this tier
  }
  switch (level) {
    case IsaLevel::kSse2:
      return detail::Sse2Table();
    case IsaLevel::kAvx2:
      return detail::Avx2Table();
    case IsaLevel::kAvx512:
      return detail::Avx512Table();
    case IsaLevel::kScalar:
      break;
  }
  return nullptr;
}

const SimdKernels& Kernels() {
  const SimdKernels* table = g_active.load(std::memory_order_acquire);
  if (table == nullptr) {
    const SimdKernels* resolved = ForceScalarFromEnv()
                                      ? &detail::ScalarTable()
                                      : KernelsFor(DetectedIsa());
    const SimdKernels* expected = nullptr;
    if (g_active.compare_exchange_strong(expected, resolved,
                                         std::memory_order_acq_rel)) {
      table = resolved;
    } else {
      table = expected;  // another thread won the race
    }
  }
  return *table;
}

IsaLevel ActiveIsa() { return Kernels().isa; }

namespace {

// Retargets the active table (checked against KernelsFor).
void Activate(IsaLevel level) {
  const SimdKernels* table = KernelsFor(level);
  DPBR_CHECK(table != nullptr);
  g_active.store(table, std::memory_order_release);
}

}  // namespace

ScopedForceIsa::ScopedForceIsa(IsaLevel level) : prev_(ActiveIsa()) {
  Activate(level);
}

ScopedForceIsa::~ScopedForceIsa() { Activate(prev_); }

}  // namespace simd
}  // namespace dpbr
