// The SIMD dispatch layer's determinism contract, enforced per ISA:
//  * every kernel table the host can run (scalar, SSE2, AVX2, AVX-512)
//    produces BITWISE-identical output to the scalar reference table, on
//    every size in an odd-size sweep chosen to hit full vectors, ragged
//    tails, and sub-vector-width inputs,
//  * the activation and all-finite kernels keep that bitwise guarantee
//    on adversarial payloads (NaN, ±0, denormals, ±Inf),
//  * the register-blocked GEMM tiles keep the scalar reference's
//    per-element order (ascending-p axpy for NN, the dot8 fold for NT)
//    bitwise, at shapes straddling every tier's register tile,
//  * the pinned 8-lane reductions agree with a naive sequential sum only
//    to tolerance (documented reassociation), while remaining bitwise
//    stable across ISAs,
//  * the fused momentum fold keeps the bits of the scale, axpy and
//    chained sum of squares it replaces,
//  * the vectorized ziggurat fast path reproduces the scalar rejection
//    sampler's stream exactly through the public FillGaussian API, and
//    its pipelined batches commit exactly the contract's prefix, and
//  * ScopedForceIsa retargets and restores the active table.
//
// Buffers are heap-allocated at exactly the tested size so that any
// kernel reading or writing past `n` fails loudly under ASan.

#include "common/simd.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.h"
#include "tensor/ops.h"

namespace dpbr {
namespace {

using simd::IsaLevel;
using simd::SimdKernels;

// Every tier, in order; tests probe KernelsFor and skip what the build
// or CPU cannot run. Scalar is included on purpose: running the
// reference against itself keeps the harness honest.
const IsaLevel kAllIsas[] = {IsaLevel::kScalar, IsaLevel::kSse2,
                             IsaLevel::kAvx2, IsaLevel::kAvx512};

// Full vectors (8/16/64), ragged tails (9/17/65/67), and sizes smaller
// than any vector width (0..7) — the block-constant audit: a kernel
// handed fewer elements than one vector must fall to its scalar tail.
const size_t kSizes[] = {0,  1,  2,  3,  5,  7,  8,  9,
                         15, 16, 17, 31, 33, 63, 64, 65, 67, 130};

uint32_t Bits(float v) {
  uint32_t b;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

uint64_t Bits(double v) {
  uint64_t b;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

void ExpectBitEqual(const std::vector<float>& want,
                    const std::vector<float>& got) {
  ASSERT_EQ(want.size(), got.size());
  for (size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(Bits(want[i]), Bits(got[i]))
        << "element " << i << ": want " << want[i] << " got " << got[i];
  }
}

// Bitwise, except that a NaN only has to meet a NaN: when two NaN
// operands meet, x86 returns the first source operand's payload, and
// the compiler is free to order a commutative add or multiply either
// way, so the payload (sign included) of a NaN born from NaN arithmetic
// is not part of any kernel's contract.
void ExpectBitEqualOrBothNaN(const std::vector<float>& want,
                             const std::vector<float>& got) {
  ASSERT_EQ(want.size(), got.size());
  for (size_t i = 0; i < want.size(); ++i) {
    if (std::isnan(want[i])) {
      ASSERT_TRUE(std::isnan(got[i])) << "element " << i << ": got "
                                      << got[i];
      continue;
    }
    ASSERT_EQ(Bits(want[i]), Bits(got[i]))
        << "element " << i << ": want " << want[i] << " got " << got[i];
  }
}

std::vector<float> RandomVec(size_t n, uint64_t seed, double stddev = 1.0) {
  std::vector<float> v(n);
  SplitRng rng(seed);
  for (size_t i = 0; i < n; ++i) {
    v[i] = static_cast<float>(stddev * rng.Gaussian());
  }
  return v;
}

// Gaussian noise with every hostile float interleaved: NaN, ±Inf, ±0,
// ±denormal, and the extremes of the finite range.
std::vector<float> AdversarialVec(size_t n, uint64_t seed) {
  static const float kSpecials[] = {
      std::numeric_limits<float>::quiet_NaN(),
      std::numeric_limits<float>::infinity(),
      -std::numeric_limits<float>::infinity(),
      0.0f,
      -0.0f,
      std::numeric_limits<float>::denorm_min(),
      -std::numeric_limits<float>::denorm_min(),
      std::numeric_limits<float>::max(),
      std::numeric_limits<float>::lowest(),
      1e-38f,
  };
  std::vector<float> v = RandomVec(n, seed);
  for (size_t i = 0; i < n; i += 2) {
    v[i] = kSpecials[(i / 2 + seed) % (sizeof(kSpecials) / sizeof(float))];
  }
  return v;
}

// Finite-only variant (±0 and denormals stay in) for the kernels whose
// callers sanitize first (reductions, GroupNorm sweeps).
std::vector<float> FiniteEdgeVec(size_t n, uint64_t seed) {
  std::vector<float> v = AdversarialVec(n, seed);
  for (float& x : v) {
    if (!std::isfinite(x)) x = 0.25f;
  }
  return v;
}

// Runs `check(scalar_table, isa_table)` once per available ISA.
template <typename Fn>
void ForEachIsa(const Fn& check) {
  const SimdKernels* ref = simd::KernelsFor(IsaLevel::kScalar);
  ASSERT_NE(ref, nullptr);
  for (IsaLevel level : kAllIsas) {
    const SimdKernels* k = simd::KernelsFor(level);
    if (k == nullptr) continue;  // build or CPU cannot run this tier
    SCOPED_TRACE(simd::IsaName(level));
    check(*ref, *k);
  }
}

TEST(SimdDispatchTest, TablesAreConsistent) {
  // The scalar table always exists and never claims a vector tier.
  const SimdKernels* scalar = simd::KernelsFor(IsaLevel::kScalar);
  ASSERT_NE(scalar, nullptr);
  EXPECT_EQ(scalar->isa, IsaLevel::kScalar);
  // Every available table self-reports its tier and fills every slot
  // except the optional ziggurat kernel.
  for (IsaLevel level : kAllIsas) {
    const SimdKernels* k = simd::KernelsFor(level);
    if (k == nullptr) {
      EXPECT_NE(level, IsaLevel::kScalar);
      continue;
    }
    EXPECT_EQ(k->isa, level) << simd::IsaName(level);
    EXPECT_NE(k->axpy_f32, nullptr);
    EXPECT_NE(k->momentum_fold_f32, nullptr);
    EXPECT_NE(k->gemm_nn_tile_f32, nullptr);
    EXPECT_NE(k->gemm_nt_tile_f32, nullptr);
    EXPECT_NE(k->all_finite_f32, nullptr);
    EXPECT_NE(k->transpose_f32, nullptr);
  }
  // The active table is one of the available tiers, and agrees with
  // ActiveIsa().
  EXPECT_EQ(simd::Kernels().isa, simd::ActiveIsa());
  EXPECT_NE(simd::KernelsFor(simd::DetectedIsa()), nullptr);
}

TEST(SimdDispatchTest, ScopedForceIsaRetargetsAndRestores) {
  IsaLevel before = simd::ActiveIsa();
  {
    simd::ScopedForceIsa force(IsaLevel::kScalar);
    EXPECT_EQ(simd::ActiveIsa(), IsaLevel::kScalar);
    EXPECT_EQ(simd::Kernels().isa, IsaLevel::kScalar);
  }
  EXPECT_EQ(simd::ActiveIsa(), before);
  // Nested overrides unwind in order.
  if (simd::KernelsFor(IsaLevel::kSse2) != nullptr) {
    simd::ScopedForceIsa outer(IsaLevel::kSse2);
    EXPECT_EQ(simd::ActiveIsa(), IsaLevel::kSse2);
    {
      simd::ScopedForceIsa inner(IsaLevel::kScalar);
      EXPECT_EQ(simd::ActiveIsa(), IsaLevel::kScalar);
    }
    EXPECT_EQ(simd::ActiveIsa(), IsaLevel::kSse2);
  }
  EXPECT_EQ(simd::ActiveIsa(), before);
}

TEST(SimdDispatchTest, ForceScalarEnvParsing) {
  // Resolve the active table first so this test can't accidentally pin
  // the whole process to scalar via first-use resolution.
  (void)simd::Kernels();
  for (const char* truthy : {"1", "true", "YES", "On"}) {
    ASSERT_EQ(setenv("DPBR_FORCE_SCALAR", truthy, 1), 0);
    EXPECT_TRUE(simd::ForceScalarFromEnv()) << truthy;
  }
  for (const char* falsy : {"0", "false", "no", "off", ""}) {
    ASSERT_EQ(setenv("DPBR_FORCE_SCALAR", falsy, 1), 0);
    EXPECT_FALSE(simd::ForceScalarFromEnv()) << "'" << falsy << "'";
  }
  ASSERT_EQ(unsetenv("DPBR_FORCE_SCALAR"), 0);
  EXPECT_FALSE(simd::ForceScalarFromEnv());
}

// --- Element-wise kernels: bitwise equality is structural (no
// reassociation anywhere), so it must hold exactly on every size.

TEST(SimdKernelTest, AxpyBitwise) {
  ForEachIsa([](const SimdKernels& ref, const SimdKernels& k) {
    for (size_t n : kSizes) {
      std::vector<float> x = RandomVec(n, 100 + n);
      std::vector<float> want = RandomVec(n, 200 + n);
      std::vector<float> got = want;
      ref.axpy_f32(0.37f, x.data(), want.data(), n);
      k.axpy_f32(0.37f, x.data(), got.data(), n);
      ExpectBitEqual(want, got);
    }
  });
}

TEST(SimdKernelTest, ScaleBitwise) {
  ForEachIsa([](const SimdKernels& ref, const SimdKernels& k) {
    for (size_t n : kSizes) {
      std::vector<float> want = RandomVec(n, 500 + n);
      std::vector<float> got = want;
      ref.scale_f32(-1.618f, want.data(), n);
      k.scale_f32(-1.618f, got.data(), n);
      ExpectBitEqual(want, got);
    }
  });
}

// --- The momentum fold: phi ← β·phi + (1−β)·g and the new phi's
// chained sum of squares, in one pass. Every tier equals the scalar
// entry, and the scalar entry equals the three calls it replaces
// (ops::Scale, ops::Axpy, ops::ChainedSquaredNorm), on sizes around
// every tier's step and at the paper models' d, with NaN, ±inf and
// denormals in both inputs.

void ExpectSameSum(double want, double got) {
  if (std::isnan(want)) {
    ASSERT_TRUE(std::isnan(got)) << "got " << got;
  } else {
    ASSERT_EQ(Bits(want), Bits(got)) << "want " << want << " got " << got;
  }
}

TEST(SimdKernelTest, MomentumFoldBitwise) {
  const size_t kFoldSizes[] = {0, 1, 7, 8, 15, 16, 17, 21802, 25450};
  for (float beta : {0.0f, 0.1f, 0.9f}) {
    const float omb = 1.0f - beta;
    for (size_t n : kFoldSizes) {
      for (bool adversarial : {false, true}) {
        SCOPED_TRACE("beta " + std::to_string(beta) + ", n " +
                     std::to_string(n) +
                     (adversarial ? ", adversarial" : ", finite"));
        std::vector<float> g =
            adversarial ? AdversarialVec(n, 1300 + n) : RandomVec(n, 1300 + n);
        std::vector<float> phi0 = adversarial ? AdversarialVec(n, 1400 + n)
                                              : RandomVec(n, 1400 + n);
        std::vector<float> three = phi0;
        ops::Scale(beta, three.data(), n);
        ops::Axpy(omb, g.data(), three.data(), n);
        double three_sq = ops::ChainedSquaredNorm(three.data(), n);
        ForEachIsa([&](const SimdKernels& ref, const SimdKernels& k) {
          std::vector<float> want = phi0;
          double want_sq =
              ref.momentum_fold_f32(beta, omb, g.data(), want.data(), n);
          ExpectBitEqualOrBothNaN(three, want);
          ExpectSameSum(three_sq, want_sq);
          std::vector<float> got = phi0;
          double got_sq =
              k.momentum_fold_f32(beta, omb, g.data(), got.data(), n);
          ExpectBitEqualOrBothNaN(want, got);
          ExpectSameSum(want_sq, got_sq);
        });
      }
    }
  }
}

TEST(SimdKernelTest, MomentumFoldSumFeedsTheInverseNorm) {
  // ops::InverseNorm from the fold's sum is the one from the row itself.
  for (size_t n : {size_t{17}, size_t{21802}, size_t{25450}}) {
    std::vector<float> g = RandomVec(n, 1500 + n, 0.01);
    std::vector<float> phi = RandomVec(n, 1600 + n, 0.01);
    double sq = ops::MomentumFold(0.1f, 0.9f, g.data(), phi.data(), n);
    EXPECT_EQ(Bits(ops::InverseNorm(phi.data(), n)),
              Bits(ops::InverseNorm(phi.data(), n, sq)));
  }
}

// --- Reductions: the pinned 8-lane fold is part of the kernel
// definition, so SIMD-vs-scalar equality is exact (bitwise), on finite
// edge-case payloads included.

TEST(SimdKernelTest, DistSq8Bitwise) {
  ForEachIsa([](const SimdKernels& ref, const SimdKernels& k) {
    for (size_t n : kSizes) {
      std::vector<float> a = FiniteEdgeVec(n, 800 + n);
      std::vector<float> b = FiniteEdgeVec(n, 900 + n);
      double want = ref.distsq8_f64(a.data(), b.data(), n);
      double got = k.distsq8_f64(a.data(), b.data(), n);
      ASSERT_EQ(Bits(want), Bits(got)) << "n=" << n;
    }
  });
}

TEST(SimdKernelTest, Sum8Bitwise) {
  ForEachIsa([](const SimdKernels& ref, const SimdKernels& k) {
    for (size_t n : kSizes) {
      std::vector<float> x = FiniteEdgeVec(n, 1000 + n);
      double want = ref.sum8_f64(x.data(), n);
      double got = k.sum8_f64(x.data(), n);
      ASSERT_EQ(Bits(want), Bits(got)) << "n=" << n;
    }
  });
}

// The lane a tail element joins is part of each fold's definition. One
// huge term in lane 0 and unit terms in the n % 8 tail round one way
// when the tail spreads over lanes 1.. (distsq8, sum8) and another when
// it all joins lane 0 (the momentum fold's sum of squares), so a kernel
// that sends a tail term to another lane than the reference's changes
// the result's bits.
TEST(SimdKernelTest, ChainedFoldTailLanesBitwise) {
  ForEachIsa([](const SimdKernels& ref, const SimdKernels& k) {
    for (size_t n : {size_t{15}, size_t{31}, size_t{1007}}) {
      std::vector<float> x(n, 0.0f);
      for (size_t i = n - n % simd::kFoldLanes; i < n; ++i) x[i] = 1.0f;
      x[0] = 0x1p27f;  // its square, 2^54, absorbs a lone unit term
      const std::vector<float> zero(n, 0.0f);
      double want = ref.distsq8_f64(x.data(), zero.data(), n);
      double got = k.distsq8_f64(x.data(), zero.data(), n);
      ASSERT_EQ(Bits(want), Bits(got)) << "distsq8 n=" << n;
      std::vector<float> phi_want(n, 0.0f), phi_got(n, 0.0f);
      want = ref.momentum_fold_f32(0.0f, 1.0f, x.data(), phi_want.data(), n);
      got = k.momentum_fold_f32(0.0f, 1.0f, x.data(), phi_got.data(), n);
      ASSERT_EQ(Bits(want), Bits(got)) << "momentum fold n=" << n;
      x[0] = 0x1p53f;
      want = ref.sum8_f64(x.data(), n);
      got = k.sum8_f64(x.data(), n);
      ASSERT_EQ(Bits(want), Bits(got)) << "sum8 n=" << n;
    }
  });
}

// The fold differs from a naive sequential sum only by reassociation:
// tolerance-equal, never assumed bitwise-equal.
TEST(SimdKernelTest, ChainedFoldMatchesSequentialToTolerance) {
  const SimdKernels& k = simd::Kernels();
  for (size_t n : {size_t{67}, size_t{1000}, size_t{4097}}) {
    std::vector<float> a = RandomVec(n, 1100 + n);
    std::vector<float> b = RandomVec(n, 1200 + n);
    double seq_dot = 0.0, seq_sum = 0.0;
    for (size_t i = 0; i < n; ++i) {
      seq_dot += static_cast<double>(a[i]) * static_cast<double>(b[i]);
      seq_sum += static_cast<double>(a[i]);
    }
    // The NT tile's fold, as a 1×1 tile.
    float dot = 0.0f;
    k.gemm_nt_tile_f32(1, 1, n, a.data(), n, b.data(), n,
                       /*accumulate=*/false, &dot, 1);
    EXPECT_NEAR(dot, seq_dot, 1e-3 * (1.0 + std::abs(seq_dot)));
    EXPECT_NEAR(k.sum8_f64(a.data(), n), seq_sum,
                1e-9 * (1.0 + std::abs(seq_sum)));
  }
}

// --- Activations: bitwise on fully adversarial payloads. The ELU
// grad's y <= 0 test is unordered-false, so NaN keeps the gradient.

TEST(SimdKernelTest, EluAdversarialBitwise) {
  ForEachIsa([](const SimdKernels& ref, const SimdKernels& k) {
    for (size_t n : kSizes) {
      std::vector<float> want = AdversarialVec(n, 1600 + n);
      std::vector<float> got = want;
      ref.elu_f32(want.data(), n);
      k.elu_f32(got.data(), n);
      ExpectBitEqual(want, got);
      // All-positive inputs exercise the vector skip path.
      std::vector<float> pos_want(n, 0.5f), pos_got(n, 0.5f);
      ref.elu_f32(pos_want.data(), n);
      k.elu_f32(pos_got.data(), n);
      ExpectBitEqual(pos_want, pos_got);
    }
  });
}

TEST(SimdKernelTest, EluGradAdversarialBitwise) {
  ForEachIsa([](const SimdKernels& ref, const SimdKernels& k) {
    for (size_t n : kSizes) {
      std::vector<float> y = AdversarialVec(n, 1700 + n);
      std::vector<float> want = RandomVec(n, 1800 + n);
      std::vector<float> got = want;
      ref.elu_grad_f32(want.data(), y.data(), n);
      k.elu_grad_f32(got.data(), y.data(), n);
      ExpectBitEqual(want, got);
    }
  });
}

// --- GroupNorm sweeps (double-widened element loops).

TEST(SimdKernelTest, GroupNormNormalizeBitwise) {
  ForEachIsa([](const SimdKernels& ref, const SimdKernels& k) {
    for (size_t n : kSizes) {
      std::vector<float> x = FiniteEdgeVec(n, 1900 + n);
      std::vector<float> xhat_want(n), y_want(n), xhat_got(n), y_got(n);
      ref.gnorm_norm_f32(x.data(), n, 0.173, 1.42, 1.1f, -0.2f,
                         xhat_want.data(), y_want.data());
      k.gnorm_norm_f32(x.data(), n, 0.173, 1.42, 1.1f, -0.2f,
                       xhat_got.data(), y_got.data());
      ExpectBitEqual(xhat_want, xhat_got);
      ExpectBitEqual(y_want, y_got);
    }
  });
}

TEST(SimdKernelTest, GroupNormDxBitwise) {
  ForEachIsa([](const SimdKernels& ref, const SimdKernels& k) {
    for (size_t n : kSizes) {
      std::vector<float> dy = FiniteEdgeVec(n, 2000 + n);
      std::vector<float> xhat = RandomVec(n, 2100 + n);
      std::vector<float> want(n), got(n);
      ref.gnorm_dx_f32(dy.data(), xhat.data(), n, 1.3, 0.01, -0.02, 2.7,
                       want.data());
      k.gnorm_dx_f32(dy.data(), xhat.data(), n, 1.3, 0.01, -0.02, 2.7,
                     got.data());
      ExpectBitEqual(want, got);
    }
  });
}

// --- all_finite: the sanitize-path predicate. Denormals and ±0 are
// finite; a single NaN or ±Inf anywhere (first element, middle, or deep
// in the scalar tail) must flip the answer on every tier.

TEST(SimdKernelTest, AllFiniteAdversarial) {
  ForEachIsa([](const SimdKernels& ref, const SimdKernels& k) {
    for (size_t n : kSizes) {
      std::vector<float> clean = FiniteEdgeVec(n, 2200 + n);
      ASSERT_TRUE(ref.all_finite_f32(clean.data(), n)) << "n=" << n;
      ASSERT_TRUE(k.all_finite_f32(clean.data(), n)) << "n=" << n;
      if (n == 0) continue;
      const float kBad[] = {std::numeric_limits<float>::quiet_NaN(),
                            std::numeric_limits<float>::infinity(),
                            -std::numeric_limits<float>::infinity()};
      for (size_t pos : {size_t{0}, n / 2, n - 1}) {
        for (float bad : kBad) {
          std::vector<float> poisoned = clean;
          poisoned[pos] = bad;
          ASSERT_FALSE(ref.all_finite_f32(poisoned.data(), n))
              << "n=" << n << " pos=" << pos;
          ASSERT_FALSE(k.all_finite_f32(poisoned.data(), n))
              << "n=" << n << " pos=" << pos;
        }
      }
    }
  });
}

// --- Transpose (the aggregator selection-tile gather): pure data
// movement, checked against index arithmetic. Strides exceed the block
// sizes so edge blocks and the strided tail both run.

TEST(SimdKernelTest, TransposeMatchesIndexArithmetic) {
  struct Shape {
    size_t rows, cols, src_stride, dst_stride;
  };
  const Shape kShapes[] = {
      {1, 1, 1, 1},   {3, 5, 7, 4},    {4, 4, 4, 4},    {8, 8, 8, 8},
      {9, 7, 11, 10}, {16, 5, 23, 17}, {5, 16, 19, 6},  {17, 17, 18, 19},
      {24, 33, 40, 25},
  };
  ForEachIsa([&](const SimdKernels& ref, const SimdKernels& k) {
    (void)ref;
    for (const Shape& s : kShapes) {
      std::vector<float> src(s.rows * s.src_stride);
      for (size_t i = 0; i < src.size(); ++i) {
        src[i] = static_cast<float>(i) * 0.5f;
      }
      std::vector<float> dst(s.cols * s.dst_stride, -1.0f);
      k.transpose_f32(src.data(), s.src_stride, s.rows, s.cols, dst.data(),
                      s.dst_stride);
      for (size_t r = 0; r < s.rows; ++r) {
        for (size_t c = 0; c < s.cols; ++c) {
          ASSERT_EQ(dst[c * s.dst_stride + r], src[r * s.src_stride + c])
              << s.rows << "x" << s.cols << " (" << r << "," << c << ")";
        }
      }
      // Slots outside the written region stay untouched.
      for (size_t c = 0; c < s.cols; ++c) {
        for (size_t r = s.rows; r < s.dst_stride; ++r) {
          ASSERT_EQ(dst[c * s.dst_stride + r], -1.0f);
        }
      }
    }
  });
}

// --- GEMM tiles: the register-blocked tiles must reproduce the scalar
// reference's per-element operation sequence exactly, on every tier, at
// shapes straddling each tier's register-tile rows, vector columns and
// 8-lane fold (k = 0 included). Two payloads: finite edge values (±0,
// denormals, the extremes of the range), compared bitwise, and the fully
// adversarial set with NaN and ±Inf, compared bitwise up to NaN payload.
// A runs both row-major (NN) and transposed in place (the TN access); C
// has a padded leading dimension whose gap columns must survive
// untouched. The scalar result is computed once per case and every
// vector tier compared against it.

const size_t kTileCols[] = {1, 7, 8, 15, 16, 17, 47, 48, 49, 144};
const size_t kTileKs[] = {0, 1, 7, 8, 9, 25, 144, 400};

// Runs `run(table, c)` on the scalar table and on every vector tier the
// host can run, each from the same initial C, and compares the results.
template <typename Fn>
void ExpectTileTiersAgree(const std::vector<float>& c0, bool adversarial,
                          const Fn& run) {
  std::vector<float> want = c0;
  run(*simd::KernelsFor(IsaLevel::kScalar), want.data());
  for (IsaLevel level : kAllIsas) {
    const SimdKernels* k = simd::KernelsFor(level);
    if (k == nullptr || level == IsaLevel::kScalar) continue;
    SCOPED_TRACE(simd::IsaName(level));
    std::vector<float> got = c0;
    run(*k, got.data());
    if (adversarial) {
      ExpectBitEqualOrBothNaN(want, got);
    } else {
      ExpectBitEqual(want, got);
    }
  }
}

std::vector<float> TilePayload(size_t n, uint64_t seed, bool adversarial) {
  return adversarial ? AdversarialVec(n, seed) : FiniteEdgeVec(n, seed);
}

TEST(SimdKernelTest, GemmNNTileBitwise) {
  for (bool adversarial : {false, true}) {
    for (size_t rows = 1; rows <= 9; ++rows) {
      for (size_t cols : kTileCols) {
        for (size_t depth : kTileKs) {
          SCOPED_TRACE(std::to_string(rows) + "x" + std::to_string(cols) +
                       " k=" + std::to_string(depth) +
                       (adversarial ? " adversarial" : " finite"));
          uint64_t seed = rows * 1000 + cols * 10 + depth;
          std::vector<float> a =
              TilePayload(rows * depth, 2300 + seed, adversarial);
          std::vector<float> b =
              TilePayload(depth * cols, 2400 + seed, adversarial);
          std::vector<float> init = TilePayload(rows, 2500 + seed, adversarial);
          size_t ldc = cols + 1;
          std::vector<float> c0 = RandomVec(rows * ldc, 2600 + seed);
          const float* row_inits[] = {nullptr, init.data()};
          for (bool transposed : {false, true}) {
            // NN reads a as rows×depth; TN reads it as depth×rows.
            size_t a_rs = transposed ? 1 : depth;
            size_t a_cs = transposed ? rows : 1;
            for (const float* row_init : row_inits) {
              auto run = [&](const SimdKernels& k, float* c) {
                k.gemm_nn_tile_f32(rows, cols, depth, a.data(), a_rs, a_cs,
                                   b.data(), cols, row_init, c, ldc);
              };
              ExpectTileTiersAgree(c0, adversarial, run);
            }
          }
        }
      }
    }
  }
}

TEST(SimdKernelTest, GemmNTTileBitwise) {
  for (bool adversarial : {false, true}) {
    for (size_t rows = 1; rows <= 9; ++rows) {
      for (size_t cols : kTileCols) {
        for (size_t depth : kTileKs) {
          SCOPED_TRACE(std::to_string(rows) + "x" + std::to_string(cols) +
                       " k=" + std::to_string(depth) +
                       (adversarial ? " adversarial" : " finite"));
          uint64_t seed = rows * 1000 + cols * 10 + depth;
          // Padded row strides for both operands.
          size_t lda = depth + 3;
          size_t ldb = depth + 1;
          std::vector<float> a =
              TilePayload(rows * lda, 2700 + seed, adversarial);
          std::vector<float> b =
              TilePayload(cols * ldb, 2800 + seed, adversarial);
          size_t ldc = cols + 1;
          std::vector<float> c0 =
              TilePayload(rows * ldc, 2900 + seed, adversarial);
          for (bool accumulate : {false, true}) {
            auto run = [&](const SimdKernels& k, float* c) {
              k.gemm_nt_tile_f32(rows, cols, depth, a.data(), lda, b.data(),
                                 ldb, accumulate, c, ldc);
            };
            ExpectTileTiersAgree(c0, adversarial, run);
          }
        }
      }
    }
  }
}

// --- Ziggurat fast path: FillGaussian/AddGaussian must emit the exact
// scalar rejection-sampler stream no matter which tier is active, at
// sizes covering sub-batch fills, ragged batch tails, and multi-block
// parallel fills.

TEST(SimdZigguratTest, FillStreamBitwiseAcrossIsas) {
  const size_t kNs[] = {1, 3, 7, 8, 9, 130, 4095, 4096, 4097, 2 * 4096 + 77};
  for (size_t n : kNs) {
    std::vector<float> want(n);
    {
      simd::ScopedForceIsa force(IsaLevel::kScalar);
      SplitRng rng(57, {11});
      rng.FillGaussian(want.data(), n, 0.8);
    }
    for (IsaLevel level : kAllIsas) {
      if (simd::KernelsFor(level) == nullptr) continue;
      SCOPED_TRACE(simd::IsaName(level));
      simd::ScopedForceIsa force(level);
      std::vector<float> got(n);
      SplitRng rng(57, {11});
      rng.FillGaussian(got.data(), n, 0.8);
      ExpectBitEqual(want, got);
    }
  }
}

TEST(SimdZigguratTest, AddStreamBitwiseAcrossIsas) {
  const size_t n = 4096 + 130;
  std::vector<float> want(n, 1.25f);
  {
    simd::ScopedForceIsa force(IsaLevel::kScalar);
    SplitRng rng(61, {13});
    rng.AddGaussian(want.data(), n, 1.7);
  }
  for (IsaLevel level : kAllIsas) {
    if (simd::KernelsFor(level) == nullptr) continue;
    SCOPED_TRACE(simd::IsaName(level));
    simd::ScopedForceIsa force(level);
    std::vector<float> got(n, 1.25f);
    SplitRng rng(61, {13});
    rng.AddGaussian(got.data(), n, 1.7);
    ExpectBitEqual(want, got);
  }
}

// --- The ziggurat batch kernel against its contract (simd.h), draw by
// draw. The tables are the test's own, so the acceptance rate and the
// place of every rejection are known: the kernel computes four 8-draw
// batches ahead, and a rejection in any of them, or max_n inside any of
// them, must end the commit exactly where the one-draw loop ends.

uint64_t SplitMix64(uint64_t z) {
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

struct ZigTables {
  double w[256];
  uint64_t kcut[256];

  // Draws are accepted with probability `accept` in every layer.
  explicit ZigTables(double accept) {
    for (size_t l = 0; l < 256; ++l) {
      w[l] = (3.7 - 0.0143 * static_cast<double>(l)) * 0x1.0p-53;
      kcut[l] = static_cast<uint64_t>(accept * 0x1.0p53);
    }
  }
};

size_t ZigReference(uint64_t key, uint64_t counter, const ZigTables& t,
                    double stddev, bool accumulate, float* out,
                    size_t max_n) {
  size_t i = 0;
  for (; i < max_n; ++i) {
    uint64_t bits = SplitMix64(key + counter + i);
    size_t layer = bits & 0xFF;
    uint64_t j = bits >> 11;
    if (j >= t.kcut[layer]) break;
    double sign = ((bits >> 8) & 1) != 0 ? -1.0 : 1.0;
    float g = static_cast<float>(
        stddev * (static_cast<double>(j) * t.w[layer] * sign));
    if (accumulate) {
      out[i] += g;
    } else {
      out[i] = g;
    }
  }
  return i;
}

// Runs every available zig_try_fill_f32 against the reference on a
// prefilled buffer of max_n + 8 floats: the count and every float, the
// ones past the committed prefix included, must match.
void ExpectZigMatches(uint64_t key, uint64_t counter, const ZigTables& t,
                      size_t max_n) {
  for (bool accumulate : {false, true}) {
    std::vector<float> want(max_n + 8, 0.75f);
    size_t want_n = ZigReference(key, counter, t, 1.3, accumulate,
                                 want.data(), max_n);
    for (IsaLevel level : kAllIsas) {
      const SimdKernels* k = simd::KernelsFor(level);
      if (k == nullptr || k->zig_try_fill_f32 == nullptr) continue;
      SCOPED_TRACE(std::string(simd::IsaName(level)) + ", max_n " +
                   std::to_string(max_n) +
                   (accumulate ? ", accumulate" : ", store"));
      std::vector<float> got(max_n + 8, 0.75f);
      size_t got_n = k->zig_try_fill_f32(key, counter, t.w, t.kcut, 1.3,
                                         accumulate, got.data(), max_n);
      ASSERT_EQ(want_n, got_n);
      ExpectBitEqual(want, got);
    }
  }
}

TEST(SimdZigguratTest, BatchKernelStopsAtMaxNAnywhere) {
  // Every draw accepted (j < 2^53 always): the commit ends at max_n,
  // inside or at the end of any of the four batches, across groups.
  const ZigTables all(1.0);
  for (size_t max_n : {size_t{0}, size_t{1}, size_t{5}, size_t{8},
                       size_t{13}, size_t{29}, size_t{32}, size_t{37},
                       size_t{63}, size_t{100}, size_t{1001}}) {
    ExpectZigMatches(0x1234, 77, all, max_n);
  }
  // The counter wraps like the scalar add.
  ExpectZigMatches(~uint64_t{0} - 20, 3, all, 45);
}

TEST(SimdZigguratTest, BatchKernelStopsAtTheFirstRejectionInAnyBatch) {
  // ~3% of draws rejected. For each offset — in each of the four
  // speculative batches of the first group, and in the second group —
  // find a counter whose first rejected draw sits exactly there.
  const ZigTables t(0.97);
  const uint64_t key = 0xC0FFEE;
  for (size_t offset : {size_t{0}, size_t{3}, size_t{13}, size_t{16},
                        size_t{22}, size_t{31}, size_t{40}}) {
    SCOPED_TRACE("first rejection at " + std::to_string(offset));
    std::vector<float> scratch(64);
    uint64_t counter = 0;
    while (ZigReference(key, counter, t, 1.0, false, scratch.data(), 64) !=
           offset) {
      ++counter;
    }
    ExpectZigMatches(key, counter, t, 64);
    ExpectZigMatches(key, counter, t, offset + 3);  // room past it
    ExpectZigMatches(key, counter, t, offset);      // max_n right at it
  }
}

}  // namespace
}  // namespace dpbr
