#include "tensor/ops.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "common/rng.h"

namespace dpbr {
namespace ops {
namespace {

TEST(OpsTest, AxpyAndScale) {
  std::vector<float> x = {1, 2, 3};
  std::vector<float> y = {10, 20, 30};
  Axpy(2.0f, x.data(), y.data(), 3);
  EXPECT_EQ(y, (std::vector<float>{12, 24, 36}));
  Scale(0.5f, y.data(), 3);
  EXPECT_EQ(y, (std::vector<float>{6, 12, 18}));
}

TEST(OpsTest, DotAndNorm) {
  std::vector<float> x = {3, 4};
  EXPECT_DOUBLE_EQ(Dot(x.data(), x.data(), 2), 25.0);
  EXPECT_DOUBLE_EQ(SquaredNorm(x.data(), 2), 25.0);
  EXPECT_DOUBLE_EQ(Norm(x.data(), 2), 5.0);
}

TEST(OpsTest, NormalizeInPlace) {
  std::vector<float> x = {3, 4};
  double original = NormalizeInPlace(x.data(), 2);
  EXPECT_DOUBLE_EQ(original, 5.0);
  EXPECT_NEAR(x[0], 0.6f, 1e-6);
  EXPECT_NEAR(x[1], 0.8f, 1e-6);
  EXPECT_NEAR(Norm(x.data(), 2), 1.0, 1e-6);
}

TEST(OpsTest, NormalizeZeroVectorIsSafe) {
  std::vector<float> z = {0, 0, 0};
  double n = NormalizeInPlace(z.data(), 3);
  EXPECT_DOUBLE_EQ(n, 0.0);
  for (float v : z) EXPECT_EQ(v, 0.0f);  // 0/eps stays 0, no NaN
}

TEST(OpsTest, GerRankOneUpdate) {
  std::vector<float> a(6, 0.0f);  // 2x3
  std::vector<float> u = {1, 2};
  std::vector<float> v = {3, 4, 5};
  Ger(2.0f, u.data(), v.data(), a.data(), 2, 3);
  EXPECT_EQ(a, (std::vector<float>{6, 8, 10, 12, 16, 20}));
}

TEST(OpsTest, VectorHelpers) {
  std::vector<float> x = {1, 2};
  std::vector<float> y = {3, 5};
  EXPECT_EQ(Scaled(x, 3.0f), (std::vector<float>{3, 6}));
  EXPECT_DOUBLE_EQ(Dot(x, y), 13.0);
  EXPECT_DOUBLE_EQ(Norm(y), std::sqrt(34.0));
}

// The worker's clamped inverse norm as defined: the sequential sum.
float SequentialInverseNorm(const std::vector<float>& x) {
  return static_cast<float>(1.0 / std::max(Norm(x.data(), x.size()), 1e-12));
}

// What the chained sum alone would give.
float ChainedOnlyInverseNorm(const std::vector<float>& x) {
  double sq = ChainedSquaredNorm(x.data(), x.size());
  return static_cast<float>(1.0 / std::max(std::sqrt(sq), 1e-12));
}

bool SameBits(float a, float b) {
  return std::memcmp(&a, &b, sizeof(float)) == 0;
}

double InvNormOf(const std::vector<float>& x) {
  return 1.0 / std::sqrt(SquaredNorm(x.data(), x.size()));
}

// A row of d coordinates whose 1/‖x‖ (from the sequential sum) lies
// within 16 ulps of the midpoint between two adjacent floats, where the
// float rounding of a slightly different sum can go either way: d − 2
// Gaussian coordinates, then a coarse coordinate that brings 1/‖x‖ just
// above the midpoint and a fine one bisected onto it. `step` moves the
// fine coordinate that many floats off the bisected one.
std::vector<float> MidpointRow(size_t d, uint64_t seed, int step) {
  std::vector<float> x(d, 0.0f);
  SplitRng rng(seed, {d});
  rng.FillGaussian(x.data(), d - 2, 1.0);
  double r0 = InvNormOf(x);
  float a = std::nextafter(std::nextafter(static_cast<float>(r0), 0.0f),
                           0.0f);
  double mid = (static_cast<double>(a) +
                static_cast<double>(std::nextafter(a, 0.0f))) /
               2.0;
  double target = 1.0 / (mid * mid);
  double s0 = SquaredNorm(x.data(), d);
  x[d - 2] = std::nextafter(static_cast<float>(std::sqrt(target - s0)), 0.0f);
  // Largest fine coordinate (as float bits, monotone for non-negative
  // floats) that keeps 1/‖x‖ >= mid.
  uint32_t lo = 0;
  uint32_t hi;
  std::memcpy(&hi, &x[d - 2], 4);
  while (hi - lo > 1) {
    uint32_t m = lo + (hi - lo) / 2;
    std::memcpy(&x[d - 1], &m, 4);
    if (InvNormOf(x) >= mid) {
      lo = m;
    } else {
      hi = m;
    }
  }
  uint32_t bits = lo + static_cast<uint32_t>(step);
  std::memcpy(&x[d - 1], &bits, 4);
  return x;
}

// Float ulps of 1/‖x‖ from the float midpoint nearest it, in doubles.
double UlpsFromMidpoint(const std::vector<float>& x) {
  double r = InvNormOf(x);
  float f = static_cast<float>(r);
  float g = r > f ? std::nextafter(f, 1.0f) : std::nextafter(f, 0.0f);
  double mid = (static_cast<double>(f) + static_cast<double>(g)) / 2.0;
  double ulp = std::nextafter(mid, 2.0 * mid) - mid;
  return std::abs(r - mid) / ulp;
}

constexpr size_t kPaperDims[] = {2410, 21802, 25450};

TEST(InverseNormTest, EqualsTheSequentialNormNextToFloatMidpoints) {
  size_t chained_only_differs = 0;
  size_t rows = 0;
  for (size_t d : kPaperDims) {
    for (uint64_t seed = 1; seed <= 16; ++seed) {
      for (int step = -2; step <= 2; ++step) {
        std::vector<float> x = MidpointRow(d, seed, step);
        ASSERT_LE(UlpsFromMidpoint(x), 16.0) << "d=" << d << " seed=" << seed;
        float want = SequentialInverseNorm(x);
        EXPECT_TRUE(SameBits(InverseNorm(x.data(), d), want))
            << "d=" << d << " seed=" << seed << " step=" << step;
        chained_only_differs += !SameBits(ChainedOnlyInverseNorm(x), want);
        ++rows;
      }
    }
  }
  // The rows are close enough to a midpoint that the chained sum alone
  // rounds the other way on some of them: the bracket is what keeps
  // InverseNorm exact there.
  EXPECT_GT(chained_only_differs, 0u) << "of " << rows << " rows";
}

TEST(InverseNormTest, EqualsTheSequentialNormOnEdgeRows) {
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  for (size_t d : kPaperDims) {
    std::vector<std::vector<float>> rows;
    rows.emplace_back(d, 0.0f);
    // At the 1e-12 clamp: norms just below, at and above it, and the
    // last coordinate bisected to where the norm crosses it.
    for (double norm : {0.5e-12, 1e-12, 2e-12, 1e-9, 1e-6}) {
      rows.emplace_back(d, static_cast<float>(norm / std::sqrt(d)));
    }
    {
      std::vector<float> x(d, static_cast<float>(0.9e-12 / std::sqrt(d)));
      x[d - 1] = 0.0f;
      uint32_t lo = 0;
      uint32_t hi;
      float big = 1e-12f;
      std::memcpy(&hi, &big, 4);
      while (hi - lo > 1) {
        uint32_t m = lo + (hi - lo) / 2;
        std::memcpy(&x[d - 1], &m, 4);
        if (Norm(x.data(), d) < 1e-12) {
          lo = m;
        } else {
          hi = m;
        }
      }
      for (uint32_t bits : {lo - 1, lo, hi, hi + 1}) {
        std::memcpy(&x[d - 1], &bits, 4);
        rows.push_back(x);
      }
    }
    // Denormals, alone and next to normal values.
    rows.emplace_back(d, 1e-41f);
    rows.emplace_back(d, std::numeric_limits<float>::denorm_min());
    rows.back()[0] = 1.0f;
    // Squares that overflow a float but not a double.
    rows.emplace_back(d, 1e20f);
    rows.emplace_back(d, FLT_MAX);
    {
      std::vector<float> x(d);
      SplitRng rng(7, {d});
      rng.FillGaussian(x.data(), d, 1e30);
      rows.push_back(x);
    }
    // Non-finite coordinates.
    for (float bad : {inf, -inf, nan}) {
      std::vector<float> x(d, 0.25f);
      x[d / 2] = bad;
      rows.push_back(x);
    }
    {
      std::vector<float> x(d, 0.25f);
      x[0] = inf;
      x[d - 1] = nan;
      rows.push_back(x);
    }
    for (size_t r = 0; r < rows.size(); ++r) {
      EXPECT_TRUE(SameBits(InverseNorm(rows[r].data(), d),
                           SequentialInverseNorm(rows[r])))
          << "d=" << d << " row " << r;
    }
  }
}

TEST(InverseNormTest, EqualsTheSequentialNormOnRandomRows) {
  for (size_t d : {size_t{1}, size_t{7}, size_t{9}, size_t{2410}}) {
    for (uint64_t seed = 0; seed < 50; ++seed) {
      std::vector<float> x(d);
      SplitRng rng(seed, {d, 3});
      rng.FillGaussian(x.data(), d, 0.01 * static_cast<double>(seed + 1));
      EXPECT_TRUE(SameBits(InverseNorm(x.data(), d), SequentialInverseNorm(x)))
          << "d=" << d << " seed=" << seed;
    }
  }
}

}  // namespace
}  // namespace ops
}  // namespace dpbr
