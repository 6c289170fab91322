// Statistical acceptance tests for the Gaussian sampling subsystem: the
// ziggurat bulk fill and the scalar Box-Muller stream must both be
// indistinguishable from N(0, σ²) under a one-sample KS test at ~1e6
// draws, with correct moments and tail mass. The full tier draws
// 1e6 samples per check; DPBR_TEST_TIER=quick shrinks to 2e5.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "common/rng.h"
#include "stats/distributions.h"
#include "stats/ks_test.h"
#include "stats/ks_test_reference.h"

namespace dpbr {
namespace {

size_t SampleCount() {
  const char* tier = std::getenv("DPBR_TEST_TIER");
  bool quick = tier != nullptr && std::strcmp(tier, "quick") == 0;
  return quick ? 200000 : 1000000;
}

std::vector<float> Draws(uint64_t seed, double stddev) {
  std::vector<float> buf(SampleCount());
  SplitRng rng(seed, {0xD1});
  rng.FillGaussian(buf.data(), buf.size(), stddev);
  return buf;
}

// The Box-Muller reference stream: out[i] = float(stddev * Gaussian()),
// drawn sequentially from `rng`.
std::vector<float> BoxMullerDraws(SplitRng* rng, size_t n, double stddev) {
  std::vector<float> buf(n);
  for (float& v : buf) v = static_cast<float>(stddev * rng->Gaussian());
  return buf;
}

// p-value floor for the KS tests. With fixed seeds these are regression
// tests, not repeated trials: a correct sampler at these seeds sits well
// above 0.01 (verified when the seeds were pinned), and a broken one
// collapses to ~0.
constexpr double kMinP = 0.01;

TEST(GaussianSamplerTest, ZigguratPassesKsAgainstNormalCdf) {
  std::vector<float> buf = Draws(101, 1.0);
  stats::KsResult r = stats::KsTestGaussian(buf.data(), buf.size(), 1.0);
  EXPECT_GT(r.p_value, kMinP) << "D=" << r.statistic;
}

TEST(GaussianSamplerTest, BoxMullerPassesKsAgainstNormalCdf) {
  SplitRng rng(103, {0xD1});
  std::vector<float> buf = BoxMullerDraws(&rng, SampleCount(), 1.0);
  stats::KsResult r = stats::KsTestGaussian(buf.data(), buf.size(), 1.0);
  EXPECT_GT(r.p_value, kMinP) << "D=" << r.statistic;
}

TEST(GaussianSamplerTest, ZigguratPassesKsAtUploadSigma) {
  // The first-stage filter KS-tests uploads against N(0, σ_up²); the DP
  // noise it sees is exactly this sampler at a small σ.
  std::vector<float> buf = Draws(107, 0.3);
  stats::KsResult r = stats::KsTestGaussian(buf.data(), buf.size(), 0.3);
  EXPECT_GT(r.p_value, kMinP) << "D=" << r.statistic;
}

TEST(GaussianSamplerTest, ScalarZigguratPassesKsViaGenericCdf) {
  // Scalar API against the generic double-precision KS path.
  size_t n = SampleCount() / 4;
  std::vector<double> sample(n);
  SplitRng rng(109, {0xD2});
  for (double& v : sample) v = rng.GaussianZiggurat();
  stats::KsResult r =
      stats::KsTest(sample, [](double x) { return stats::NormalCdf(x); });
  EXPECT_GT(r.p_value, kMinP) << "D=" << r.statistic;
}

TEST(GaussianSamplerTest, ZigguratMomentsAndTailMass) {
  std::vector<float> buf = Draws(113, 1.0);
  size_t n = buf.size();
  double sum = 0.0, sum2 = 0.0;
  size_t beyond3 = 0, beyond_r = 0;
  double max_abs = 0.0;
  // kR = 3.6541...: beyond it the ziggurat switches to the explicit tail
  // algorithm, so mass out there proves the tail path runs and is sized
  // correctly.
  const double r = 3.6541528853610088;
  for (float v : buf) {
    double d = v;
    sum += d;
    sum2 += d * d;
    double a = std::fabs(d);
    if (a > 3.0) ++beyond3;
    if (a > r) ++beyond_r;
    if (a > max_abs) max_abs = a;
  }
  double mean = sum / n;
  double var = sum2 / n - mean * mean;
  // Std of the sample mean is 1/√n; allow 5 of those.
  EXPECT_NEAR(mean, 0.0, 5.0 / std::sqrt(static_cast<double>(n)));
  EXPECT_NEAR(var, 1.0, 0.01);
  double p3 = 2.0 * stats::NormalCdf(-3.0);     // ≈ 2.70e-3
  double pr = 2.0 * stats::NormalCdf(-r);       // ≈ 2.58e-4
  EXPECT_NEAR(static_cast<double>(beyond3) / n, p3, 0.25 * p3);
  EXPECT_NEAR(static_cast<double>(beyond_r) / n, pr, 0.5 * pr);
  // The tail algorithm reaches past 4σ at these sample sizes
  // (P(|X|>4) ≈ 6.3e-5 → expect ≥12 such draws even in the quick tier).
  EXPECT_GT(max_abs, 4.0);
}

TEST(GaussianSamplerTest, FillGaussianScalesByStddev) {
  std::vector<float> buf = Draws(127, 3.0);
  double sum2 = 0.0;
  for (float v : buf) sum2 += static_cast<double>(v) * v;
  EXPECT_NEAR(std::sqrt(sum2 / buf.size()), 3.0, 0.05);

  // Same stream state, σ and 3σ: every added draw scales by exactly the
  // σ ratio (draws are computed in double, so the float results agree to
  // rounding).
  const double sigma = 0.7;
  SplitRng a(9), b(9);
  std::vector<float> va(5000, 0.0f), vb(5000, 0.0f);
  a.AddGaussian(va.data(), va.size(), sigma);
  b.AddGaussian(vb.data(), vb.size(), 3.0 * sigma);
  for (size_t i = 0; i < va.size(); ++i) {
    double scale =
        std::max(1e-6, std::abs(3.0 * static_cast<double>(va[i])));
    ASSERT_NEAR(vb[i], 3.0 * static_cast<double>(va[i]), 1e-6 * scale)
        << "index " << i;
  }

  // σ = 0 adds nothing.
  SplitRng c(6);
  std::vector<float> v = {1.0f, 2.0f, 3.0f};
  c.AddGaussian(v.data(), v.size(), 0.0);
  EXPECT_EQ(v, (std::vector<float>{1.0f, 2.0f, 3.0f}));
}

TEST(GaussianSamplerTest, SamplersShareDistributionNotStream) {
  // Same state, different samplers: statistically alike, bitwise
  // distinct.
  std::vector<float> zig(4096);
  SplitRng a(131, {1}), b(131, {1});
  a.FillGaussian(zig.data(), zig.size(), 1.0);
  std::vector<float> bm = BoxMullerDraws(&b, zig.size(), 1.0);
  size_t same = 0;
  for (size_t i = 0; i < zig.size(); ++i) {
    if (zig[i] == bm[i]) ++same;
  }
  EXPECT_EQ(same, 0u);
}

TEST(GaussianSamplerTest, FillIsReproducibleAndAdvancesState) {
  std::vector<float> first(10000), again(10000), second(10000);
  SplitRng a(137, {2}), b(137, {2});
  a.FillGaussian(first.data(), first.size(), 1.0);
  b.FillGaussian(again.data(), again.size(), 1.0);
  EXPECT_EQ(first, again);  // same state → same fill, bit for bit
  a.FillGaussian(second.data(), second.size(), 1.0);
  EXPECT_NE(first, second);  // the fill consumed state: next one differs
}

}  // namespace
}  // namespace dpbr
