#include "dp/rdp_accountant.h"

#include <gtest/gtest.h>

#include <cmath>

#include "dp/classic_gaussian_reference.h"

namespace dpbr {
namespace dp {
namespace {

TEST(RdpTest, NoSubsamplingEqualsPureGaussian) {
  // q = 1: RDP(α) = α/(2σ²) exactly.
  for (double sigma : {0.5, 1.0, 4.0}) {
    for (double alpha : {2.0, 8.0, 64.0}) {
      EXPECT_NEAR(RdpSampledGaussian(1.0, sigma, alpha),
                  alpha / (2.0 * sigma * sigma), 1e-12);
    }
  }
}

TEST(RdpTest, ZeroSamplingRateIsFree) {
  EXPECT_DOUBLE_EQ(RdpSampledGaussian(0.0, 1.0, 8.0), 0.0);
}

TEST(RdpTest, SubsamplingAmplifiesPrivacy) {
  // RDP at q < 1 must be strictly below the unsubsampled value.
  double full = RdpSampledGaussian(1.0, 2.0, 8.0);
  double sub = RdpSampledGaussian(0.01, 2.0, 8.0);
  EXPECT_LT(sub, full);
  // Leading-order behaviour: rdp ≈ q²·α/σ² for small q (within 3x).
  double approx = 0.01 * 0.01 * 8.0 / (2.0 * 2.0);
  EXPECT_LT(sub, 3.0 * approx);
  EXPECT_GT(sub, approx / 3.0);
}

TEST(RdpTest, MonotoneInQ) {
  double prev = 0.0;
  for (double q : {0.001, 0.01, 0.05, 0.2, 0.5}) {
    double r = RdpSampledGaussian(q, 1.5, 16.0);
    EXPECT_GT(r, prev);
    prev = r;
  }
}

TEST(RdpTest, MonotoneDecreasingInSigma) {
  double prev = 1e300;
  for (double s : {0.5, 1.0, 2.0, 4.0, 8.0}) {
    double r = RdpSampledGaussian(0.05, s, 16.0);
    EXPECT_LT(r, prev);
    prev = r;
  }
}

TEST(RdpTest, IntegerAndFractionalPathsAgree) {
  // The fractional-order series evaluated just off an integer must be
  // continuous with the closed-form integer evaluation.
  for (double alpha : {2.0, 4.0, 16.0}) {
    double exact = RdpSampledGaussian(0.02, 1.2, alpha);
    double nearby = RdpSampledGaussian(0.02, 1.2, alpha + 1e-4);
    EXPECT_NEAR(exact, nearby, std::abs(exact) * 1e-2 + 1e-9)
        << "alpha=" << alpha;
  }
}

TEST(RdpTest, ComposeScalesLinearly) {
  std::vector<double> rdp = {0.1, 0.2};
  std::vector<double> out = ComposeRdp(rdp, 50);
  EXPECT_DOUBLE_EQ(out[0], 5.0);
  EXPECT_DOUBLE_EQ(out[1], 10.0);
}

TEST(RdpToEpsilonTest, ValidatesInput) {
  EXPECT_FALSE(RdpToEpsilon({}, {}, 1e-5).ok());
  EXPECT_FALSE(RdpToEpsilon({2.0}, {0.1}, 0.0).ok());
  EXPECT_FALSE(RdpToEpsilon({2.0}, {0.1}, 1.0).ok());
  EXPECT_FALSE(RdpToEpsilon({2.0, 3.0}, {0.1}, 1e-5).ok());
  EXPECT_FALSE(RdpToEpsilon({2.0}, {0.1}, std::nan("")).ok());
}

TEST(RdpToEpsilonTest, TighterThanClassicalGaussianBound) {
  // Classical calibration: σ = Δ√(2 ln(1.25/δ))/ε guarantees (ε, δ)-DP.
  // The RDP accounting of the same mechanism must certify an epsilon no
  // worse than ~ε (it is typically tighter).
  double eps = 0.5, delta = 1e-5;
  auto sigma = ClassicGaussianSigma(1.0, eps, delta);
  ASSERT_TRUE(sigma.ok());
  auto rdp_eps = ComputeEpsilon(1.0, sigma.value(), 1, delta);
  ASSERT_TRUE(rdp_eps.ok());
  EXPECT_LE(rdp_eps.value(), eps * 1.05);
  EXPECT_GT(rdp_eps.value(), 0.0);
}

TEST(ComputeEpsilonTest, MonotoneInSteps) {
  double prev = 0.0;
  for (int t : {1, 10, 100, 1000}) {
    auto e = ComputeEpsilon(0.01, 1.1, t, 1e-5);
    ASSERT_TRUE(e.ok());
    EXPECT_GT(e.value(), prev);
    prev = e.value();
  }
}

TEST(ComputeEpsilonTest, ValidatesInput) {
  EXPECT_FALSE(ComputeEpsilon(-0.1, 1.0, 10, 1e-5).ok());
  EXPECT_FALSE(ComputeEpsilon(1.1, 1.0, 10, 1e-5).ok());
  EXPECT_FALSE(ComputeEpsilon(0.1, 0.0, 10, 1e-5).ok());
  EXPECT_FALSE(ComputeEpsilon(0.1, 1.0, -1, 1e-5).ok());
  // NaN fails every range check instead of reaching the RDP curve, whose
  // own check aborts the process on a NaN rate or noise multiplier.
  EXPECT_FALSE(ComputeEpsilon(std::nan(""), 1.0, 10, 1e-5).ok());
  EXPECT_FALSE(ComputeEpsilon(0.1, std::nan(""), 10, 1e-5).ok());
  EXPECT_FALSE(ComputeEpsilon(0.1, 1.0, 10, std::nan("")).ok());
}

struct CalibrationCase {
  double q;
  int steps;
  double eps;
  double delta;
};

class NoiseSearchTest : public ::testing::TestWithParam<CalibrationCase> {};

TEST_P(NoiseSearchTest, RoundTripsThroughComputeEpsilon) {
  CalibrationCase c = GetParam();
  auto sigma = NoiseMultiplierFor(c.q, c.steps, c.eps, c.delta);
  ASSERT_TRUE(sigma.ok());
  auto eps = ComputeEpsilon(c.q, sigma.value(), c.steps, c.delta);
  ASSERT_TRUE(eps.ok());
  // The bisection returns the smallest σ achieving <= ε; the realized
  // epsilon must sit at (or just under) the target.
  EXPECT_LE(eps.value(), c.eps + 1e-6);
  EXPECT_GT(eps.value(), 0.80 * c.eps);
}

INSTANTIATE_TEST_SUITE_P(
    PaperRegimes, NoiseSearchTest,
    ::testing::Values(
        // The paper's privacy sweep on an MNIST-scale worker
        // (|D|=3000, bc=16, 8 epochs → q=16/3000, T=1500).
        CalibrationCase{16.0 / 3000, 1500, 0.125, 1.4e-4},
        CalibrationCase{16.0 / 3000, 1500, 2.0, 1.4e-4},
        // This reproduction's scale (|D|=1000, T=500).
        CalibrationCase{0.016, 500, 0.5, 1e-3},
        // A single-release regime.
        CalibrationCase{1.0, 1, 1.0, 1e-5}));

TEST(NoiseSearchTest, LargerEpsilonNeedsLessNoise) {
  auto s1 = NoiseMultiplierFor(0.01, 500, 0.5, 1e-5);
  auto s2 = NoiseMultiplierFor(0.01, 500, 2.0, 1e-5);
  ASSERT_TRUE(s1.ok());
  ASSERT_TRUE(s2.ok());
  EXPECT_GT(s1.value(), s2.value());
}

TEST(NoiseSearchTest, RejectsNonPositiveEpsilon) {
  EXPECT_FALSE(NoiseMultiplierFor(0.01, 10, 0.0, 1e-5).ok());
  EXPECT_FALSE(NoiseMultiplierFor(0.01, 10, -1.0, 1e-5).ok());
  // A NaN target compares false against every ε(σ), so the bisection
  // would "solve" it at the bracket's low end, σ = 0.2.
  EXPECT_FALSE(NoiseMultiplierFor(0.01, 10, std::nan(""), 1e-5).ok());
}

TEST(DefaultOrdersTest, CoverWideRange) {
  std::vector<double> orders = DefaultRdpOrders();
  EXPECT_GE(orders.size(), 20u);
  EXPECT_LT(orders.front(), 2.0);
  EXPECT_GE(orders.back(), 512.0);
  for (double o : orders) EXPECT_GT(o, 1.0);
}

}  // namespace
}  // namespace dp
}  // namespace dpbr
