#include "dp/classic_gaussian_reference.h"

#include <gtest/gtest.h>

#include <cmath>

namespace dpbr {
namespace dp {
namespace {

TEST(ClassicSigmaTest, KnownFormula) {
  // σ = Δ√(2 ln(1.25/δ))/ε.
  auto s = ClassicGaussianSigma(2.0, 0.5, 1e-5);
  ASSERT_TRUE(s.ok());
  EXPECT_NEAR(s.value(), 2.0 * std::sqrt(2.0 * std::log(1.25e5)) / 0.5,
              1e-12);
}

TEST(ClassicSigmaTest, Validation) {
  EXPECT_FALSE(ClassicGaussianSigma(0.0, 0.5, 1e-5).ok());
  EXPECT_FALSE(ClassicGaussianSigma(1.0, 0.0, 1e-5).ok());
  EXPECT_FALSE(ClassicGaussianSigma(1.0, 1.5, 1e-5).ok());  // ε > 1
  EXPECT_FALSE(ClassicGaussianSigma(1.0, 0.5, 0.0).ok());
  EXPECT_FALSE(ClassicGaussianSigma(1.0, 0.5, 1.0).ok());
}

TEST(ClassicSigmaTest, LinearInSensitivity) {
  // σ = Δ√(2 ln(1.25/δ))/ε is linear in Δ: σ(cΔ) = c·σ(Δ) for any fixed
  // (ε, δ) — the property that lets clipping bounds rescale noise.
  double base = ClassicGaussianSigma(1.0, 0.5, 1e-5).value();
  for (double c : {0.25, 0.5, 2.0, 10.0, 1000.0}) {
    auto scaled = ClassicGaussianSigma(c, 0.5, 1e-5);
    ASSERT_TRUE(scaled.ok());
    EXPECT_NEAR(scaled.value(), c * base, 1e-9 * c * base);
  }
}

}  // namespace
}  // namespace dp
}  // namespace dpbr
