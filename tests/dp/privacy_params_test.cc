#include "dp/privacy_params.h"

#include <gtest/gtest.h>

#include <cmath>

namespace dpbr {
namespace dp {
namespace {

PrivacySpec BaseSpec() {
  PrivacySpec s;
  s.epsilon = 1.0;
  s.dataset_size = 1000;
  s.batch_size = 16;
  s.epochs = 8;
  return s;
}

TEST(PrivacyParamsTest, DerivesPaperDefaults) {
  auto p = CalibratePrivacy(BaseSpec());
  ASSERT_TRUE(p.ok());
  const PrivacyParams& pp = p.value();
  EXPECT_TRUE(pp.dp_enabled);
  EXPECT_DOUBLE_EQ(pp.sampling_rate, 16.0 / 1000.0);
  EXPECT_EQ(pp.steps, 500);  // ceil(8 * 1000 / 16)
  // δ = 1/|D|^1.1.
  EXPECT_NEAR(pp.delta, std::pow(1000.0, -1.1), 1e-12);
  // σ = 2·σ_mult (sensitivity of the normalized sum), σ_up = σ/bc.
  EXPECT_NEAR(pp.sigma, kNormalizedSumSensitivity * pp.noise_multiplier,
              1e-12);
  EXPECT_NEAR(pp.sigma_upload, pp.sigma / 16.0, 1e-12);
  EXPECT_GT(pp.noise_multiplier, 0.2);
}

TEST(PrivacyParamsTest, ExplicitDeltaWins) {
  PrivacySpec s = BaseSpec();
  s.delta = 1e-6;
  auto p = CalibratePrivacy(s);
  ASSERT_TRUE(p.ok());
  EXPECT_DOUBLE_EQ(p.value().delta, 1e-6);
}

TEST(PrivacyParamsTest, NonDpMode) {
  PrivacySpec s = BaseSpec();
  s.epsilon = -1.0;
  auto p = CalibratePrivacy(s);
  ASSERT_TRUE(p.ok());
  EXPECT_FALSE(p.value().dp_enabled);
  EXPECT_TRUE(std::isinf(p.value().epsilon));
  EXPECT_EQ(p.value().ToString(), "PrivacyParams{non-DP}");
}

TEST(PrivacyParamsTest, MorePrivateNeedsMoreNoise) {
  PrivacySpec lo = BaseSpec();
  lo.epsilon = 0.125;
  PrivacySpec hi = BaseSpec();
  hi.epsilon = 2.0;
  auto plo = CalibratePrivacy(lo);
  auto phi = CalibratePrivacy(hi);
  ASSERT_TRUE(plo.ok());
  ASSERT_TRUE(phi.ok());
  EXPECT_GT(plo.value().sigma, phi.value().sigma);
}

TEST(PrivacyParamsTest, Validation) {
  PrivacySpec s = BaseSpec();
  s.dataset_size = 0;
  EXPECT_FALSE(CalibratePrivacy(s).ok());

  s = BaseSpec();
  s.batch_size = 0;
  EXPECT_FALSE(CalibratePrivacy(s).ok());

  s = BaseSpec();
  s.batch_size = 2000;  // larger than dataset
  EXPECT_FALSE(CalibratePrivacy(s).ok());

  s = BaseSpec();
  s.epochs = 0;
  EXPECT_FALSE(CalibratePrivacy(s).ok());

  // NaN is rejected, never read as non-DP or cast into a round count.
  s = BaseSpec();
  s.client_sampling_rate = std::nan("");
  EXPECT_FALSE(CalibratePrivacy(s).ok());

  s = BaseSpec();
  s.epsilon = std::nan("");
  EXPECT_FALSE(CalibratePrivacy(s).ok());
}

TEST(PrivacyParamsTest, ToStringMentionsKeyFields) {
  auto p = CalibratePrivacy(BaseSpec());
  ASSERT_TRUE(p.ok());
  std::string s = p.value().ToString();
  EXPECT_NE(s.find("eps="), std::string::npos);
  EXPECT_NE(s.find("sigma="), std::string::npos);
  EXPECT_NE(s.find("T=500"), std::string::npos);
}

}  // namespace
}  // namespace dp
}  // namespace dpbr
