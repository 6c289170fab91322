// The learning-rate transfer rule eta = eta_b * sigma_b / sigma
// (dp::TransferLearningRate), anchored at dp::CalibratePrivacy's sigma.
#include "dp/privacy_params.h"

#include <gtest/gtest.h>

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

TEST(LrTransferTest, ScalesInverselyWithSigma) {
  EXPECT_DOUBLE_EQ(TransferLearningRate(0.2, 1.0, 1.0).value(), 0.2);
  EXPECT_DOUBLE_EQ(TransferLearningRate(0.2, 1.0, 2.0).value(), 0.1);
  EXPECT_DOUBLE_EQ(TransferLearningRate(0.2, 1.0, 0.5).value(), 0.4);
}

TEST(LrTransferTest, Validation) {
  EXPECT_FALSE(TransferLearningRate(0.0, 1.0, 1.0).ok());
  EXPECT_FALSE(TransferLearningRate(-0.2, 1.0, 1.0).ok());
  EXPECT_FALSE(TransferLearningRate(0.2, -1.0, 1.0).ok());
}

TEST(LrTransferTest, AnchorsAtTheBaseCalibration) {
  PrivacySpec spec = BaseSpec();
  spec.epsilon = 2.0;
  auto base = CalibratePrivacy(spec);
  ASSERT_TRUE(base.ok());
  const double sigma_b = base.value().sigma;
  // At the anchor's own σ, the rule returns the base rate.
  EXPECT_NEAR(TransferLearningRate(0.2, sigma_b, sigma_b).value(), 0.2,
              1e-12);

  // Stricter privacy (larger σ) → smaller learning rate; η·σ invariant —
  // exactly the "tune once per ε" saving of CLAIM 6.
  spec.epsilon = 0.125;
  auto strict = CalibratePrivacy(spec);
  ASSERT_TRUE(strict.ok());
  double lr_strict =
      TransferLearningRate(0.2, sigma_b, strict.value().sigma).value();
  EXPECT_LT(lr_strict, 0.2);
  EXPECT_NEAR(lr_strict * strict.value().sigma, 0.2 * sigma_b, 1e-9);
}

TEST(LrTransferTest, NonDpLevelUsesBaseLr) {
  PrivacySpec spec = BaseSpec();
  spec.epsilon = -1.0;
  auto non_dp = CalibratePrivacy(spec);
  ASSERT_TRUE(non_dp.ok());
  ASSERT_FALSE(non_dp.value().dp_enabled);
  EXPECT_DOUBLE_EQ(TransferLearningRate(0.3, 2.0, non_dp.value().sigma)
                       .value(),
                   0.3);
  EXPECT_DOUBLE_EQ(TransferLearningRate(0.3, 2.0, 0.0).value(), 0.3);
}

TEST(LrTransferTest, RejectsANoiselessAnchor) {
  // A non-positive base ε calibrates no noise, so it anchors no rate.
  PrivacySpec spec = BaseSpec();
  spec.epsilon = -1.0;
  auto base = CalibratePrivacy(spec);
  ASSERT_TRUE(base.ok());
  EXPECT_FALSE(TransferLearningRate(0.2, base.value().sigma, 1.0).ok());
}

}  // namespace
}  // namespace dp
}  // namespace dpbr
