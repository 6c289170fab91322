#include "stats/distributions.h"

#include <gtest/gtest.h>

namespace dpbr {
namespace stats {
namespace {

TEST(NormalCdfTest, KnownValues) {
  EXPECT_NEAR(NormalCdf(0.0), 0.5, 1e-12);
  EXPECT_NEAR(NormalCdf(1.0), 0.8413447460685429, 1e-10);
  EXPECT_NEAR(NormalCdf(-1.0), 0.15865525393145707, 1e-10);
  EXPECT_NEAR(NormalCdf(1.959963984540054), 0.975, 1e-9);
  EXPECT_NEAR(NormalCdf(3.0), 0.9986501019683699, 1e-10);
}

class QuantileRoundTripTest : public ::testing::TestWithParam<double> {};

TEST_P(QuantileRoundTripTest, CdfOfQuantileIsIdentity) {
  double p = GetParam();
  EXPECT_NEAR(NormalCdf(NormalQuantile(p)), p, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Probabilities, QuantileRoundTripTest,
                         ::testing::Values(1e-8, 1e-4, 0.01, 0.025, 0.05, 0.5,
                                           0.9, 0.975, 0.999, 1.0 - 1e-6));

TEST(NormalQuantileTest, KnownValues) {
  EXPECT_NEAR(NormalQuantile(0.5), 0.0, 1e-9);
  EXPECT_NEAR(NormalQuantile(0.975), 1.959963984540054, 1e-8);
  EXPECT_NEAR(NormalQuantile(0.05), -1.6448536269514722, 1e-8);
}

}  // namespace
}  // namespace stats
}  // namespace dpbr
