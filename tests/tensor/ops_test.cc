#include "tensor/ops.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

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

}  // namespace
}  // namespace ops
}  // namespace dpbr
