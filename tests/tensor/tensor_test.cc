#include "tensor/tensor.h"

#include <gtest/gtest.h>

#include <cmath>

namespace dpbr {
namespace {

TEST(TensorTest, ZeroInitialized) {
  Tensor t({2, 3});
  EXPECT_EQ(t.size(), 6u);
  EXPECT_EQ(t.ndim(), 2u);
  EXPECT_EQ(t.dim(0), 2u);
  EXPECT_EQ(t.dim(1), 3u);
  for (size_t i = 0; i < t.size(); ++i) EXPECT_EQ(t[i], 0.0f);
}

TEST(TensorTest, FromValues) {
  Tensor t({2, 2}, {1, 2, 3, 4});
  EXPECT_EQ(t.at(0, 0), 1.0f);
  EXPECT_EQ(t.at(0, 1), 2.0f);
  EXPECT_EQ(t.at(1, 0), 3.0f);
  EXPECT_EQ(t.at(1, 1), 4.0f);
}

TEST(TensorTest, ThreeDimIndexing) {
  Tensor t({2, 2, 2}, {0, 1, 2, 3, 4, 5, 6, 7});
  EXPECT_EQ(t.at(0, 0, 0), 0.0f);
  EXPECT_EQ(t.at(0, 1, 1), 3.0f);
  EXPECT_EQ(t.at(1, 0, 1), 5.0f);
  EXPECT_EQ(t.at(1, 1, 1), 7.0f);
  t.at(1, 1, 0) = 42.0f;
  EXPECT_EQ(t[6], 42.0f);
}

TEST(TensorTest, CreateValidates) {
  auto bad = Tensor::Create({2, 3}, {1, 2, 3});
  EXPECT_FALSE(bad.ok());
  auto good = Tensor::Create({3}, {1, 2, 3});
  EXPECT_TRUE(good.ok());
}

TEST(TensorTest, ReshapePreservesData) {
  Tensor t({2, 3}, {1, 2, 3, 4, 5, 6});
  auto r = t.Reshape({3, 2});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().at(2, 1), 6.0f);
  auto bad = t.Reshape({4});
  EXPECT_FALSE(bad.ok());
}

TEST(TensorTest, FillAndZero) {
  Tensor t({4});
  t.Fill(2.5f);
  for (size_t i = 0; i < 4; ++i) EXPECT_EQ(t[i], 2.5f);
  t.Zero();
  for (size_t i = 0; i < 4; ++i) EXPECT_EQ(t[i], 0.0f);
}

TEST(TensorTest, RandomFills) {
  SplitRng rng(1);
  Tensor g({10000});
  g.FillGaussian(&rng, 2.0);
  double s2 = 0.0;
  for (size_t i = 0; i < g.size(); ++i) s2 += static_cast<double>(g[i]) * g[i];
  EXPECT_NEAR(std::sqrt(s2 / g.size()), 2.0, 0.1);
}

TEST(TensorTest, SameShape) {
  EXPECT_TRUE(Tensor({2, 3}).SameShape(Tensor({2, 3})));
  EXPECT_FALSE(Tensor({2, 3}).SameShape(Tensor({3, 2})));
  EXPECT_FALSE(Tensor({6}).SameShape(Tensor({2, 3})));
}

}  // namespace
}  // namespace dpbr
