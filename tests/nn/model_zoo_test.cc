#include "nn/model_zoo.h"

#include <gtest/gtest.h>

#include "common/rng.h"

namespace dpbr {
namespace nn {
namespace {

TEST(ModelZooTest, PaperMlpParameterCountExact) {
  // Paper supp. A.1: Fashion/USPS network (784 → 32 → 10) has d = 25450.
  auto m = MakeMlp(784, 32, 10);
  EXPECT_EQ(m->NumParams(), 25450u);
}

TEST(ModelZooTest, PaperCnnParameterCountExact) {
  // Paper supp. A.1: MNIST CNN (16 channels, kernel 5) has d = 21802.
  auto m = MakeCnn(1, 16, 5, 10);
  EXPECT_EQ(m->NumParams(), 21802u);
}

TEST(ModelZooTest, MlpForwardShape) {
  auto m = MakeMlp(64, 32, 10);
  SplitRng rng(1);
  m->InitParams(&rng);
  Tensor x({1, 64});
  x.FillGaussian(&rng, 1.0);
  Tensor y = m->ForwardBatch(x);
  EXPECT_EQ(y.shape(), (std::vector<size_t>{1, 10}));
}

TEST(ModelZooTest, MlpAcceptsImageShapedInput) {
  // The leading Flatten makes MLPs shape-agnostic (synth_colorectal is
  // image-shaped but trained with the default MLP).
  auto m = MakeMlp(64, 32, 8);
  SplitRng rng(2);
  m->InitParams(&rng);
  Tensor x({1, 1, 8, 8});
  x.FillGaussian(&rng, 1.0);
  EXPECT_EQ(m->ForwardBatch(x).size(), 8u);
}

TEST(ModelZooTest, CnnForwardOnSmallImage) {
  auto m = MakeCnn(1, 8, 3, 10);
  SplitRng rng(3);
  m->InitParams(&rng);
  Tensor x({1, 1, 8, 8});
  x.FillGaussian(&rng, 1.0);
  Tensor y = m->ForwardBatch(x);
  EXPECT_EQ(y.shape(), (std::vector<size_t>{1, 10}));
}

TEST(ModelZooTest, ResidualCnnForward) {
  auto m = MakeResidualCnn(1, 8, 3, 8);
  SplitRng rng(4);
  m->InitParams(&rng);
  Tensor x({1, 1, 8, 8});
  x.FillGaussian(&rng, 1.0);
  EXPECT_EQ(m->ForwardBatch(x).size(), 8u);
  // The residual wrapper reuses the middle conv stage's parameters: the
  // count equals the plain CNN's (the skip connection is parameter-free).
  EXPECT_EQ(m->NumParams(), MakeCnn(1, 8, 3, 8)->NumParams());
}

TEST(ModelZooTest, FactoriesProduceIdenticalTopology) {
  ModelFactory f = MlpFactory(64, 32, 10);
  auto a = f();
  auto b = f();
  EXPECT_EQ(a->NumParams(), b->NumParams());
  // Distinct instances (no shared parameter storage).
  SplitRng rng(5);
  a->InitParams(&rng);
  std::vector<float> pa = a->FlatParams();
  std::vector<float> pb = b->FlatParams();
  EXPECT_NE(pa, pb);  // b is still zero-initialized
}

TEST(ModelZooTest, CnnFactoryRuns) {
  ModelFactory f = CnnFactory(1, 8, 3, 10);
  EXPECT_GT(f()->NumParams(), 0u);
  ModelFactory g = ResidualCnnFactory(1, 8, 3, 10);
  EXPECT_GT(g()->NumParams(), 0u);
}

}  // namespace
}  // namespace nn
}  // namespace dpbr
