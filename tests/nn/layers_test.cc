#include <gtest/gtest.h>

#include <cmath>

#include "nn/activations.h"
#include "nn/conv2d.h"
#include "nn/group_norm.h"
#include "nn/linear.h"
#include "nn/loss.h"
#include "nn/pooling.h"
#include "nn/sequential.h"

namespace dpbr {
namespace nn {
namespace {

TEST(LinearTest, ForwardHandComputed) {
  Linear l(2, 2);
  auto params = l.Params();
  // W = [[1, 2], [3, 4]], b = [10, 20].
  params[0].value[0] = 1;
  params[0].value[1] = 2;
  params[0].value[2] = 3;
  params[0].value[3] = 4;
  params[1].value[0] = 10;
  params[1].value[1] = 20;
  Tensor y = l.ForwardBatch(Tensor({1, 2}, {1, 1}));
  EXPECT_FLOAT_EQ(y[0], 13.0f);
  EXPECT_FLOAT_EQ(y[1], 27.0f);
}

TEST(LinearTest, BackwardAccumulatesIntoSinkRow) {
  Linear l(1, 1);
  auto params = l.Params();
  params[0].value[0] = 2.0f;
  // Two forward/backward passes accumulate into the same sink row: the
  // sink contract is accumulate-onto-pre-zeroed, never overwrite.
  float row[2] = {0.0f, 0.0f};  // dW, db
  l.ForwardBatch(Tensor({1, 1}, {3.0f}));
  l.BackwardBatch(Tensor({1, 1}, {1.0f}), {row, 0});  // dW += 1*3
  l.ForwardBatch(Tensor({1, 1}, {5.0f}));
  l.BackwardBatch(Tensor({1, 1}, {2.0f}), {row, 0});  // dW += 2*5
  EXPECT_FLOAT_EQ(row[0], 13.0f);
  EXPECT_FLOAT_EQ(row[1], 3.0f);  // db = 1 + 2
}

TEST(EluTest, ForwardValues) {
  Elu elu;
  Tensor y = elu.ForwardBatch(Tensor({1, 3}, {1.0f, 0.0f, -1.0f}));
  EXPECT_FLOAT_EQ(y[0], 1.0f);
  EXPECT_FLOAT_EQ(y[1], 0.0f);
  EXPECT_NEAR(y[2], std::exp(-1.0) - 1.0, 1e-6);
}

TEST(Conv2dTest, IdentityKernel) {
  // A single 1x1 kernel with weight 1 reproduces the input channel.
  Conv2d conv(1, 1, 1, 0);
  auto params = conv.Params();
  params[0].value[0] = 1.0f;
  Tensor x({1, 1, 2, 2}, {1, 2, 3, 4});
  Tensor y = conv.ForwardBatch(x);
  for (size_t i = 0; i < 4; ++i) EXPECT_FLOAT_EQ(y[i], x[i]);
}

TEST(Conv2dTest, OutputShapeNoPadding) {
  Conv2d conv(1, 3, 3, 0);
  Tensor y = conv.ForwardBatch(Tensor({1, 1, 8, 8}));
  EXPECT_EQ(y.shape(), (std::vector<size_t>{1, 3, 6, 6}));
}

TEST(Conv2dTest, OutputShapeSamePadding) {
  Conv2d conv(2, 4, 3, 1);
  Tensor y = conv.ForwardBatch(Tensor({1, 2, 8, 8}));
  EXPECT_EQ(y.shape(), (std::vector<size_t>{1, 4, 8, 8}));
}

TEST(Conv2dTest, SumKernelHandComputed) {
  // 2x2 all-ones kernel: each output is the sum of a 2x2 input patch.
  Conv2d conv(1, 1, 2, 0);
  auto params = conv.Params();
  for (size_t i = 0; i < 4; ++i) params[0].value[i] = 1.0f;
  Tensor y =
      conv.ForwardBatch(Tensor({1, 1, 3, 3}, {1, 2, 3, 4, 5, 6, 7, 8, 9}));
  EXPECT_EQ(y.shape(), (std::vector<size_t>{1, 1, 2, 2}));
  EXPECT_FLOAT_EQ(y[0], 12.0f);  // 1+2+4+5
  EXPECT_FLOAT_EQ(y[1], 16.0f);  // 2+3+5+6
  EXPECT_FLOAT_EQ(y[2], 24.0f);  // 4+5+7+8
  EXPECT_FLOAT_EQ(y[3], 28.0f);  // 5+6+8+9
}

TEST(GroupNormTest, NormalizesPerGroup) {
  GroupNorm gn(2, 4);
  SplitRng rng(3);
  Tensor x({1, 4, 3, 3});
  x.FillGaussian(&rng, 5.0);
  Tensor y = gn.ForwardBatch(x);
  // Each group (2 channels x 9 pixels = 18 values) has mean 0, var 1.
  for (size_t g = 0; g < 2; ++g) {
    double mean = 0.0, var = 0.0;
    for (size_t i = 0; i < 18; ++i) mean += y[g * 18 + i];
    mean /= 18.0;
    for (size_t i = 0; i < 18; ++i) {
      double d = y[g * 18 + i] - mean;
      var += d * d;
    }
    var /= 18.0;
    EXPECT_NEAR(mean, 0.0, 1e-5);
    EXPECT_NEAR(var, 1.0, 1e-3);
  }
}

TEST(GroupNormTest, HasNoParams) {
  GroupNorm gn(2, 4);
  EXPECT_TRUE(gn.Params().empty());
  EXPECT_EQ(gn.NumParams(), 0u);
}

TEST(AdaptiveAvgPoolTest, ExactDivision) {
  AdaptiveAvgPool2d pool(2, 2);
  Tensor x({1, 1, 4, 4});
  for (size_t i = 0; i < 16; ++i) x[i] = static_cast<float>(i);
  Tensor y = pool.ForwardBatch(x);
  // Top-left 2x2 block: (0+1+4+5)/4 = 2.5.
  EXPECT_FLOAT_EQ(y[0], 2.5f);
  EXPECT_FLOAT_EQ(y[1], 4.5f);
  EXPECT_FLOAT_EQ(y[2], 10.5f);
  EXPECT_FLOAT_EQ(y[3], 12.5f);
}

TEST(AdaptiveAvgPoolTest, UnevenRegions) {
  AdaptiveAvgPool2d pool(2, 2);
  Tensor x({1, 1, 5, 5});
  x.Fill(1.0f);
  Tensor y = pool.ForwardBatch(x);
  // Averages of all-ones are 1 regardless of region geometry.
  for (size_t i = 0; i < y.size(); ++i) EXPECT_FLOAT_EQ(y[i], 1.0f);
}

TEST(AdaptiveAvgPoolTest, GlobalPooling) {
  AdaptiveAvgPool2d pool(1, 1);
  Tensor x({1, 2, 2, 2}, {1, 2, 3, 4, 10, 20, 30, 40});
  Tensor y = pool.ForwardBatch(x);
  EXPECT_FLOAT_EQ(y[0], 2.5f);
  EXPECT_FLOAT_EQ(y[1], 25.0f);
}

TEST(FlattenTest, RoundTrip) {
  Flatten f;
  Tensor x({1, 2, 3, 4});
  Tensor y = f.ForwardBatch(x);
  EXPECT_EQ(y.shape(), (std::vector<size_t>{1, 24}));
  Tensor back = f.BackwardBatch(y, {});
  EXPECT_EQ(back.shape(), (std::vector<size_t>{1, 2, 3, 4}));
}

TEST(SoftmaxTest, Properties) {
  // The second logits are the first shifted by 100; label 0 on both, so
  // the softmax is grad + onehot(0).
  LossGrad a = SoftmaxCrossEntropy(Tensor({1, 3}, {1.0f, 2.0f, 3.0f}), 0);
  LossGrad b =
      SoftmaxCrossEntropy(Tensor({1, 3}, {101.0f, 102.0f, 103.0f}), 0);
  auto prob = [](const LossGrad& lg, size_t i) {
    return lg.grad_logits[i] + (i == 0 ? 1.0 : 0.0);
  };
  EXPECT_NEAR(prob(a, 0) + prob(a, 1) + prob(a, 2), 1.0, 1e-6);
  EXPECT_LT(prob(a, 0), prob(a, 1));
  EXPECT_LT(prob(a, 1), prob(a, 2));
  // Shift invariance.
  for (size_t i = 0; i < 3; ++i) EXPECT_NEAR(prob(a, i), prob(b, i), 1e-6);
  EXPECT_NEAR(a.loss, b.loss, 1e-9);
}

TEST(SoftmaxTest, ArgmaxAndLoss) {
  Tensor logits({1, 4}, {0.1f, 3.0f, -1.0f, 0.5f});
  EXPECT_EQ(Argmax(logits.data(), 4), 1u);
  LossGrad lg = SoftmaxCrossEntropy(logits, 1);
  EXPECT_GT(lg.loss, 0.0);
  // Gradient sums to zero (softmax minus one-hot).
  double s = 0.0;
  for (size_t i = 0; i < 4; ++i) s += lg.grad_logits[i];
  EXPECT_NEAR(s, 0.0, 1e-6);
  EXPECT_LT(lg.grad_logits[1], 0.0f);  // true-class grad is negative
}

TEST(SequentialTest, FlatParamRoundTrip) {
  Sequential m;
  m.Add(std::make_unique<Linear>(3, 2));
  m.Add(std::make_unique<Elu>());
  m.Add(std::make_unique<Linear>(2, 2));
  SplitRng rng(5);
  m.InitParams(&rng);
  std::vector<float> p = m.FlatParams();
  EXPECT_EQ(p.size(), m.NumParams());
  EXPECT_EQ(p.size(), 3u * 2 + 2 + 2 * 2 + 2);
  // Perturb then restore.
  std::vector<float> p2 = p;
  for (auto& v : p2) v += 1.0f;
  m.SetParamsFrom(p2.data());
  EXPECT_EQ(m.FlatParams(), p2);
  m.SetParamsFrom(p.data());
  EXPECT_EQ(m.FlatParams(), p);
}

TEST(SequentialTest, InitIsDeterministicPerLayer) {
  Sequential a, b;
  for (Sequential* m : {&a, &b}) {
    m->Add(std::make_unique<Linear>(4, 4));
    m->Add(std::make_unique<Linear>(4, 2));
  }
  SplitRng r1(9), r2(9);
  a.InitParams(&r1);
  b.InitParams(&r2);
  EXPECT_EQ(a.FlatParams(), b.FlatParams());
}

}  // namespace
}  // namespace nn
}  // namespace dpbr
