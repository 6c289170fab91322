#include "fl/server.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>

#include "aggregators/fltrust.h"
#include "aggregators/mean.h"
#include "common/rng.h"
#include "common/simd.h"
#include "data/synthetic.h"
#include "nn/loss.h"
#include "nn/model_zoo.h"
#include "tensor/ops.h"

namespace dpbr {
namespace fl {
namespace {

data::DatasetBundle SmallBundle() {
  data::SyntheticSpec spec;
  spec.num_classes = 4;
  spec.feature_dim = 16;
  spec.train_size = 100;
  spec.val_size = 40;
  spec.test_size = 100;
  spec.class_separation = 3.0;
  spec.noise_std = 0.5;
  auto b = data::GenerateSynthetic(spec, 6);
  EXPECT_TRUE(b.ok());
  return std::move(b).value();
}

TEST(ServerTest, InitializesParams) {
  data::DatasetBundle bundle = SmallBundle();
  Server s(nn::MlpFactory(16, 8, 4), std::make_unique<agg::MeanAggregator>(),
           data::DatasetView(), 1);
  EXPECT_EQ(s.dim(), nn::MakeMlp(16, 8, 4)->NumParams());
  EXPECT_GT(ops::Norm(s.params()), 0.0);  // He init, not zeros
}

TEST(ServerTest, StepAppliesScaledUpdate) {
  Server s(nn::MlpFactory(16, 8, 4), std::make_unique<agg::MeanAggregator>(),
           data::DatasetView(), 1);
  std::vector<float> before = s.params();
  std::vector<float> direction(s.dim(), 1.0f);
  agg::AggregationContext ctx;
  ASSERT_TRUE(s.Step({direction, direction}, 0.5, ctx).ok());
  for (size_t i = 0; i < s.dim(); ++i) {
    EXPECT_FLOAT_EQ(s.params()[i], before[i] - 0.5f);
  }
}

TEST(ServerTest, ServerGradientMatchesManualComputation) {
  data::DatasetBundle bundle = SmallBundle();
  data::DatasetView aux(&bundle.val, {0, 1, 2});
  nn::ModelFactory f = nn::MlpFactory(16, 8, 4);
  Server s(f, std::make_unique<agg::FlTrustAggregator>(), aux, 2);

  auto grad = s.ComputeServerGradient();
  ASSERT_TRUE(grad.ok());

  // Manual: mean per-example gradient at the server params, one
  // batch-of-1 pass per example.
  auto model = f();
  model->SetParamsFrom(s.params().data());
  std::vector<float> acc(s.dim(), 0.0f);
  std::vector<float> g(s.dim());
  for (size_t i = 0; i < aux.size(); ++i) {
    const float* feat = aux.FeaturesAt(i);
    Tensor x({1, 16}, std::vector<float>(feat, feat + 16));
    nn::BatchLossGrad lg = nn::SoftmaxCrossEntropyBatch(
        model->ForwardBatch(x), {static_cast<size_t>(aux.LabelAt(i))});
    model->BackwardBatchTo(lg.grad_logits, 1, g.data());
    ops::Axpy(1.0f, g.data(), acc.data(), acc.size());
  }
  ops::Scale(1.0f / 3.0f, acc.data(), acc.size());
  ASSERT_EQ(grad.value().size(), acc.size());
  for (size_t i = 0; i < acc.size(); ++i) {
    EXPECT_NEAR(grad.value()[i], acc[i], 1e-5);
  }
}

TEST(ServerTest, MissingAuxDataIsAnError) {
  Server s(nn::MlpFactory(16, 8, 4),
           std::make_unique<agg::FlTrustAggregator>(), data::DatasetView(),
           3);
  auto grad = s.ComputeServerGradient();
  EXPECT_FALSE(grad.ok());
  EXPECT_EQ(grad.status().code(), StatusCode::kFailedPrecondition);
}

TEST(ServerTest, NonFiniteUploadIsNeutralizedNotFatal) {
  // A Byzantine NaN/Inf upload must not abort the round; the server
  // zeroes it (as the first-stage filter would) before aggregating.
  Server s(nn::MlpFactory(16, 8, 4), std::make_unique<agg::MeanAggregator>(),
           data::DatasetView(), 1);
  std::vector<float> before = s.params();
  std::vector<float> direction(s.dim(), 1.0f);
  std::vector<float> poisoned(s.dim(), 1.0f);
  poisoned[3] = std::nan("");
  poisoned[7] = std::numeric_limits<float>::infinity();
  agg::AggregationContext ctx;
  ASSERT_TRUE(s.Step({direction, poisoned}, 0.5, ctx).ok());
  // Mean of {1, 0} per coordinate = 0.5, scaled by lr 0.5.
  for (size_t i = 0; i < s.dim(); ++i) {
    EXPECT_FLOAT_EQ(s.params()[i], before[i] - 0.25f);
  }
}

TEST(ServerTest, AllFiniteFastPathLeavesArenaUntouched) {
  // The sanitize pass works in place on the arena: a fully-finite round
  // must not copy, rewrite, or even touch a single float (the old path
  // copied every upload into a `sanitized` block — this is the
  // regression test for that double copy).
  Server s(nn::MlpFactory(16, 8, 4), std::make_unique<agg::MeanAggregator>(),
           data::DatasetView(), 1);
  std::vector<float> block(3 * s.dim());
  SplitRng rng(5, {0xB10C});
  rng.FillGaussian(block.data(), block.size(), 1.0);
  std::vector<float> before = block;
  agg::AggregationContext ctx;
  ASSERT_TRUE(s.Step(RowSpan(block.data(), 3, s.dim()), 0.5, ctx).ok());
  EXPECT_EQ(0, std::memcmp(before.data(), block.data(),
                           block.size() * sizeof(float)));
}

TEST(ServerTest, NonFiniteRowIsZeroedInPlace) {
  Server s(nn::MlpFactory(16, 8, 4), std::make_unique<agg::MeanAggregator>(),
           data::DatasetView(), 1);
  std::vector<float> block(2 * s.dim(), 1.0f);
  block[s.dim() + 3] = std::nan("");
  agg::AggregationContext ctx;
  ASSERT_TRUE(s.Step(RowSpan(block.data(), 2, s.dim()), 0.5, ctx).ok());
  // Row 0 untouched, row 1 wholly zeroed (g ← 0).
  for (size_t k = 0; k < s.dim(); ++k) {
    EXPECT_EQ(block[k], 1.0f);
    EXPECT_EQ(block[s.dim() + k], 0.0f);
  }
}

TEST(ServerTest, SanitizeNeutralizesIdenticallyAcrossSimdTiers) {
  // The sanitize scan routes through the dispatched all_finite_f32
  // kernel: every tier must classify — and therefore zero — exactly the
  // same rows the scalar reference does, including rows whose only
  // offender is ±Inf, a NaN in the final (scalar-tail) element, or a row
  // of hostile-but-finite values (denormals, ±0) that must survive.
  auto run = [](simd::IsaLevel level) {
    simd::ScopedForceIsa force(level);
    Server s(nn::MlpFactory(16, 8, 4),
             std::make_unique<agg::MeanAggregator>(), data::DatasetView(),
             1);
    size_t dim = s.dim();
    std::vector<float> block(4 * dim, 1.0f);
    block[3] = std::nan("");                       // row 0: NaN early
    block[2 * dim - 1] = -std::numeric_limits<float>::infinity();  // row 1
    block[2 * dim] = -0.0f;                        // row 2: finite edges
    block[2 * dim + 1] = std::numeric_limits<float>::denorm_min();
    // row 3 stays clean.
    agg::AggregationContext ctx;
    EXPECT_TRUE(s.Step(RowSpan(block.data(), 4, dim), 0.5, ctx).ok());
    block.insert(block.end(), s.params().begin(), s.params().end());
    return block;
  };
  std::vector<float> want = run(simd::IsaLevel::kScalar);
  size_t dim = nn::MakeMlp(16, 8, 4)->NumParams();
  // The scalar reference itself: poisoned rows zeroed, edge row kept.
  EXPECT_EQ(want[0], 0.0f);
  EXPECT_EQ(want[dim], 0.0f);
  EXPECT_EQ(want[2 * dim + 2], 1.0f);
  for (simd::IsaLevel level :
       {simd::IsaLevel::kSse2, simd::IsaLevel::kAvx2,
        simd::IsaLevel::kAvx512}) {
    if (simd::KernelsFor(level) == nullptr) continue;
    std::vector<float> got = run(level);
    ASSERT_EQ(want.size(), got.size());
    for (size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(want[i], got[i]) << simd::IsaName(level) << " index " << i;
    }
  }
}

TEST(ServerTest, SpanStepMatchesLegacyStep) {
  std::vector<std::vector<float>> uploads(
      4, std::vector<float>(nn::MakeMlp(16, 8, 4)->NumParams()));
  for (size_t i = 0; i < uploads.size(); ++i) {
    SplitRng rng(8, {0xD1FF, i});
    rng.FillGaussian(uploads[i].data(), uploads[i].size(), 0.5);
  }
  Server legacy(nn::MlpFactory(16, 8, 4),
                std::make_unique<agg::MeanAggregator>(), data::DatasetView(),
                1);
  Server span(nn::MlpFactory(16, 8, 4),
              std::make_unique<agg::MeanAggregator>(), data::DatasetView(),
              1);
  std::vector<float> block(uploads.size() * uploads[0].size());
  for (size_t i = 0; i < uploads.size(); ++i) {
    std::memcpy(block.data() + i * uploads[0].size(), uploads[i].data(),
                uploads[0].size() * sizeof(float));
  }
  agg::AggregationContext ctx;
  ASSERT_TRUE(legacy.Step(uploads, 0.25, ctx).ok());
  ASSERT_TRUE(
      span.Step(RowSpan(block.data(), uploads.size(), uploads[0].size()),
                0.25, ctx)
          .ok());
  EXPECT_EQ(legacy.params(), span.params());
}

TEST(ServerTest, UntrainedAccuracyIsNearChance) {
  data::DatasetBundle bundle = SmallBundle();
  Server s(nn::MlpFactory(16, 8, 4), std::make_unique<agg::MeanAggregator>(),
           data::DatasetView(), 4);
  double acc = s.EvaluateAccuracy(data::DatasetView::All(&bundle.test));
  EXPECT_GT(acc, 0.02);
  EXPECT_LT(acc, 0.65);  // 4 classes, untrained: near 0.25
}

}  // namespace
}  // namespace fl
}  // namespace dpbr
