#include "fl/server.h"

#include <gtest/gtest.h>

#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "aggregators/fltrust.h"
#include "aggregators/mean.h"
#include "common/rng.h"
#include "common/simd.h"
#include "common/thread_pool.h"
#include "data/synthetic.h"
#include "fl/trainer.h"
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
  std::vector<float> block(2 * s.dim(), 1.0f);
  agg::AggregationContext ctx;
  ASSERT_TRUE(s.Step(RowSpan(block.data(), 2, s.dim()), 0.5, ctx).ok());
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
    nn::LossGrad lg = nn::SoftmaxCrossEntropy(
        model->ForwardBatch(x), static_cast<size_t>(aux.LabelAt(i)));
    model->BackwardTo(lg.grad_logits, g.data());
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
  std::vector<float> block(2 * s.dim(), 1.0f);
  block[s.dim() + 3] = std::nan("");
  block[s.dim() + 7] = std::numeric_limits<float>::infinity();
  agg::AggregationContext ctx;
  ASSERT_TRUE(s.Step(RowSpan(block.data(), 2, s.dim()), 0.5, ctx).ok());
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

// Reference server gradient: per 64-example block, a fresh factory model
// and one pass per example, the block's rows summed in index order into a
// zeroed partial; the partials summed in block order into a zeroed
// total, then scaled by 1/|D_p|.
std::vector<float> BlockServerGradient(const nn::ModelFactory& factory,
                                       const std::vector<float>& params,
                                       const data::DatasetView& aux) {
  size_t dim = params.size();
  size_t feature_dim = aux.base()->feature_dim();
  std::vector<size_t> shape = {1};
  for (size_t d : aux.base()->example_shape()) shape.push_back(d);
  std::vector<float> acc(dim, 0.0f);
  for (size_t lo = 0; lo < aux.size(); lo += 64) {
    size_t hi = std::min(aux.size(), lo + 64);
    std::unique_ptr<nn::Sequential> model = factory();
    model->SetParamsFrom(params.data());
    std::vector<float> grads((hi - lo) * dim);
    for (size_t i = lo; i < hi; ++i) {
      Tensor x(shape);
      std::memcpy(x.data(), aux.FeaturesAt(i), feature_dim * sizeof(float));
      nn::LossGrad lg = nn::SoftmaxCrossEntropy(
          model->ForwardBatch(x), static_cast<size_t>(aux.LabelAt(i)));
      model->BackwardTo(lg.grad_logits, grads.data() + (i - lo) * dim);
    }
    std::vector<float> partial(dim, 0.0f);
    for (size_t j = 0; j < hi - lo; ++j) {
      ops::Axpy(1.0f, grads.data() + j * dim, partial.data(), dim);
    }
    ops::Axpy(1.0f, partial.data(), acc.data(), dim);
  }
  ops::Scale(1.0f / static_cast<float>(aux.size()), acc.data(), dim);
  return acc;
}

void ExpectBitwiseEqual(const std::vector<float>& want,
                        const std::vector<float>& got,
                        const std::string& what) {
  ASSERT_EQ(want.size(), got.size()) << what;
  EXPECT_EQ(0, std::memcmp(want.data(), got.data(),
                           want.size() * sizeof(float)))
      << what;
}

// Checks ComputeServerGradient against the block reference at
// pools 1, 2 and hw, at the initial parameters and at perturbed ones
// (which the slot models must pick up). The server is built under a
// one-thread pool, so larger pools must grow its slots.
void CheckServerGradientMatchesBlockReference(const nn::ModelFactory& factory,
                                            const data::DatasetView& aux) {
  ThreadPool one(1);
  std::unique_ptr<Server> s;
  {
    ScopedPoolOverride route(&one);
    s = std::make_unique<Server>(
        factory, std::make_unique<agg::FlTrustAggregator>(), aux, 9);
  }
  size_t hw = std::max<size_t>(2, std::thread::hardware_concurrency());
  for (int step = 0; step < 2; ++step) {
    if (step == 1) {
      std::vector<float> moved = s->params();
      SplitRng rng(3, {0x5E7});
      rng.AddGaussian(moved.data(), moved.size(), 0.05);
      ASSERT_TRUE(s->SetParams(std::move(moved)).ok());
    }
    std::vector<float> want =
        BlockServerGradient(factory, s->params(), aux);
    for (size_t size : {size_t{1}, size_t{2}, hw}) {
      ThreadPool pool(size);
      ScopedPoolOverride route(&pool);
      auto got = s->ComputeServerGradient();
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      ExpectBitwiseEqual(want, got.value(),
                         "pool " + std::to_string(size) + " step " +
                             std::to_string(step));
    }
  }
}

data::DatasetBundle ImageBundle() {
  data::SyntheticSpec spec;
  spec.num_classes = 4;
  spec.image_h = 8;
  spec.image_w = 8;
  spec.feature_dim = 64;
  spec.train_size = 40;
  spec.val_size = 40;
  spec.test_size = 40;
  spec.class_separation = 3.0;
  auto b = data::GenerateSynthetic(spec, 12);
  EXPECT_TRUE(b.ok());
  return std::move(b).value();
}

TEST(ServerGradientTest, MlpMatchesBlockReferenceAcrossPools) {
  // 70 examples: two fold blocks, the second partial.
  data::SyntheticSpec spec;
  spec.num_classes = 4;
  spec.feature_dim = 16;
  spec.train_size = 40;
  spec.val_size = 80;
  spec.test_size = 40;
  auto bundle = data::GenerateSynthetic(spec, 11);
  ASSERT_TRUE(bundle.ok());
  std::vector<size_t> idx(70);
  for (size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  CheckServerGradientMatchesBlockReference(
      nn::MlpFactory(16, 8, 4),
      data::DatasetView(&bundle.value().val, std::move(idx)));
}

TEST(ServerGradientTest, CnnMatchesBlockReferenceAcrossPools) {
  data::DatasetBundle bundle = ImageBundle();
  data::DatasetView aux = data::DatasetView::All(&bundle.val);
  CheckServerGradientMatchesBlockReference(nn::CnnFactory(1, 4, 3, 4), aux);
  CheckServerGradientMatchesBlockReference(nn::ResidualCnnFactory(1, 4, 3, 4),
                                         aux);
}

// Records every server gradient it is handed and returns a zero update,
// so the server's parameters never move.
class RecordingAggregator final : public agg::Aggregator {
 public:
  explicit RecordingAggregator(std::vector<std::vector<float>>* seen)
      : seen_(seen) {}
  std::string name() const override { return "recording"; }
  bool NeedsServerGradient() const override { return true; }
  using agg::Aggregator::Aggregate;
  Result<std::vector<float>> Aggregate(
      RowSpan /*uploads*/, const agg::AggregationContext& ctx) override {
    if (ctx.server_gradient == nullptr) {
      return Status::FailedPrecondition("no server gradient");
    }
    seen_->push_back(*ctx.server_gradient);
    return std::vector<float>(ctx.dim, 0.0f);
  }

 private:
  std::vector<std::vector<float>>* seen_;
};

TEST(ServerGradientTest, TrainerHandsTheAggregatorComputeServerGradient) {
  // The trainer folds the rows its round dispatch computed; at the same
  // parameters that must be exactly ComputeServerGradient().
  data::DatasetBundle bundle = ImageBundle();
  size_t hw = std::max<size_t>(2, std::thread::hardware_concurrency());
  for (size_t size : {size_t{1}, hw}) {
    ThreadPool pool(size);
    ScopedPoolOverride route(&pool);
    std::vector<std::vector<float>> seen;
    TrainerOptions o;
    o.num_honest = 3;
    o.batch_size = 4;
    o.epochs = 1;
    o.epsilon = 2.0;
    o.seed = 21;
    o.stop_after_round = 3;
    FederatedTrainer trainer(&bundle, nn::CnnFactory(1, 4, 3, 4),
                             std::make_unique<RecordingAggregator>(&seen),
                             nullptr, o);
    auto run = trainer.Run();
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    ASSERT_EQ(seen.size(), 3u);
    auto want = trainer.server()->ComputeServerGradient();
    ASSERT_TRUE(want.ok());
    for (size_t r = 0; r < seen.size(); ++r) {
      ExpectBitwiseEqual(want.value(), seen[r],
                         "pool " + std::to_string(size) + " round " +
                             std::to_string(r + 1));
    }
  }
}

TEST(ServerTest, StepWithoutNeededServerGradientFails) {
  data::DatasetBundle bundle = SmallBundle();
  Server s(nn::MlpFactory(16, 8, 4),
           std::make_unique<agg::FlTrustAggregator>(),
           data::DatasetView(&bundle.val, {0, 1, 2}), 3);
  std::vector<float> before = s.params();
  std::vector<float> block(2 * s.dim(), 1.0f);
  agg::AggregationContext ctx;
  Status st = s.Step(RowSpan(block.data(), 2, s.dim()), 0.5, ctx);
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition) << st.ToString();
  EXPECT_EQ(s.params(), before);
}

TEST(ServerTest, UntrainedAccuracyIsNearChance) {
  data::DatasetBundle bundle = SmallBundle();
  Server s(nn::MlpFactory(16, 8, 4), std::make_unique<agg::MeanAggregator>(),
           data::DatasetView(), 4);
  double acc = s.EvaluateAccuracy(data::DatasetView::All(&bundle.test));
  EXPECT_GT(acc, 0.02);
  EXPECT_LT(acc, 0.65);  // 4 classes, untrained: near 0.25
}

// Correct predictions over `view` by a fresh factory model at `params`,
// one batch-of-1 forward pass per example.
size_t PerExampleHits(const nn::ModelFactory& factory,
                      const std::vector<float>& params,
                      const data::DatasetView& view) {
  std::unique_ptr<nn::Sequential> model = factory();
  model->SetParamsFrom(params.data());
  std::vector<size_t> shape = {1};
  for (size_t d : view.base()->example_shape()) shape.push_back(d);
  const size_t feature_dim = view.base()->feature_dim();
  size_t hits = 0;
  for (size_t i = 0; i < view.size(); ++i) {
    const float* feat = view.FeaturesAt(i);
    Tensor logits = model->ForwardBatch(
        Tensor(shape, std::vector<float>(feat, feat + feature_dim)));
    hits += static_cast<int>(nn::Argmax(logits.data(), logits.dim(1))) ==
            view.LabelAt(i);
  }
  return hits;
}

data::DatasetBundle PaperImageBundle(size_t test_size) {
  data::SyntheticSpec spec;
  spec.num_classes = 10;
  spec.image_h = 16;
  spec.image_w = 16;
  spec.feature_dim = 256;
  spec.train_size = 20;
  spec.val_size = 20;
  spec.test_size = test_size;
  spec.class_separation = 3.0;
  auto b = data::GenerateSynthetic(spec, 17);
  EXPECT_TRUE(b.ok());
  return std::move(b).value();
}

TEST(ServerEvalTest, HitsMatchPerExampleReferenceAcrossPools) {
  // 150 examples: more than two of the old 64-example blocks, the last
  // one partial. At the initial parameters and at moved ones, which
  // every slot must pick up.
  data::DatasetBundle bundle = PaperImageBundle(150);
  const data::DatasetView test = data::DatasetView::All(&bundle.test);
  const size_t hw = std::max<size_t>(2, std::thread::hardware_concurrency());
  for (const nn::ModelFactory& factory :
       {nn::MlpFactory(256, 8, 10), nn::CnnFactory(1, 4, 3, 10)}) {
    Server s(factory, std::make_unique<agg::MeanAggregator>(),
             data::DatasetView(), 5);
    for (int step = 0; step < 2; ++step) {
      if (step == 1) {
        std::vector<float> moved = s.params();
        SplitRng rng(4, {0xE7A1});
        rng.AddGaussian(moved.data(), moved.size(), 0.2);
        ASSERT_TRUE(s.SetParams(std::move(moved)).ok());
      }
      const size_t want = PerExampleHits(factory, s.params(), test);
      for (size_t size : {size_t{1}, size_t{2}, hw}) {
        ThreadPool pool(size);
        ScopedPoolOverride route(&pool);
        EXPECT_EQ(s.EvaluateAccuracy(test),
                  static_cast<double>(want) / static_cast<double>(test.size()))
            << "pool " << size << " step " << step;
      }
    }
  }
}

// In-use heap bytes: the small-block arenas plus mmapped blocks.
size_t HeapInUse() {
  struct mallinfo2 mi = mallinfo2();
  return mi.uordblks + mi.hblkhd;
}

TEST(ServerTest, EvaluationKeepsEachSlotAtOneExample) {
  // Once a slot model has run one example, evaluating hundreds more must
  // not grow its layer caches: every pass is one example. A pass over 64
  // paper-CNN examples at once would keep several MiB of im2col matrices
  // and activations in each slot model that ran one.
  data::DatasetBundle bundle = PaperImageBundle(256);
  const data::DatasetView test = data::DatasetView::All(&bundle.test);
  const data::DatasetView first(&bundle.test, {0});
  const size_t hw = std::max<size_t>(2, std::thread::hardware_concurrency());
  for (size_t size : {size_t{1}, hw}) {
    ThreadPool pool(size);
    ScopedPoolOverride route(&pool);
    Server s(nn::CnnFactory(1, 16, 5, 10),
             std::make_unique<agg::MeanAggregator>(), data::DatasetView(), 6);
    (void)s.EvaluateAccuracy(first);
    const size_t before = HeapInUse();
    (void)s.EvaluateAccuracy(test);
    const size_t after = HeapInUse();
    const size_t allowed = ThreadSlotCount() * (size_t{1} << 20);
    EXPECT_LT(after, before + allowed)
        << "pool " << size << ": heap grew by " << (after - before)
        << " bytes over " << ThreadSlotCount() << " slots";
  }
}

}  // namespace
}  // namespace fl
}  // namespace dpbr
