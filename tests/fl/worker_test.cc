#include "fl/worker.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/simd.h"
#include "data/synthetic.h"
#include "nn/model_zoo.h"
#include "stats/ks_test.h"
#include "tensor/ops.h"

namespace dpbr {
namespace fl {
namespace {

data::DatasetBundle SmallBundle() {
  data::SyntheticSpec spec;
  spec.num_classes = 4;
  spec.feature_dim = 16;
  spec.train_size = 200;
  spec.val_size = 40;
  spec.test_size = 40;
  spec.class_separation = 3.0;
  spec.noise_std = 0.5;
  auto b = data::GenerateSynthetic(spec, 5);
  EXPECT_TRUE(b.ok());
  return std::move(b).value();
}

WorkerOptions Opts(double sigma) {
  WorkerOptions o;
  o.batch_size = 8;
  o.beta = 0.1;
  o.sigma = sigma;
  return o;
}

TEST(WorkerTest, UploadDimensionMatchesModel) {
  data::DatasetBundle bundle = SmallBundle();
  nn::ModelFactory f = nn::MlpFactory(16, 8, 4);
  HonestDpWorker w(0, data::DatasetView::All(&bundle.train), f, Opts(0.0), 1);
  EXPECT_EQ(w.dim(), f()->NumParams());
  auto model = f();
  SplitRng rng(1);
  model->InitParams(&rng);
  std::vector<float> params = model->FlatParams();
  std::vector<float> u = w.ComputeUpdate(params, 1);
  EXPECT_EQ(u.size(), w.dim());
}

TEST(WorkerTest, DeterministicPerRound) {
  data::DatasetBundle bundle = SmallBundle();
  nn::ModelFactory f = nn::MlpFactory(16, 8, 4);
  auto model = f();
  SplitRng rng(1);
  model->InitParams(&rng);
  std::vector<float> params = model->FlatParams();

  HonestDpWorker a(0, data::DatasetView::All(&bundle.train), f, Opts(1.0), 7);
  HonestDpWorker b(0, data::DatasetView::All(&bundle.train), f, Opts(1.0), 7);
  EXPECT_EQ(a.ComputeUpdate(params, 1), b.ComputeUpdate(params, 1));
  EXPECT_EQ(a.ComputeUpdate(params, 2), b.ComputeUpdate(params, 2));
}

TEST(WorkerTest, DifferentSeedsProduceDifferentUploads) {
  data::DatasetBundle bundle = SmallBundle();
  nn::ModelFactory f = nn::MlpFactory(16, 8, 4);
  auto model = f();
  SplitRng rng(1);
  model->InitParams(&rng);
  std::vector<float> params = model->FlatParams();
  HonestDpWorker a(0, data::DatasetView::All(&bundle.train), f, Opts(1.0), 7);
  HonestDpWorker b(1, data::DatasetView::All(&bundle.train), f, Opts(1.0), 8);
  EXPECT_NE(a.ComputeUpdate(params, 1), b.ComputeUpdate(params, 1));
}

TEST(WorkerTest, NoNoiseUploadIsBoundedByOne) {
  // Without DP noise the upload is (1/bc)·Σ of bc unit vectors: ‖·‖ <= 1.
  data::DatasetBundle bundle = SmallBundle();
  nn::ModelFactory f = nn::MlpFactory(16, 8, 4);
  auto model = f();
  SplitRng rng(2);
  model->InitParams(&rng);
  std::vector<float> params = model->FlatParams();
  HonestDpWorker w(0, data::DatasetView::All(&bundle.train), f, Opts(0.0), 3);
  for (int round = 1; round <= 5; ++round) {
    std::vector<float> u = w.ComputeUpdate(params, round);
    EXPECT_LE(ops::Norm(u), 1.0 + 1e-5);
    EXPECT_GT(ops::Norm(u), 0.0);
  }
}

TEST(WorkerTest, DpNoiseDominatesUploadNorm) {
  // With σ large, ‖upload‖ ≈ σ·√d/bc (paper §4.3 "DP noise dominates").
  data::DatasetBundle bundle = SmallBundle();
  nn::ModelFactory f = nn::MlpFactory(16, 8, 4);
  size_t d = f()->NumParams();
  auto model = f();
  SplitRng rng(3);
  model->InitParams(&rng);
  std::vector<float> params = model->FlatParams();
  double sigma = 8.0;
  WorkerOptions o = Opts(sigma);
  HonestDpWorker w(0, data::DatasetView::All(&bundle.train), f, o, 4);
  std::vector<float> u = w.ComputeUpdate(params, 1);
  double expected = sigma * std::sqrt(static_cast<double>(d)) / o.batch_size;
  EXPECT_NEAR(ops::Norm(u), expected, 0.15 * expected);
}

TEST(WorkerTest, MomentumModesDiverge) {
  data::DatasetBundle bundle = SmallBundle();
  nn::ModelFactory f = nn::MlpFactory(16, 8, 4);
  auto model = f();
  SplitRng rng(4);
  model->InitParams(&rng);
  std::vector<float> params = model->FlatParams();

  WorkerOptions reset = Opts(1.0);
  reset.momentum_reset = MomentumReset::kResetToUpload;
  WorkerOptions persist = Opts(1.0);
  persist.momentum_reset = MomentumReset::kPersist;

  HonestDpWorker a(0, data::DatasetView::All(&bundle.train), f, reset, 9);
  HonestDpWorker b(0, data::DatasetView::All(&bundle.train), f, persist, 9);
  // Round 1 is identical (momentum starts at zero in both modes)...
  EXPECT_EQ(a.ComputeUpdate(params, 1), b.ComputeUpdate(params, 1));
  // ...but the modes diverge from round 2 on.
  EXPECT_NE(a.ComputeUpdate(params, 2), b.ComputeUpdate(params, 2));
}

TEST(WorkerTest, TinyShardFallsBackToWithReplacement) {
  data::DatasetBundle bundle = SmallBundle();
  nn::ModelFactory f = nn::MlpFactory(16, 8, 4);
  auto model = f();
  SplitRng rng(5);
  model->InitParams(&rng);
  std::vector<float> params = model->FlatParams();
  // Shard of 3 examples with batch size 8.
  data::DatasetView shard(&bundle.train, {0, 1, 2});
  HonestDpWorker w(0, shard, f, Opts(0.0), 11);
  std::vector<float> u = w.ComputeUpdate(params, 1);
  EXPECT_GT(ops::Norm(u), 0.0);
}

TEST(WorkerTest, FlippedShardGivesDifferentUpload) {
  data::DatasetBundle bundle = SmallBundle();
  nn::ModelFactory f = nn::MlpFactory(16, 8, 4);
  auto model = f();
  SplitRng rng(6);
  model->InitParams(&rng);
  std::vector<float> params = model->FlatParams();
  data::DatasetView shard = data::DatasetView::All(&bundle.train);
  HonestDpWorker clean(0, shard, f, Opts(0.0), 13);
  HonestDpWorker poisoned(0, shard.WithFlippedLabels(), f, Opts(0.0), 13);
  std::vector<float> uc = clean.ComputeUpdate(params, 1);
  std::vector<float> up = poisoned.ComputeUpdate(params, 1);
  EXPECT_NE(uc, up);
  // Poisoned gradients point against the clean descent direction.
  EXPECT_LT(ops::Dot(uc, up) / (ops::Norm(uc) * ops::Norm(up)), 0.5);
}

TEST(WorkerTest, UploadNoiseIsGaussianAtSigmaOverBcOnEveryTier) {
  // End-to-end DP noise conformance at the upload: two workers with the
  // same seed, shard and parameters draw the same mini-batch, so the
  // σ > 0 upload minus the σ = 0 upload isolates the noise the protocol
  // adds, N(0, σ²) on the normalized sum scaled by 1/bc, i.e.
  // N(0, σ²/bc²) per coordinate.
  data::DatasetBundle bundle = SmallBundle();
  nn::ModelFactory f = nn::MlpFactory(16, 256, 4);
  auto model = f();
  SplitRng rng(4);
  model->InitParams(&rng);
  std::vector<float> params = model->FlatParams();
  const double sigma = 2.0;
  const double bc = Opts(sigma).batch_size;
  for (simd::IsaLevel level :
       {simd::IsaLevel::kScalar, simd::IsaLevel::kSse2,
        simd::IsaLevel::kAvx2, simd::IsaLevel::kAvx512}) {
    if (simd::KernelsFor(level) == nullptr) continue;
    simd::ScopedForceIsa force(level);
    HonestDpWorker clean(0, data::DatasetView::All(&bundle.train), f,
                         Opts(0.0), 13);
    HonestDpWorker noisy(0, data::DatasetView::All(&bundle.train), f,
                         Opts(sigma), 13);
    std::vector<float> a = clean.ComputeUpdate(params, 3);
    std::vector<float> b = noisy.ComputeUpdate(params, 3);
    std::vector<float> residual(a.size());
    for (size_t k = 0; k < a.size(); ++k) residual[k] = b[k] - a[k];
    stats::KsResult fit = stats::KsTestGaussian(residual, sigma / bc);
    EXPECT_GT(fit.p_value, 1e-3) << simd::IsaName(level) << " D "
                                 << fit.statistic << " n " << fit.n;
    // The test has the power to see a 20% scale error at this size.
    stats::KsResult off = stats::KsTestGaussian(residual, 1.2 * sigma / bc);
    EXPECT_LT(off.p_value, 1e-3) << simd::IsaName(level);
  }
}

}  // namespace
}  // namespace fl
}  // namespace dpbr
