#include "fl/trainer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <thread>
#include <vector>

#include "aggregators/mean.h"
#include "attacks/gaussian_attack.h"
#include "attacks/label_flip.h"
#include "common/thread_pool.h"
#include "data/synthetic.h"
#include "nn/model_zoo.h"

namespace dpbr {
namespace fl {
namespace {

// The `quick` CTest tier (DPBR_TEST_TIER=quick) halves the training
// epochs; accuracy assertions below use tier-aware margins.
bool QuickTier() {
  const char* tier = std::getenv("DPBR_TEST_TIER");
  return tier != nullptr && std::strcmp(tier, "quick") == 0;
}

int TierEpochs() { return QuickTier() ? 2 : 4; }

data::DatasetBundle TrainerBundle() {
  data::SyntheticSpec spec;
  spec.num_classes = 4;
  spec.feature_dim = 16;
  spec.train_size = 1600;
  spec.val_size = 80;
  spec.test_size = 200;
  spec.class_separation = 3.5;
  spec.noise_std = 0.6;
  auto b = data::GenerateSynthetic(spec, 7);
  EXPECT_TRUE(b.ok());
  return std::move(b).value();
}

TrainerOptions FastOptions() {
  TrainerOptions o;
  o.num_honest = 8;
  o.epochs = TierEpochs();
  o.batch_size = 8;
  o.epsilon = 2.0;
  o.base_lr = 0.5;
  o.momentum_reset = MomentumReset::kPersist;
  o.seed = 1;
  return o;
}

TEST(TrainerTest, ReferenceRunLearnsAboveChance) {
  data::DatasetBundle bundle = TrainerBundle();
  FederatedTrainer t(&bundle, nn::MlpFactory(16, 8, 4),
                     std::make_unique<agg::MeanAggregator>(), nullptr,
                     FastOptions());
  auto h = t.Run();
  ASSERT_TRUE(h.ok());
  // 4 classes → chance 0.25; DP-FL should clear 0.5 on this easy task.
  EXPECT_GT(h.value().final_accuracy, 0.5);
  EXPECT_GE(h.value().best_accuracy, h.value().final_accuracy);
  EXPECT_FALSE(h.value().evals.empty());
}

TEST(TrainerTest, PrivacyCalibrationExposed) {
  data::DatasetBundle bundle = TrainerBundle();
  FederatedTrainer t(&bundle, nn::MlpFactory(16, 8, 4),
                     std::make_unique<agg::MeanAggregator>(), nullptr,
                     FastOptions());
  ASSERT_TRUE(t.Run().ok());
  EXPECT_TRUE(t.privacy().dp_enabled);
  EXPECT_DOUBLE_EQ(t.privacy().epsilon, 2.0);
  // |D| = 1600/8 = 200, T = ceil(epochs·200/8) = 25·epochs.
  EXPECT_EQ(t.total_rounds(), 25 * TierEpochs());
  EXPECT_GT(t.privacy().sigma, 0.0);
}

TEST(TrainerTest, LrTransferScalesInverselyWithSigma) {
  data::DatasetBundle bundle = TrainerBundle();
  TrainerOptions strict = FastOptions();
  strict.epsilon = 0.25;  // more noise than the base ε = 2
  FederatedTrainer t_base(&bundle, nn::MlpFactory(16, 8, 4),
                          std::make_unique<agg::MeanAggregator>(), nullptr,
                          FastOptions());
  FederatedTrainer t_strict(&bundle, nn::MlpFactory(16, 8, 4),
                            std::make_unique<agg::MeanAggregator>(), nullptr,
                            strict);
  ASSERT_TRUE(t_base.Run().ok());
  ASSERT_TRUE(t_strict.Run().ok());
  // At the anchor ε the transfer rule returns the base LR itself.
  EXPECT_NEAR(t_base.learning_rate(), 0.5, 1e-9);
  EXPECT_LT(t_strict.learning_rate(), t_base.learning_rate());
  // η·σ is invariant under the rule.
  EXPECT_NEAR(t_strict.learning_rate() * t_strict.privacy().sigma,
              t_base.learning_rate() * t_base.privacy().sigma, 1e-6);
}

TEST(TrainerTest, NonDpRunUsesBaseLrVerbatim) {
  data::DatasetBundle bundle = TrainerBundle();
  TrainerOptions o = FastOptions();
  o.epsilon = -1.0;
  FederatedTrainer t(&bundle, nn::MlpFactory(16, 8, 4),
                     std::make_unique<agg::MeanAggregator>(), nullptr, o);
  auto h = t.Run();
  ASSERT_TRUE(h.ok());
  EXPECT_FALSE(t.privacy().dp_enabled);
  EXPECT_DOUBLE_EQ(t.learning_rate(), 0.5);
  EXPECT_GT(h.value().final_accuracy, 0.6);
}

TEST(TrainerTest, DeterministicAcrossRuns) {
  data::DatasetBundle bundle = TrainerBundle();
  TrainerOptions o = FastOptions();
  o.epochs = 2;
  auto run = [&]() {
    FederatedTrainer t(&bundle, nn::MlpFactory(16, 8, 4),
                       std::make_unique<agg::MeanAggregator>(), nullptr, o);
    auto h = t.Run();
    EXPECT_TRUE(h.ok());
    return h.value().final_accuracy;
  };
  EXPECT_DOUBLE_EQ(run(), run());
}

TEST(TrainerTest, NonIidPartitionTrains) {
  data::DatasetBundle bundle = TrainerBundle();
  TrainerOptions o = FastOptions();
  o.iid = false;
  FederatedTrainer t(&bundle, nn::MlpFactory(16, 8, 4),
                     std::make_unique<agg::MeanAggregator>(), nullptr, o);
  auto h = t.Run();
  ASSERT_TRUE(h.ok());
  EXPECT_GT(h.value().final_accuracy, 0.3);
}

TEST(TrainerTest, ByzantineWorkersRequireAttack) {
  data::DatasetBundle bundle = TrainerBundle();
  TrainerOptions o = FastOptions();
  o.num_byzantine = 4;
  FederatedTrainer t(&bundle, nn::MlpFactory(16, 8, 4),
                     std::make_unique<agg::MeanAggregator>(), nullptr, o);
  auto h = t.Run();
  EXPECT_FALSE(h.ok());
  EXPECT_EQ(h.status().code(), StatusCode::kInvalidArgument);
}

TEST(TrainerTest, ValidationErrors) {
  data::DatasetBundle bundle = TrainerBundle();
  auto run_with = [&](TrainerOptions o) {
    FederatedTrainer t(&bundle, nn::MlpFactory(16, 8, 4),
                       std::make_unique<agg::MeanAggregator>(), nullptr, o);
    return t.Run().status().code();
  };
  TrainerOptions o = FastOptions();
  o.num_honest = 0;
  EXPECT_EQ(run_with(o), StatusCode::kInvalidArgument);
  o = FastOptions();
  o.epochs = 0;
  EXPECT_EQ(run_with(o), StatusCode::kInvalidArgument);
  o = FastOptions();
  o.batch_size = 0;
  EXPECT_EQ(run_with(o), StatusCode::kInvalidArgument);
  o = FastOptions();
  o.num_byzantine = -1;
  EXPECT_EQ(run_with(o), StatusCode::kInvalidArgument);
}

TEST(TrainerTest, GaussianAttackOnMeanDegradesAccuracy) {
  data::DatasetBundle bundle = TrainerBundle();
  TrainerOptions clean = FastOptions();
  TrainerOptions attacked = FastOptions();
  attacked.num_byzantine = 24;  // 75% of 32 total
  FederatedTrainer t_clean(&bundle, nn::MlpFactory(16, 8, 4),
                           std::make_unique<agg::MeanAggregator>(), nullptr,
                           clean);
  // Loud Gaussian uploads (scale 40x the DP level) wreck the plain mean.
  FederatedTrainer t_attacked(
      &bundle, nn::MlpFactory(16, 8, 4),
      std::make_unique<agg::MeanAggregator>(),
      std::make_unique<attacks::GaussianAttack>(40.0), attacked);
  auto hc = t_clean.Run();
  auto ha = t_attacked.Run();
  ASSERT_TRUE(hc.ok());
  ASSERT_TRUE(ha.ok());
  EXPECT_GT(hc.value().final_accuracy, ha.value().final_accuracy + 0.15);
}

TEST(TrainerTest, RunBuildsOneModelPerThreadSlot) {
  // Workers, poisoned workers (label flipping) and the server share one
  // set of per-thread-slot models, so the population size never changes
  // how many models a run builds.
  data::DatasetBundle bundle = TrainerBundle();
  TrainerOptions o = FastOptions();
  o.num_honest = 12;
  o.num_byzantine = 4;
  o.epochs = 1;
  nn::ModelFactory mlp = nn::MlpFactory(16, 8, 4);
  std::atomic<size_t> built{0};
  nn::ModelFactory counting = [&] {
    built.fetch_add(1);
    return mlp();
  };
  FederatedTrainer t(&bundle, counting,
                     std::make_unique<agg::MeanAggregator>(),
                     std::make_unique<attacks::LabelFlipAttack>(), o);
  auto h = t.Run();
  ASSERT_TRUE(h.ok()) << h.status().ToString();
  EXPECT_EQ(built.load(), ThreadSlotCount());
}

TEST(TrainerTest, PoisonedResetRunIsPoolSizeInvariant) {
  // Poisoned workers' local steps share the round dispatch with the
  // honest ones, one item per example, and under the literal momentum
  // reset each upload feeds the next round's momentum. The run digests
  // pin only the persistent momentum and a forging attack, so this run
  // pins the rest: bitwise the same at pool sizes 1, 2 and hw.
  data::DatasetBundle bundle = TrainerBundle();
  TrainerOptions o = FastOptions();
  o.num_byzantine = 3;
  o.epochs = 1;
  o.momentum_reset = MomentumReset::kResetToUpload;
  auto run = [&](size_t threads) {
    ThreadPool pool(threads);
    ScopedPoolOverride route(&pool);
    FederatedTrainer t(&bundle, nn::MlpFactory(16, 8, 4),
                       std::make_unique<agg::MeanAggregator>(),
                       std::make_unique<attacks::LabelFlipAttack>(), o);
    auto h = t.Run();
    EXPECT_TRUE(h.ok()) << h.status().ToString();
    std::vector<float> params = t.server()->params();
    if (h.ok()) params.push_back(static_cast<float>(h.value().final_accuracy));
    return params;
  };
  const std::vector<float> one = run(1);
  for (size_t threads :
       {size_t{2}, std::max<size_t>(2, std::thread::hardware_concurrency())}) {
    const std::vector<float> got = run(threads);
    ASSERT_EQ(one.size(), got.size());
    EXPECT_EQ(0, std::memcmp(one.data(), got.data(),
                             one.size() * sizeof(float)))
        << "pool " << threads;
  }
}

}  // namespace
}  // namespace fl
}  // namespace dpbr
