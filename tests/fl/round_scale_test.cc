// Round orchestration at scale: 1000 synthetic clients per round through
// the contiguous UploadArena, with and without Poisson client
// subsampling. Pins the three contracts the arena migration must keep:
// schedule-independent results (pool-size invariance), a deterministic
// subsampling stream, and attacks forging straight into reserved arena
// rows.

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

#include "aggregators/mean.h"
#include "attacks/gaussian_attack.h"
#include "attacks/inner_product.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "data/synthetic.h"
#include "fl/trainer.h"
#include "fl/upload.h"
#include "nn/model_zoo.h"

namespace dpbr {
namespace fl {
namespace {

constexpr int kClients = 1000;

data::DatasetBundle ScaleBundle() {
  data::SyntheticSpec spec;
  spec.num_classes = 2;
  spec.feature_dim = 8;
  spec.train_size = 2 * kClients;  // two examples per client
  spec.val_size = 40;
  spec.test_size = 50;
  spec.class_separation = 3.0;
  spec.noise_std = 0.5;
  auto b = data::GenerateSynthetic(spec, 11);
  EXPECT_TRUE(b.ok());
  return std::move(b).value();
}

TrainerOptions ScaleOptions() {
  TrainerOptions o;
  o.num_honest = kClients;
  o.batch_size = 2;
  o.epochs = 2;
  o.epsilon = 2.0;
  o.base_lr = 0.3;
  o.momentum_reset = MomentumReset::kPersist;
  o.seed = 3;
  return o;
}

// Runs one full training and returns the final model parameters plus the
// per-round honest cohort sizes.
struct RunResult {
  std::vector<float> params;
  std::vector<int> participants;
};

RunResult RunOnce(const data::DatasetBundle& bundle, TrainerOptions o,
                  AttackPtr attack = nullptr) {
  FederatedTrainer t(&bundle, nn::MlpFactory(8, 4, 2),
                     std::make_unique<agg::MeanAggregator>(),
                     std::move(attack), o);
  auto h = t.Run();
  EXPECT_TRUE(h.ok()) << h.status().ToString();
  RunResult r;
  if (!h.ok()) return r;
  r.params = t.server()->params();
  r.participants = h.value().round_participants;
  return r;
}

TEST(RoundScaleTest, SubsampledRoundCountScalesByClientRate) {
  data::DatasetBundle bundle = ScaleBundle();
  TrainerOptions o = ScaleOptions();
  o.client_sampling_rate = 0.5;
  FederatedTrainer t(&bundle, nn::MlpFactory(8, 4, 2),
                     std::make_unique<agg::MeanAggregator>(), nullptr, o);
  ASSERT_TRUE(t.Run().ok());
  // Legacy count: ⌈2·2/2⌉ = 2 rounds; q_c = 0.5 doubles it.
  EXPECT_EQ(t.total_rounds(), 4);
  EXPECT_DOUBLE_EQ(t.privacy().client_sampling_rate, 0.5);
}

TEST(RoundScaleTest, CohortSizesFollowThePoissonRate) {
  data::DatasetBundle bundle = ScaleBundle();
  TrainerOptions o = ScaleOptions();
  o.client_sampling_rate = 0.5;
  RunResult r = RunOnce(bundle, o);
  ASSERT_EQ(r.participants.size(), 4u);
  for (int c : r.participants) {
    // Binomial(1000, 0.5): mean 500, σ ≈ 15.8; ±100 is > 6σ.
    EXPECT_GT(c, 400);
    EXPECT_LT(c, 600);
  }
  // Full participation keeps every client in every round.
  RunResult full = RunOnce(bundle, ScaleOptions());
  for (int c : full.participants) EXPECT_EQ(c, kClients);
}

TEST(RoundScaleTest, SubsampledTrainingIsPoolSizeInvariant) {
  data::DatasetBundle bundle = ScaleBundle();
  TrainerOptions o = ScaleOptions();
  o.client_sampling_rate = 0.5;
  RunResult narrow, wide;
  {
    ThreadPool pool(1);
    ScopedPoolOverride override(&pool);
    narrow = RunOnce(bundle, o);
  }
  {
    ThreadPool pool(8);
    ScopedPoolOverride override(&pool);
    wide = RunOnce(bundle, o);
  }
  // Identical cohorts AND bitwise-identical final model.
  EXPECT_EQ(narrow.participants, wide.participants);
  ASSERT_EQ(narrow.params.size(), wide.params.size());
  EXPECT_EQ(0, std::memcmp(narrow.params.data(), wide.params.data(),
                           narrow.params.size() * sizeof(float)));
}

TEST(RoundScaleTest, SubsamplingStreamIsSeedKeyed) {
  data::DatasetBundle bundle = ScaleBundle();
  TrainerOptions o = ScaleOptions();
  o.client_sampling_rate = 0.5;
  RunResult a = RunOnce(bundle, o);
  RunResult b = RunOnce(bundle, o);
  EXPECT_EQ(a.participants, b.participants);
  EXPECT_EQ(a.params, b.params);
  o.seed = 4;
  RunResult c = RunOnce(bundle, o);
  EXPECT_NE(a.participants, c.participants);  // different cohort draws
}

TEST(RoundScaleTest, AttackForgesIntoReservedArenaRows) {
  data::DatasetBundle bundle = ScaleBundle();
  TrainerOptions o = ScaleOptions();
  o.client_sampling_rate = 0.5;
  o.num_byzantine = 50;
  auto attacked = RunOnce(bundle, o,
                          std::make_unique<attacks::GaussianAttack>(5.0));
  auto again = RunOnce(bundle, o,
                       std::make_unique<attacks::GaussianAttack>(5.0));
  EXPECT_EQ(attacked.params, again.params);  // forged rows deterministic
  TrainerOptions clean_o = o;
  clean_o.num_byzantine = 0;
  auto clean = RunOnce(bundle, clean_o);
  EXPECT_NE(attacked.params, clean.params);  // forged rows aggregated
}

TEST(RoundScaleTest, ForgeIntoArenaSliceMatchesStandaloneBlock) {
  // The trainer hands the attack a sub-span of the round arena; writing
  // there must produce exactly what a block of its own receives, and
  // leave the honest rows alone.
  constexpr size_t kHonest = 6, kByz = 3, kDim = 64;
  UploadArena arena;
  arena.Reset(kHonest + kByz, kDim);
  for (size_t i = 0; i < kHonest; ++i) {
    SplitRng rng(21, {0xFEED, i});
    rng.FillGaussian(arena.Row(i), kDim, 0.3);
  }
  auto make_ctx = [&](SplitRng* rng) {
    AttackContext ctx;
    ctx.honest_uploads = arena.cspan().Slice(0, kHonest);
    ctx.dim = kDim;
    ctx.sigma_upload = 0.3;
    ctx.round = 5;
    ctx.total_rounds = 10;
    ctx.rng = rng;
    return ctx;
  };
  attacks::InnerProductAttack attack;
  SplitRng rng_a(9, {1});
  SplitRng rng_b(9, {1});
  UploadArena standalone;
  standalone.Reset(kByz, kDim);
  attack.ForgeInto(make_ctx(&rng_a), standalone.span());
  UploadArena honest = arena;
  attack.ForgeInto(make_ctx(&rng_b),
                   arena.span().Slice(kHonest, kHonest + kByz));
  EXPECT_EQ(0, std::memcmp(honest.Row(0), arena.Row(0),
                           kHonest * kDim * sizeof(float)));
  EXPECT_EQ(0, std::memcmp(standalone.Row(0), arena.Row(kHonest),
                           kByz * kDim * sizeof(float)));
}

TEST(RoundScaleTest, ClientRateValidation) {
  data::DatasetBundle bundle = ScaleBundle();
  for (double bad : {0.0, -0.25, 1.5}) {
    TrainerOptions o = ScaleOptions();
    o.client_sampling_rate = bad;
    FederatedTrainer t(&bundle, nn::MlpFactory(8, 4, 2),
                       std::make_unique<agg::MeanAggregator>(), nullptr, o);
    EXPECT_EQ(t.Run().status().code(), StatusCode::kInvalidArgument)
        << "q_c=" << bad;
  }
}

}  // namespace
}  // namespace fl
}  // namespace dpbr
