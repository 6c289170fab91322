#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <thread>
#include <vector>

#include "aggregators/aggregator.h"
#include "attacks/a_little.h"
#include "attacks/a_little_reference.h"
#include "attacks/adaptive.h"
#include "attacks/attacks_common.h"
#include "attacks/gaussian_attack.h"
#include "attacks/inner_product.h"
#include "attacks/label_flip.h"
#include "attacks/opt_lmp.h"
#include "common/thread_pool.h"
#include "core/experiment.h"
#include "fl/upload.h"
#include "tensor/ops.h"

namespace dpbr {
namespace attacks {
namespace {

// Synthesizes a round's worth of honest uploads g = g̃ + z as the DP
// protocol produces them, written into an arena as the trainer's workers
// write theirs; the context views that arena.
struct Scenario {
  fl::UploadArena honest;
  fl::UploadArena poisoned;
  std::vector<float> params;
  SplitRng rng{123};
  fl::AttackContext ctx;

  Scenario(size_t n_honest, size_t dim, double sigma_upload,
           double signal = 0.05) {
    SplitRng gen(9);
    std::vector<float> direction(dim);
    gen.FillGaussian(direction.data(), dim, 1.0);
    ops::NormalizeInPlace(direction.data(), dim);
    honest.Reset(n_honest, dim);
    for (size_t i = 0; i < n_honest; ++i) {
      SplitRng w = gen.Split(i);
      w.FillGaussian(honest.Row(i), dim, sigma_upload);
      ops::Axpy(static_cast<float>(signal), direction.data(), honest.Row(i),
                dim);
    }
    params.assign(dim, 0.0f);
    ctx.honest_uploads = honest.cspan();
    ctx.global_params = &params;
    ctx.dim = dim;
    ctx.sigma_upload = sigma_upload;
    ctx.round = 5;
    ctx.total_rounds = 100;
    ctx.rng = &rng;
  }

  /// Forges `n` rows into a fresh arena, as into the trainer's reserved
  /// Byzantine rows.
  fl::UploadArena Forge(fl::Attack& attack, size_t n) {
    fl::UploadArena out;
    out.Reset(n, ctx.dim);
    attack.ForgeInto(ctx, out.span());
    return out;
  }
};

// Row i of `arena` as a vector, for whole-row comparisons.
std::vector<float> RowOf(const fl::UploadArena& arena, size_t i) {
  return std::vector<float>(arena.Row(i), arena.Row(i) + arena.dim());
}

double RowNorm(const fl::UploadArena& arena, size_t i) {
  return ops::Norm(arena.Row(i), arena.dim());
}

// ‖x - y‖.
double Distance(const float* x, const std::vector<float>& y) {
  std::vector<float> diff(x, x + y.size());
  ops::Axpy(-1.0f, y.data(), diff.data(), diff.size());
  return ops::Norm(diff);
}

TEST(GaussianAttackTest, MatchesDpNoiseStatistics) {
  Scenario s(10, 2000, 0.3);
  GaussianAttack attack;
  fl::UploadArena forged = s.Forge(attack, 4);
  for (size_t b = 0; b < 4; ++b) {
    // ‖f‖ ≈ σ_up·√d.
    double expected = 0.3 * std::sqrt(2000.0);
    EXPECT_NEAR(RowNorm(forged, b), expected, 0.1 * expected);
  }
  // Distinct draws per Byzantine worker.
  EXPECT_NE(RowOf(forged, 0), RowOf(forged, 1));
}

TEST(GaussianAttackTest, FallbackScaleWithoutDp) {
  Scenario s(5, 500, 0.0);
  s.ctx.sigma_upload = 0.0;
  GaussianAttack attack(2.0);
  fl::UploadArena forged = s.Forge(attack, 1);
  double expected = 2.0 * std::sqrt(500.0);
  EXPECT_NEAR(RowNorm(forged, 0), expected, 0.15 * expected);
}

TEST(OptLmpTest, InvertsBenignDirection) {
  Scenario s(16, 1000, 0.3);
  OptLmpAttack attack;
  size_t mn = 24;  // 60% of 40: Mn = 24 > √16 = 4
  fl::UploadArena forged = s.Forge(attack, mn);
  // All Byzantine uploads are identical (Eq. 10).
  EXPECT_EQ(RowOf(forged, 0), RowOf(forged, 1));
  std::vector<float> benign_sum = SumOfHonestUploads(s.ctx);
  // Negative alignment with the benign sum.
  EXPECT_LT(ops::Dot(forged.Row(0), benign_sum.data(), 1000), 0.0);
  // Total: Σ g_M = -(1+λ)·Σ g_B → aggregate sum = -λ·Σ g_B (inverted).
  std::vector<float> total = benign_sum;
  for (size_t b = 0; b < mn; ++b) {
    ops::Axpy(1.0f, forged.Row(b), total.data(), total.size());
  }
  EXPECT_LT(ops::Dot(total, benign_sum), 0.0);
}

TEST(OptLmpTest, ForgedNormCamouflagesAsBenign) {
  // With λ = Mn/√Bm − 1 each forged upload's norm lands near the benign
  // upload norm σ_up√d (this is what defeats naive norm filtering).
  Scenario s(16, 4000, 0.3, /*signal=*/0.01);
  OptLmpAttack attack;
  fl::UploadArena forged = s.Forge(attack, 24);
  double benign_norm = RowNorm(s.honest, 0);
  EXPECT_NEAR(RowNorm(forged, 0), benign_norm, 0.15 * benign_norm);
}

TEST(OptLmpTest, FewAttackersFallBackGracefully) {
  Scenario s(16, 500, 0.3);
  OptLmpAttack attack;
  // Mn = 2 < √16 = 4: λ clamps to 0, attack still points against benign.
  fl::UploadArena forged = s.Forge(attack, 2);
  std::vector<float> benign_sum = SumOfHonestUploads(s.ctx);
  EXPECT_LT(ops::Dot(forged.Row(0), benign_sum.data(), 500), 0.0);
}

TEST(ALittleTest, SitsWithinBenignSpread) {
  Scenario s(20, 800, 0.3);
  ALittleAttack attack;
  fl::UploadArena forged = s.Forge(attack, 10);
  EXPECT_EQ(RowOf(forged, 0), RowOf(forged, 9));
  // μ - z·s stays within ~3 std of the benign mean per coordinate:
  // overall norm comparable to a benign upload, not orders larger.
  double benign_norm = RowNorm(s.honest, 0);
  EXPECT_LT(RowNorm(forged, 0), 4.0 * benign_norm);
  EXPECT_GT(RowNorm(forged, 0), 0.2 * benign_norm);
}

TEST(ALittleTest, ZOverrideControlsDeviation) {
  Scenario s(20, 800, 0.3);
  ALittleAttack small(0.5), large(3.0);
  fl::UploadArena f_small = s.Forge(small, 4);
  fl::UploadArena f_large = s.Forge(large, 4);
  // Larger z → farther from the benign mean.
  std::vector<float> mean = agg::MeanOfAllRows(s.honest.cspan());
  EXPECT_GT(Distance(f_large.Row(0), mean), Distance(f_small.Row(0), mean));
}

TEST(ALittleTest, BlockedForgeMatchesTheSerialLoopOnEveryPool) {
  // 3,289 coordinates: three whole forge blocks and a partial one.
  const size_t dim = 3 * 1024 + 217;
  for (size_t honest : {size_t{1}, size_t{5}}) {
    Scenario s(honest, dim, 0.3);
    const std::vector<float> want =
        ALittleForgeReference(s.ctx.honest_uploads, 1.3);
    for (size_t threads :
         {size_t{1}, size_t{2},
          std::max<size_t>(2, std::thread::hardware_concurrency())}) {
      ThreadPool pool(threads);
      ScopedPoolOverride route(&pool);
      ALittleAttack attack(1.3);
      fl::UploadArena forged = s.Forge(attack, 7);
      for (size_t r = 0; r < forged.rows(); ++r) {
        ASSERT_EQ(0, std::memcmp(want.data(), forged.Row(r),
                                 dim * sizeof(float)))
            << "honest " << honest << " pool " << threads << " row " << r;
      }
    }
  }
}

TEST(InnerProductTest, NegatesTheMean) {
  Scenario s(8, 300, 0.2);
  InnerProductAttack attack(1.0);
  fl::UploadArena forged = s.Forge(attack, 3);
  std::vector<float> mean = agg::MeanOfAllRows(s.honest.cspan());
  for (size_t k = 0; k < 300; ++k) {
    EXPECT_NEAR(forged.Row(0)[k], -mean[k], 1e-5);
  }
}

TEST(LabelFlipTest, ForwardsPoisonedUploads) {
  Scenario s(4, 100, 0.2);
  s.poisoned.Reset(2, 100);
  std::fill(s.poisoned.Row(0), s.poisoned.Row(0) + 100, 1.0f);
  std::fill(s.poisoned.Row(1), s.poisoned.Row(1) + 100, 2.0f);
  s.ctx.poisoned_uploads = s.poisoned.cspan();
  LabelFlipAttack attack;
  EXPECT_TRUE(attack.wants_poisoned_uploads());
  fl::UploadArena forged = s.Forge(attack, 2);
  EXPECT_FLOAT_EQ(forged.Row(0)[0], 1.0f);
  EXPECT_FLOAT_EQ(forged.Row(1)[0], 2.0f);
}

TEST(AdaptiveTest, CamouflagesBeforeTtbbThenAttacks) {
  Scenario s(6, 200, 0.2);
  AdaptiveAttack attack(std::make_unique<InnerProductAttack>(), 0.5);
  EXPECT_EQ(attack.name(), "adaptive(inner_product)");

  // Round 5 of 100 < TTBB·T = 50: copies of honest uploads.
  s.ctx.round = 5;
  fl::UploadArena camo = s.Forge(attack, 3);
  for (size_t b = 0; b < 3; ++b) {
    bool is_copy = false;
    for (size_t h = 0; h < 6; ++h) {
      if (RowOf(camo, b) == RowOf(s.honest, h)) is_copy = true;
    }
    EXPECT_TRUE(is_copy);
  }

  // Round 80 > 50: delegates to the inner attack.
  s.ctx.round = 80;
  fl::UploadArena hostile = s.Forge(attack, 3);
  std::vector<float> mean = agg::MeanOfAllRows(s.honest.cspan());
  EXPECT_NEAR(hostile.Row(0)[0], -mean[0], 1e-5);
}

TEST(AdaptiveTest, PropagatesPoisonedUploadRequirement) {
  AdaptiveAttack flip(std::make_unique<LabelFlipAttack>(), 0.2);
  EXPECT_TRUE(flip.wants_poisoned_uploads());
  AdaptiveAttack gauss(std::make_unique<GaussianAttack>(), 0.2);
  EXPECT_FALSE(gauss.wants_poisoned_uploads());
}

TEST(AttackContractTest, ForgeIntoWritesEveryElementOfItsRows) {
  // The trainer's upload arena is not cleared between rounds, so every
  // attack the experiment driver builds must write each element of the
  // rows it is given: forging into rows prefilled with NaN must leave no
  // NaN and give, bit for bit, what forging into zeroed rows gives.
  constexpr size_t kDim = 5000;  // several ALIE coordinate blocks
  constexpr size_t kByz = 6;
  auto check = [&](const char* name, double ttbb, int round) {
    Scenario s(10, kDim, 0.3);
    s.poisoned.Reset(kByz, kDim);
    for (size_t b = 0; b < kByz; ++b) {
      SplitRng w(31, {b});
      w.FillGaussian(s.poisoned.Row(b), kDim, 0.3);
    }
    s.ctx.poisoned_uploads = s.poisoned.cspan();
    s.ctx.round = round;
    core::ExperimentConfig config;
    config.attack = name;
    config.ttbb = ttbb;
    auto forge = [&](float fill) {
      Result<fl::AttackPtr> attack = core::MakeAttack(config);
      EXPECT_TRUE(attack.ok());
      std::vector<float> out(kByz * kDim, fill);
      s.rng = SplitRng(77);
      attack.value()->ForgeInto(s.ctx, RowSpan(out.data(), kByz, kDim));
      return out;
    };
    std::vector<float> zeroed = forge(0.0f);
    std::vector<float> prefilled =
        forge(std::numeric_limits<float>::quiet_NaN());
    EXPECT_TRUE(std::none_of(prefilled.begin(), prefilled.end(),
                             [](float v) { return std::isnan(v); }))
        << name << " ttbb=" << ttbb << " round=" << round;
    EXPECT_EQ(0, std::memcmp(zeroed.data(), prefilled.data(),
                             zeroed.size() * sizeof(float)))
        << name << " ttbb=" << ttbb << " round=" << round;
  };
  for (const char* name :
       {"a_little", "gaussian", "inner_product", "label_flip", "opt_lmp"}) {
    check(name, -1.0, 5);
  }
  // The adaptive wrapper, camouflaging (round 5 of 100) and attacking.
  check("a_little", 0.5, 5);
  check("a_little", 0.5, 80);
}

TEST(AttackNamesTest, AreStable) {
  EXPECT_EQ(GaussianAttack().name(), "gaussian");
  EXPECT_EQ(LabelFlipAttack().name(), "label_flip");
  EXPECT_EQ(OptLmpAttack().name(), "opt_lmp");
  EXPECT_EQ(ALittleAttack().name(), "a_little");
  EXPECT_EQ(InnerProductAttack().name(), "inner_product");
}

}  // namespace
}  // namespace attacks
}  // namespace dpbr
