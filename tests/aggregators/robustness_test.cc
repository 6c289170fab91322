// Parameterized robustness property: with a Byzantine minority sending
// enormous uploads, every robust rule must stay near the benign mean
// while the plain mean is dragged away. This is the textbook behaviour
// the paper's Table 1 row "✗ for > 50%" presumes in the minority regime.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "aggregators/krum.h"
#include "aggregators/median.h"
#include "aggregators/mean.h"
#include "aggregators/rfa.h"
#include "aggregators/trimmed_mean.h"
#include "common/rng.h"
#include "fl/upload.h"
#include "tensor/ops.h"

namespace dpbr {
namespace agg {
namespace {

struct RobustCase {
  std::string name;
  std::function<AggregatorPtr()> make;
};

// ‖x - y‖.
double Distance(const std::vector<float>& x, const std::vector<float>& y) {
  std::vector<float> diff = x;
  ops::Axpy(-1.0f, y.data(), diff.data(), diff.size());
  return ops::Norm(diff);
}

class MinorityByzantineTest : public ::testing::TestWithParam<RobustCase> {};

TEST_P(MinorityByzantineTest, StaysNearBenignMean) {
  const size_t kDim = 32, kHonest = 15, kByz = 5;
  SplitRng rng(42);
  std::vector<float> benign_center(kDim);
  for (auto& v : benign_center) v = static_cast<float>(rng.Gaussian());
  fl::UploadArena uploads;
  uploads.Reset(kHonest + kByz, kDim);
  for (size_t i = 0; i < kHonest; ++i) {
    for (size_t k = 0; k < kDim; ++k) {
      uploads.Row(i)[k] =
          benign_center[k] + static_cast<float>(rng.Gaussian(0.0, 0.1));
    }
  }
  std::fill(uploads.Row(kHonest), uploads.Row(kHonest) + kByz * kDim,
            1000.0f);

  AggregationContext ctx;
  ctx.dim = kDim;
  ctx.gamma = static_cast<double>(kHonest) / (kHonest + kByz);

  AggregatorPtr robust = GetParam().make();
  auto r = robust.get()->Aggregate(uploads.span(), ctx);
  ASSERT_TRUE(r.ok());
  EXPECT_LT(Distance(r.value(), benign_center), 1.0) << GetParam().name;

  // The non-robust mean is dragged far away by the same uploads.
  MeanAggregator mean;
  auto m = mean.Aggregate(uploads.span(), ctx);
  ASSERT_TRUE(m.ok());
  EXPECT_GT(Distance(m.value(), benign_center), 100.0);
}

INSTANTIATE_TEST_SUITE_P(
    RobustRules, MinorityByzantineTest,
    ::testing::Values(
        RobustCase{"krum", [] { return std::make_unique<KrumAggregator>(); }},
        RobustCase{"median",
                   [] {
                     return std::make_unique<CoordinateMedianAggregator>();
                   }},
        RobustCase{"trimmed_mean",
                   [] {
                     return std::make_unique<TrimmedMeanAggregator>(0.3);
                   }},
        RobustCase{"rfa", [] { return std::make_unique<RfaAggregator>(64); }}),
    [](const ::testing::TestParamInfo<RobustCase>& info) {
      return info.param.name;
    });

// The complementary fact motivating the paper: the same rules FAIL under
// a Byzantine MAJORITY (they have no > 50% resilience).
class MajorityByzantineTest : public ::testing::TestWithParam<RobustCase> {};

TEST_P(MajorityByzantineTest, ClassicalRulesAreOverwhelmed) {
  const size_t kDim = 16, kHonest = 5, kByz = 15;
  SplitRng rng(43);
  fl::UploadArena uploads;
  uploads.Reset(kHonest + kByz, kDim);
  // Honest rows around the origin, then a coordinated majority at a
  // bogus location.
  for (size_t i = 0; i < kHonest + kByz; ++i) {
    float center = i < kHonest ? 0.0f : 5.0f;
    for (size_t k = 0; k < kDim; ++k) {
      uploads.Row(i)[k] = center + static_cast<float>(rng.Gaussian(0.0, 0.1));
    }
  }
  AggregationContext ctx;
  ctx.dim = kDim;
  // Even an accurate belief cannot save distance-based rules here.
  ctx.gamma = static_cast<double>(kHonest) / (kHonest + kByz);
  AggregatorPtr rule = GetParam().make();
  auto r = rule.get()->Aggregate(uploads.span(), ctx);
  ASSERT_TRUE(r.ok());
  // Output lands near the Byzantine cluster (‖·‖ ≈ 5·√16 = 20), far from
  // the honest origin.
  EXPECT_GT(ops::Norm(r.value()), 10.0) << GetParam().name;
}

INSTANTIATE_TEST_SUITE_P(
    ClassicalRules, MajorityByzantineTest,
    ::testing::Values(
        RobustCase{"krum", [] { return std::make_unique<KrumAggregator>(); }},
        RobustCase{"median",
                   [] {
                     return std::make_unique<CoordinateMedianAggregator>();
                   }},
        RobustCase{"rfa", [] { return std::make_unique<RfaAggregator>(64); }}),
    [](const ::testing::TestParamInfo<RobustCase>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace agg
}  // namespace dpbr
