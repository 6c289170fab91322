#include "core/dpbr_aggregator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/rng.h"
#include "fl/upload.h"
#include "tensor/ops.h"

namespace dpbr {
namespace core {
namespace {

constexpr size_t kDim = 1500;
constexpr double kSigmaUp = 0.25;

// Writes an honest-protocol-shaped upload into `out` (kDim floats):
// dominant Gaussian noise plus a small component along `direction`.
void HonestUpload(uint64_t seed, const std::vector<float>& direction,
                  float* out, double signal = 0.2) {
  SplitRng rng(seed);
  rng.FillGaussian(out, kDim, kSigmaUp);
  ops::Axpy(static_cast<float>(signal), direction.data(), out, kDim);
}

std::vector<float> TrueGradientDirection() {
  SplitRng rng(777);
  std::vector<float> dir(kDim);
  rng.FillGaussian(dir.data(), kDim, 1.0);
  ops::NormalizeInPlace(dir.data(), kDim);
  return dir;
}

agg::AggregationContext Ctx(const std::vector<float>* server_grad,
                            double gamma) {
  agg::AggregationContext ctx;
  ctx.dim = kDim;
  ctx.sigma_upload = kSigmaUp;
  ctx.gamma = gamma;
  ctx.server_gradient = server_grad;
  ctx.round = 1;
  return ctx;
}

TEST(DpbrAggregatorTest, SelectsHonestRejectsInverted) {
  std::vector<float> dir = TrueGradientDirection();
  std::vector<float> server_grad = ops::Scaled(dir, 0.5f);

  const size_t kHonest = 8, kByz = 12;  // Byzantine majority
  fl::UploadArena uploads;
  uploads.Reset(kHonest + kByz, kDim);
  for (size_t i = 0; i < kHonest; ++i) {
    HonestUpload(100 + i, dir, uploads.Row(i));
  }
  // OptLMP-style forgeries: noise-camouflaged but anti-aligned.
  for (size_t i = 0; i < kByz; ++i) {
    HonestUpload(200 + i, dir, uploads.Row(kHonest + i), -0.5);
  }

  DpbrAggregator aggregator;
  double gamma = static_cast<double>(kHonest) / (kHonest + kByz);
  // Accumulate over several rounds: cumulative scores sharpen selection.
  Result<std::vector<float>> out = std::vector<float>{};
  for (int round = 0; round < 5; ++round) {
    fl::UploadArena rows = uploads;  // the first stage zeroes rejects
    out = aggregator.Aggregate(rows.span(), Ctx(&server_grad, gamma));
    ASSERT_TRUE(out.ok());
  }
  const DpbrRoundDiagnostics& diag = aggregator.last_round();
  ASSERT_EQ(diag.selected.size(), kHonest);  // ⌈γn⌉ = 8
  for (size_t idx : diag.selected) {
    EXPECT_LT(idx, kHonest) << "Byzantine upload selected";
  }
  // The aggregate points along the true direction.
  EXPECT_GT(ops::Dot(out.value(), dir), 0.0);
}

TEST(DpbrAggregatorTest, FirstStageZeroesOutOfBandUploads) {
  std::vector<float> dir = TrueGradientDirection();
  std::vector<float> server_grad = ops::Scaled(dir, 0.5f);
  fl::UploadArena uploads;
  uploads.Reset(5, kDim);
  for (size_t i = 0; i < 4; ++i) HonestUpload(10 + i, dir, uploads.Row(i));
  // An arbitrary huge upload (classical Byzantine value) — norm test
  // rejects it outright.
  std::fill(uploads.Row(4), uploads.Row(4) + kDim, 50.0f);

  DpbrAggregator aggregator;
  auto out = aggregator.Aggregate(uploads.span(), Ctx(&server_grad, 0.8));
  ASSERT_TRUE(out.ok());
  const DpbrRoundDiagnostics& diag = aggregator.last_round();
  EXPECT_FALSE(diag.first_stage_passed[4]);
  EXPECT_EQ(diag.first_stage.rejected_norm, 1u);
  // Even if index 4 were selected, its contribution is the zero vector;
  // the aggregate norm stays consistent with honest noise levels.
  EXPECT_LT(ops::Norm(out.value()), kSigmaUp * std::sqrt(kDim));
}

TEST(DpbrAggregatorTest, UpdateScaleVariants) {
  std::vector<float> server_grad(kDim, 0.0f);
  server_grad[0] = 1.0f;
  fl::UploadArena uploads;
  uploads.Reset(4, kDim);
  for (size_t i = 0; i < 4; ++i) uploads.Row(i)[0] = 1.0f;  // score 1

  ProtocolOptions over_total;
  over_total.enable_first_stage = false;  // isolate the scaling logic
  over_total.update_scale = UpdateScale::kOverTotal;
  DpbrAggregator a(over_total);
  auto ra = a.Aggregate(uploads.span(), Ctx(&server_grad, 0.5));
  ASSERT_TRUE(ra.ok());
  // 2 selected of 4 total: (1/4)·2 = 0.5.
  EXPECT_NEAR(ra.value()[0], 0.5f, 1e-6);

  ProtocolOptions over_selected = over_total;
  over_selected.update_scale = UpdateScale::kOverSelected;
  DpbrAggregator b(over_selected);
  auto rb = b.Aggregate(uploads.span(), Ctx(&server_grad, 0.5));
  ASSERT_TRUE(rb.ok());
  // (1/2)·2 = 1.
  EXPECT_NEAR(rb.value()[0], 1.0f, 1e-6);
}

TEST(DpbrAggregatorTest, FirstStageOnlyAblation) {
  ProtocolOptions opts;
  opts.enable_second_stage = false;
  DpbrAggregator aggregator(opts);
  EXPECT_FALSE(aggregator.NeedsServerGradient());

  std::vector<float> dir = TrueGradientDirection();
  fl::UploadArena uploads;
  uploads.Reset(6, kDim);
  for (size_t i = 0; i < 5; ++i) HonestUpload(30 + i, dir, uploads.Row(i));
  std::fill(uploads.Row(5), uploads.Row(5) + kDim, 50.0f);  // rejected
  auto out = aggregator.Aggregate(uploads.span(), Ctx(nullptr, 0.8));
  ASSERT_TRUE(out.ok());
  // Selected = exactly the stage-1 survivors (the loud upload is out;
  // honest-like uploads may lose one to the KS test's 5% false-positive
  // rate, so compare against the stage-1 report rather than a constant).
  const DpbrRoundDiagnostics& diag = aggregator.last_round();
  EXPECT_EQ(diag.selected.size(), diag.first_stage.accepted);
  EXPECT_GE(diag.selected.size(), 4u);
  EXPECT_FALSE(diag.first_stage_passed[5]);
  for (size_t idx : diag.selected) EXPECT_LT(idx, 5u);
}

TEST(DpbrAggregatorTest, RequiresSigmaForFirstStage) {
  DpbrAggregator aggregator;
  std::vector<float> server_grad(kDim, 1.0f);
  agg::AggregationContext ctx = Ctx(&server_grad, 0.5);
  ctx.sigma_upload = 0.0;
  std::vector<float> upload(kDim, 0.1f);
  auto out = aggregator.Aggregate(RowSpan(upload.data(), 1, kDim), ctx);
  EXPECT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kFailedPrecondition);
}

TEST(DpbrAggregatorTest, RequiresServerGradientForSecondStage) {
  DpbrAggregator aggregator;
  EXPECT_TRUE(aggregator.NeedsServerGradient());
  std::vector<float> upload(kDim);
  HonestUpload(1, TrueGradientDirection(), upload.data());
  auto out = aggregator.Aggregate(RowSpan(upload.data(), 1, kDim),
                                  Ctx(nullptr, 0.5));
  EXPECT_FALSE(out.ok());
}

TEST(DpbrAggregatorTest, ResetClearsCumulativeState) {
  std::vector<float> dir = TrueGradientDirection();
  std::vector<float> server_grad = ops::Scaled(dir, 1.0f);
  fl::UploadArena uploads;
  uploads.Reset(4, kDim);
  for (size_t i = 0; i < 4; ++i) HonestUpload(40 + i, dir, uploads.Row(i));
  DpbrAggregator aggregator;
  ASSERT_TRUE(
      aggregator.Aggregate(uploads.span(), Ctx(&server_grad, 0.5)).ok());
  EXPECT_FALSE(aggregator.second_stage().cumulative_scores().empty());
  aggregator.Reset();
  EXPECT_TRUE(aggregator.second_stage().cumulative_scores().empty());
}

}  // namespace
}  // namespace core
}  // namespace dpbr
