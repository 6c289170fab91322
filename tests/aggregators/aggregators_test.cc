#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "aggregators/fltrust.h"
#include "aggregators/krum.h"
#include "aggregators/mean.h"
#include "aggregators/median.h"
#include "aggregators/norm_bound.h"
#include "aggregators/rfa.h"
#include "aggregators/sign_sgd.h"
#include "aggregators/trimmed_mean.h"
#include "fl/upload_rows.h"
#include "tensor/ops.h"

namespace dpbr {
namespace agg {
namespace {

AggregationContext Ctx(size_t dim, double gamma = 0.5) {
  AggregationContext ctx;
  ctx.dim = dim;
  ctx.gamma = gamma;
  return ctx;
}

TEST(ValidateUploadsTest, SpanErrors) {
  AggregationContext ctx = Ctx(2);
  float block[4] = {1.0f, 2.0f, 3.0f, 4.0f};
  EXPECT_FALSE(ValidateUploads(ConstRowSpan(), ctx).ok());  // empty
  EXPECT_FALSE(
      ValidateUploads(ConstRowSpan(block, 4, 1), ctx).ok());  // dim mismatch
  EXPECT_TRUE(ValidateUploads(ConstRowSpan(block, 2, 2), ctx).ok());
  AggregationContext no_dim;  // ctx.dim unset
  EXPECT_FALSE(ValidateUploads(ConstRowSpan(block, 2, 2), no_dim).ok());
  // client_ids, when present, must cover every row.
  std::vector<int> ids = {0};
  ctx.client_ids = &ids;
  EXPECT_FALSE(ValidateUploads(ConstRowSpan(block, 2, 2), ctx).ok());
  ids = {0, 7};
  EXPECT_TRUE(ValidateUploads(ConstRowSpan(block, 2, 2), ctx).ok());
}

TEST(TrustedCountTest, CeilingAndClamping) {
  EXPECT_EQ(TrustedCount(0.5, 10), 5u);
  EXPECT_EQ(TrustedCount(0.41, 10), 5u);  // ceil(4.1)
  EXPECT_EQ(TrustedCount(0.0, 10), 1u);   // at least one
  EXPECT_EQ(TrustedCount(1.0, 10), 10u);
  EXPECT_EQ(TrustedCount(2.0, 10), 10u);  // clamped
}

TEST(MeanTest, Averages) {
  MeanAggregator m;
  auto r = m.Aggregate(fl::ArenaOf({{1, 3}, {3, 5}}).span(), Ctx(2));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), (std::vector<float>{2, 4}));
}

TEST(MedianTest, OddEvenCoordinates) {
  CoordinateMedianAggregator m;
  fl::UploadArena odd_rows = fl::ArenaOf({{1, 9}, {2, 8}, {100, -100}});
  auto odd = m.Aggregate(odd_rows.span(), Ctx(2));
  ASSERT_TRUE(odd.ok());
  EXPECT_EQ(odd.value(), (std::vector<float>{2, 8}));
  fl::UploadArena even_rows = fl::ArenaOf({{1, 0}, {2, 0}, {3, 0}, {100, 0}});
  auto even = m.Aggregate(even_rows.span(), Ctx(2));
  ASSERT_TRUE(even.ok());
  EXPECT_FLOAT_EQ(even.value()[0], 2.5f);
}

TEST(TrimmedMeanTest, DropsExtremes) {
  TrimmedMeanAggregator t(0.25);
  // n = 4, k = 1: drop min and max per coordinate.
  fl::UploadArena uploads =
      fl::ArenaOf({{0, -100}, {2, 1}, {4, 3}, {1000, 100}});
  auto r = t.Aggregate(uploads.span(), Ctx(2));
  ASSERT_TRUE(r.ok());
  EXPECT_FLOAT_EQ(r.value()[0], 3.0f);  // mean(2, 4)
  EXPECT_FLOAT_EQ(r.value()[1], 2.0f);  // mean(1, 3)
}

TEST(TrimmedMeanTest, TinyPopulationStillWorks) {
  TrimmedMeanAggregator t(0.4);
  auto r = t.Aggregate(fl::ArenaOf({{1}, {2}}).span(), Ctx(1));
  ASSERT_TRUE(r.ok());  // k clamped to 0
  EXPECT_FLOAT_EQ(r.value()[0], 1.5f);
}

TEST(KrumTest, PicksTheInlier) {
  // Three clustered uploads + one far outlier; gamma=0.75 → f=1.
  KrumAggregator k;
  fl::UploadArena uploads = fl::ArenaOf(
      {{1.0f, 1.0f}, {1.1f, 0.9f}, {0.9f, 1.1f}, {100.0f, -100.0f}});
  auto r = k.Aggregate(uploads.span(), Ctx(2, 0.75));
  ASSERT_TRUE(r.ok());
  // Result is one of the clustered vectors.
  EXPECT_NEAR(r.value()[0], 1.0f, 0.15f);
  EXPECT_NEAR(r.value()[1], 1.0f, 0.15f);
}

TEST(KrumTest, MultiKrumAveragesBestScored) {
  KrumAggregator k(3);
  fl::UploadArena uploads = fl::ArenaOf({{1.0f}, {1.2f}, {0.8f}, {50.0f}});
  auto r = k.Aggregate(uploads.span(), Ctx(1, 0.75));
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r.value()[0], 1.0f, 0.01f);
}

TEST(KrumTest, NeedsThreeUploads) {
  KrumAggregator k;
  fl::UploadArena uploads = fl::ArenaOf({{1.0f}, {2.0f}});
  EXPECT_FALSE(k.Aggregate(uploads.span(), Ctx(1)).ok());
}

TEST(RfaTest, GeometricMedianResistsOutlier) {
  RfaAggregator rfa(64);
  fl::UploadArena uploads =
      fl::ArenaOf({{0.0f, 0.0f}, {0.2f, 0.0f}, {-0.2f, 0.0f}, {0.0f, 0.2f},
                   {0.0f, -0.2f}, {1000.0f, 1000.0f}});
  auto r = rfa.Aggregate(uploads.span(), Ctx(2));
  ASSERT_TRUE(r.ok());
  // The geometric median stays near the cluster center despite the
  // outlier (the mean would be dragged to ~167).
  EXPECT_NEAR(r.value()[0], 0.0f, 0.3f);
  EXPECT_NEAR(r.value()[1], 0.0f, 0.3f);
}

TEST(RfaTest, SinglePointIsFixedPoint) {
  RfaAggregator rfa;
  auto r = rfa.Aggregate(fl::ArenaOf({{3.0f, 4.0f}}).span(), Ctx(2));
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r.value()[0], 3.0f, 1e-4);
  EXPECT_NEAR(r.value()[1], 4.0f, 1e-4);
}

TEST(FlTrustTest, RejectsNegativelyAlignedUploads) {
  FlTrustAggregator f;
  AggregationContext ctx = Ctx(2);
  std::vector<float> server_grad = {1.0f, 0.0f};
  ctx.server_gradient = &server_grad;
  // One aligned upload, one anti-aligned (cos = -1 → weight 0).
  fl::UploadArena uploads = fl::ArenaOf({{2.0f, 0.0f}, {-5.0f, 0.0f}});
  auto r = f.Aggregate(uploads.span(), ctx);
  ASSERT_TRUE(r.ok());
  // Aligned upload rescaled to ‖g_s‖ = 1 with weight 1.
  EXPECT_NEAR(r.value()[0], 1.0f, 1e-5);
  EXPECT_NEAR(r.value()[1], 0.0f, 1e-5);
}

TEST(FlTrustTest, NeedsServerGradient) {
  FlTrustAggregator f;
  EXPECT_TRUE(f.NeedsServerGradient());
  EXPECT_FALSE(f.Aggregate(fl::ArenaOf({{1.0f}}).span(), Ctx(1)).ok());
}

TEST(FlTrustTest, AllRejectedYieldsZeroUpdate) {
  FlTrustAggregator f;
  AggregationContext ctx = Ctx(1);
  std::vector<float> server_grad = {1.0f};
  ctx.server_gradient = &server_grad;
  auto r = f.Aggregate(fl::ArenaOf({{-1.0f}, {-2.0f}}).span(), ctx);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), std::vector<float>{0.0f});
}

TEST(SignSgdTest, MajorityVotePerCoordinate) {
  SignSgdAggregator s(1.0);  // unit scale for readable expectations
  fl::UploadArena uploads =
      fl::ArenaOf({{1, -1, 2}, {3, -2, -1}, {-1, -3, -2}});
  auto r = s.Aggregate(uploads.span(), Ctx(3));
  ASSERT_TRUE(r.ok());
  EXPECT_FLOAT_EQ(r.value()[0], 1.0f);   // votes +,+,- → +
  EXPECT_FLOAT_EQ(r.value()[1], -1.0f);  // all negative
  EXPECT_FLOAT_EQ(r.value()[2], -1.0f);  // +,-,- → -
}

TEST(SignSgdTest, DefaultScaleGivesUnitNorm) {
  SignSgdAggregator s;
  size_t dim = 400;
  fl::UploadArena uploads;
  uploads.Reset(3, dim);
  std::fill(uploads.Row(0), uploads.Row(0) + 3 * dim, 1.0f);
  auto r = s.Aggregate(uploads.span(), Ctx(dim));
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(ops::Norm(r.value()), 1.0, 1e-5);
}

TEST(NormBoundTest, ClipsToExplicitBudget) {
  NormBoundAggregator n(1.0);
  // Upload of norm 10 clipped to 1; upload of norm 0.5 untouched.
  fl::UploadArena uploads = fl::ArenaOf({{10.0f, 0.0f}, {0.5f, 0.0f}});
  auto r = n.Aggregate(uploads.span(), Ctx(2));
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r.value()[0], (1.0f + 0.5f) / 2.0f, 1e-5);
}

TEST(NormBoundTest, AdaptiveMedianBudget) {
  NormBoundAggregator n;  // median norm budget
  fl::UploadArena uploads = fl::ArenaOf({{1.0f}, {1.0f}, {100.0f}});
  auto r = n.Aggregate(uploads.span(), Ctx(1));
  ASSERT_TRUE(r.ok());
  // Median norm = 1, so the outlier contributes 1: mean = 1.
  EXPECT_NEAR(r.value()[0], 1.0f, 1e-5);
}

TEST(AggregatorNamesTest, AreStable) {
  EXPECT_EQ(MeanAggregator().name(), "mean");
  EXPECT_EQ(KrumAggregator().name(), "krum");
  EXPECT_EQ(KrumAggregator(3).name(), "multi_krum");
  EXPECT_EQ(CoordinateMedianAggregator().name(), "coordinate_median");
  EXPECT_EQ(TrimmedMeanAggregator().name(), "trimmed_mean");
  EXPECT_EQ(RfaAggregator().name(), "rfa_geometric_median");
  EXPECT_EQ(FlTrustAggregator().name(), "fltrust");
  EXPECT_EQ(SignSgdAggregator().name(), "sign_sgd_majority");
  EXPECT_EQ(NormBoundAggregator().name(), "norm_bound");
}

}  // namespace
}  // namespace agg
}  // namespace dpbr
