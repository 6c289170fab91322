#include "core/second_stage.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

namespace dpbr {
namespace core {
namespace {

// One-coordinate uploads, so inner products are transparent: `values`
// is itself the n x 1 row block. A braced temporary argument lives until
// the end of the full expression, i.e. through the SelectWorkers call.
ConstRowSpan ScalarUploads(const std::vector<float>& values) {
  return ConstRowSpan(values.data(), values.size(), 1);
}

TEST(SecondStageTest, SelectsTopGammaFraction) {
  SecondStageAggregator s;
  // Server gradient {1}: scores equal the upload values. With scores
  // {5, 5, 1, -3} and γ = 0.5, μ̂ = mean(top 2) = 5 keeps both fives;
  // S = {5, 5, 0, 0} → selection {0, 1}.
  auto sel = s.SelectWorkers(ScalarUploads({5, 5, 1, -3}), {1.0f}, 0.5);
  ASSERT_TRUE(sel.ok());
  EXPECT_EQ(sel.value(), (std::vector<size_t>{0, 1}));
}

TEST(SecondStageTest, ThresholdSuppressesLowerHalfOfTopScores) {
  SecondStageAggregator s;
  // μ̂ is the MEAN of the top ⌈γn⌉ scores, so a strictly lower member of
  // the top group is itself suppressed: scores {5, 4, 1, -3} → μ̂ = 4.5
  // zeroes the 4 as well; only worker 0 accumulates.
  ASSERT_TRUE(s.SelectWorkers(ScalarUploads({5, 4, 1, -3}), {1.0f}, 0.5)
                  .ok());
  EXPECT_DOUBLE_EQ(s.cumulative_scores()[0], 5.0);
  EXPECT_DOUBLE_EQ(s.cumulative_scores()[1], 0.0);
}

TEST(SecondStageTest, NegativeScoresSuppressedFromAccumulation) {
  SecondStageAggregator s;
  ASSERT_TRUE(s.SelectWorkers(ScalarUploads({5, 1, -3, -4}), {1.0f}, 0.5)
                  .ok());
  // μ̂ = mean(top 2) = 3: scores below 3 are zeroed before accumulating.
  const std::vector<double>& S = s.cumulative_scores();
  EXPECT_DOUBLE_EQ(S[0], 5.0);
  EXPECT_DOUBLE_EQ(S[1], 0.0);
  EXPECT_DOUBLE_EQ(S[2], 0.0);
  EXPECT_DOUBLE_EQ(S[3], 0.0);
}

TEST(SecondStageTest, CumulativeScoresDecideSelection) {
  SecondStageAggregator s;
  // Round 1: workers 0 and 1 both pass (μ̂ = 10): S = {10, 10, 0, 0}.
  ASSERT_TRUE(
      s.SelectWorkers(ScalarUploads({10, 10, -5, -5}), {1.0f}, 0.5).ok());
  // Round 2: worker 0 scores 0 while worker 1 passes again. Selection is
  // by the PERSISTENT list S (Algorithm 3 line 14), so worker 0's banked
  // score keeps it selected over the zero-history workers.
  auto sel = s.SelectWorkers(ScalarUploads({0, 20, -5, -5}), {1.0f}, 0.5);
  ASSERT_TRUE(sel.ok());
  // S = {10, 30, 0, 0} → top 2 = {1, 0} → sorted {0, 1}.
  EXPECT_EQ(sel.value(), (std::vector<size_t>{0, 1}));
  EXPECT_DOUBLE_EQ(s.cumulative_scores()[0], 10.0);
  EXPECT_DOUBLE_EQ(s.cumulative_scores()[1], 30.0);
}

TEST(SecondStageTest, LastRoundScoresExposed) {
  SecondStageAggregator s;
  ASSERT_TRUE(s.SelectWorkers(ScalarUploads({2, -1}), {3.0f}, 0.5).ok());
  ASSERT_EQ(s.last_round_scores().size(), 2u);
  EXPECT_DOUBLE_EQ(s.last_round_scores()[0], 6.0);
  EXPECT_DOUBLE_EQ(s.last_round_scores()[1], -3.0);
}

TEST(SecondStageTest, GammaControlsSelectionSize) {
  for (double gamma : {0.1, 0.25, 0.5, 0.9, 1.0}) {
    SecondStageAggregator s;
    auto sel = s.SelectWorkers(
        ScalarUploads({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}), {1.0f}, gamma);
    ASSERT_TRUE(sel.ok());
    size_t expected = static_cast<size_t>(std::ceil(gamma * 10.0));
    expected = std::max<size_t>(expected, 1);
    EXPECT_EQ(sel.value().size(), expected) << "gamma=" << gamma;
  }
}

TEST(SecondStageTest, WorkerCountChangeIsAnError) {
  SecondStageAggregator s;
  ASSERT_TRUE(s.SelectWorkers(ScalarUploads({1, 2}), {1.0f}, 0.5).ok());
  auto bad = s.SelectWorkers(ScalarUploads({1, 2, 3}), {1.0f}, 0.5);
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kFailedPrecondition);
  s.Reset();
  EXPECT_TRUE(s.SelectWorkers(ScalarUploads({1, 2, 3}), {1.0f}, 0.5).ok());
}

TEST(SecondStageTest, InputValidation) {
  SecondStageAggregator s;
  EXPECT_FALSE(s.SelectWorkers(ConstRowSpan(), {1.0f}, 0.5).ok());
  EXPECT_FALSE(s.SelectWorkers(ScalarUploads({1}), {}, 0.5).ok());
  std::vector<float> wide = {1.0f, 2.0f};  // dim mismatch: 2 vs 1
  EXPECT_FALSE(
      s.SelectWorkers(ConstRowSpan(wide.data(), 1, 2), {1.0f}, 0.5).ok());
}

TEST(SecondStageTest, ResetClearsState) {
  SecondStageAggregator s;
  ASSERT_TRUE(s.SelectWorkers(ScalarUploads({5, 1}), {1.0f}, 0.5).ok());
  EXPECT_FALSE(s.cumulative_scores().empty());
  s.Reset();
  EXPECT_TRUE(s.cumulative_scores().empty());
}

TEST(SecondStageTest, TieBreaksByLowerIndex) {
  SecondStageAggregator s;
  auto sel = s.SelectWorkers(ScalarUploads({4, 4, 4, 4}), {1.0f}, 0.5);
  ASSERT_TRUE(sel.ok());
  EXPECT_EQ(sel.value(), (std::vector<size_t>{0, 1}));
}

}  // namespace
}  // namespace core
}  // namespace dpbr
