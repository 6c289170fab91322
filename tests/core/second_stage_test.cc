#include "core/second_stage.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
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

TEST(SecondStageTest, NullIdsAreThePositions) {
  // A null id list and an explicit 0..n-1 list take the same path: same
  // selections, S and round scores every round, across a snapshot /
  // Reset / RestoreScores and a round with more workers (S grows).
  const std::vector<std::vector<float>> rounds = {
      {5, 5, 1, -3}, {4, 6, 2, -1}, {3, 3, 9, 0}, {1, 7, 2, 8, -4, 6}};
  SecondStageAggregator positional;
  SecondStageAggregator keyed;
  for (size_t r = 0; r < rounds.size(); ++r) {
    if (r == 2) {
      std::vector<double> a = positional.cumulative_scores();
      std::vector<double> b = keyed.cumulative_scores();
      positional.Reset();
      keyed.Reset();
      positional.RestoreScores(a);
      keyed.RestoreScores(b);
    }
    std::vector<int> iota(rounds[r].size());
    std::iota(iota.begin(), iota.end(), 0);
    auto from_null =
        positional.SelectWorkers(ScalarUploads(rounds[r]), {1.0f}, 0.5);
    auto from_ids =
        keyed.SelectWorkers(ScalarUploads(rounds[r]), {1.0f}, 0.5, &iota);
    ASSERT_TRUE(from_null.ok()) << "round " << r;
    ASSERT_TRUE(from_ids.ok()) << "round " << r;
    EXPECT_EQ(from_null.value(), from_ids.value()) << "round " << r;
    EXPECT_EQ(positional.cumulative_scores(), keyed.cumulative_scores())
        << "round " << r;
    EXPECT_EQ(positional.last_round_scores(), keyed.last_round_scores())
        << "round " << r;
  }
  EXPECT_EQ(positional.cumulative_scores().size(), 6u);
}

TEST(SecondStageTest, InputValidation) {
  SecondStageAggregator s;
  EXPECT_FALSE(s.SelectWorkers(ConstRowSpan(), {1.0f}, 0.5).ok());
  EXPECT_FALSE(s.SelectWorkers(ScalarUploads({1}), {}, 0.5).ok());
  std::vector<float> wide = {1.0f, 2.0f};  // dim mismatch: 2 vs 1
  EXPECT_FALSE(
      s.SelectWorkers(ConstRowSpan(wide.data(), 1, 2), {1.0f}, 0.5).ok());
}

TEST(SecondStageTest, SelectFromScoresIsSelectWorkersAfterItsScores) {
  // SelectWorkers is its dot products, then SelectFromScores: over
  // rounds with changing ids, selections, round scores and cumulative
  // scores agree bit for bit.
  SecondStageAggregator from_rows;
  SecondStageAggregator from_scores;
  const std::vector<std::vector<float>> rounds = {
      {5, -1, 3, 0, 2}, {1, 4, -2, 6, 0}, {0, 0, 7, -3, 2}};
  const std::vector<std::vector<int>> ids = {
      {0, 1, 2, 3, 4}, {7, 1, 3, 2, 9}, {4, 9, 0, 7, 1}};
  for (size_t r = 0; r < rounds.size(); ++r) {
    std::vector<double> scores;
    for (float v : rounds[r]) scores.push_back(static_cast<double>(v) * 2.0);
    auto want = from_rows.SelectWorkers(ScalarUploads(rounds[r]), {2.0f},
                                        0.4, &ids[r]);
    auto got = from_scores.SelectFromScores(scores, 0.4, &ids[r]);
    ASSERT_TRUE(want.ok());
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(want.value(), got.value()) << "round " << r;
    EXPECT_EQ(from_rows.last_round_scores(), from_scores.last_round_scores());
    EXPECT_EQ(from_rows.cumulative_scores(), from_scores.cumulative_scores());
  }
}

TEST(SecondStageTest, SelectFromScoresValidatesBeforeItTouchesState) {
  SecondStageAggregator s;
  ASSERT_TRUE(s.SelectFromScores({3.0, 1.0}, 0.5).ok());
  const std::vector<double> cumulative = s.cumulative_scores();
  const std::vector<double> last = s.last_round_scores();
  EXPECT_FALSE(s.SelectFromScores({}, 0.5).ok());
  std::vector<int> short_ids = {0};
  EXPECT_FALSE(s.SelectFromScores({1.0, 2.0}, 0.5, &short_ids).ok());
  std::vector<int> negative = {0, -1};
  EXPECT_FALSE(s.SelectFromScores({1.0, 2.0}, 0.5, &negative).ok());
  EXPECT_EQ(s.cumulative_scores(), cumulative);
  EXPECT_EQ(s.last_round_scores(), last);
}

TEST(SecondStageTest, NonFiniteRoundSelectsOnUnchangedScores) {
  // S after round 1: {0, 0, 3, 3} (1.0 is below μ̂ = 3). A round with a
  // NaN or ±inf score leaves S as it is and selects its top two entries;
  // the round's scores are still reported.
  const double inf = std::numeric_limits<double>::infinity();
  for (double bad : {std::nan(""), inf, -inf}) {
    SecondStageAggregator s;
    ASSERT_TRUE(s.SelectFromScores({0.0, 1.0, 3.0, 3.0}, 0.5).ok());
    const std::vector<double> before = s.cumulative_scores();
    auto sel = s.SelectFromScores({9.0, bad, 9.0, 9.0}, 0.5);
    ASSERT_TRUE(sel.ok());
    EXPECT_EQ(sel.value(), (std::vector<size_t>{2, 3}));
    EXPECT_EQ(s.cumulative_scores(), before);
    ASSERT_EQ(s.last_round_scores().size(), 4u);
    EXPECT_EQ(s.last_round_scores()[0], 9.0);
  }
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
