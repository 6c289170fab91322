#include "stats/summary.h"

#include <gtest/gtest.h>

#include <cmath>

namespace dpbr {
namespace stats {
namespace {

TEST(RunningStatsTest, MatchesDirectComputation) {
  RunningStats s;
  std::vector<double> xs = {1.0, 2.0, 4.0, 8.0, 16.0};
  for (double x : xs) s.Add(x);
  EXPECT_EQ(s.count(), 5u);
  EXPECT_DOUBLE_EQ(s.mean(), 6.2);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 16.0);
  // Sample variance: Σ(x-6.2)²/4 = (27.04+17.64+4.84+3.24+96.04)/4 = 37.2.
  EXPECT_NEAR(s.variance(), 37.2, 1e-9);
  EXPECT_NEAR(s.stddev(), std::sqrt(37.2), 1e-9);
}

TEST(RunningStatsTest, EmptyAndSingle) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  s.Add(3.0);
  EXPECT_DOUBLE_EQ(s.mean(), 3.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 3.0);
  EXPECT_DOUBLE_EQ(s.max(), 3.0);
}

TEST(RunningStatsTest, ToStringFormat) {
  RunningStats s;
  s.Add(0.8);
  s.Add(0.9);
  EXPECT_EQ(s.ToString(), "0.850 ± 0.071 [0.800, 0.900]");
}

TEST(MeanStdTest, Basics) {
  EXPECT_DOUBLE_EQ(Mean({}), 0.0);
  EXPECT_DOUBLE_EQ(Mean({2.0, 4.0}), 3.0);
  EXPECT_DOUBLE_EQ(StdDev({1.0}), 0.0);
  EXPECT_NEAR(StdDev({2.0, 4.0}), std::sqrt(2.0), 1e-12);
}

TEST(MedianTest, OddAndEven) {
  EXPECT_DOUBLE_EQ(Median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(Median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_DOUBLE_EQ(Median({5.0}), 5.0);
}

}  // namespace
}  // namespace stats
}  // namespace dpbr
