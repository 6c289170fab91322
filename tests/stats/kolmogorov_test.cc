#include "stats/kolmogorov.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

namespace dpbr {
namespace stats {
namespace {

TEST(KolmogorovExactTest, NEqualsOneClosedForm) {
  // For n = 1, D₁ = max(U, 1-U): CDF(d) = 2d - 1 on [1/2, 1].
  EXPECT_NEAR(KolmogorovCdfExact(1, 0.5), 0.0, 1e-10);
  EXPECT_NEAR(KolmogorovCdfExact(1, 0.75), 0.5, 1e-10);
  EXPECT_NEAR(KolmogorovCdfExact(1, 0.9), 0.8, 1e-10);
  EXPECT_NEAR(KolmogorovCdfExact(1, 1.0), 1.0, 1e-10);
}

TEST(KolmogorovExactTest, DegenerateEnds) {
  EXPECT_DOUBLE_EQ(KolmogorovCdfExact(10, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(KolmogorovCdfExact(10, 1.0), 1.0);
}

TEST(KolmogorovExactTest, MonotoneInD) {
  double prev = 0.0;
  for (double d = 0.05; d < 1.0; d += 0.05) {
    double c = KolmogorovCdfExact(30, d);
    EXPECT_GE(c, prev - 1e-12);
    EXPECT_GE(c, 0.0);
    EXPECT_LE(c, 1.0);
    prev = c;
  }
}

TEST(KolmogorovExactTest, AgreesWithAsymptoticAtModerateN) {
  // Cross-validation of the two independent implementations: at n = 100
  // the Stephens-corrected asymptotic tracks the exact matrix evaluation
  // to ~1% in the body of the distribution and much tighter in the tail.
  for (double d : {0.08, 0.12, 0.2, 0.274}) {
    double exact = KolmogorovCdfExact(100, d);
    double lambda = (10.0 + 0.12 + 0.011) * d;
    double asym = KolmogorovAsymptoticCdf(lambda);
    EXPECT_NEAR(exact, asym, 0.012) << "d=" << d;
  }
}

TEST(KolmogorovAsymptoticTest, KnownValues) {
  // Classical asymptotic critical values: K(1.3581) ≈ 0.95, K(1.6276) ≈ 0.99.
  EXPECT_NEAR(KolmogorovAsymptoticCdf(1.3581), 0.95, 2e-3);
  EXPECT_NEAR(KolmogorovAsymptoticCdf(1.6276), 0.99, 2e-3);
  // Median of the Kolmogorov distribution ≈ 0.82757.
  EXPECT_NEAR(KolmogorovAsymptoticCdf(0.82757), 0.5, 2e-3);
}

TEST(KolmogorovAsymptoticTest, ThetaBranchMatchesAlternatingSeries) {
  // λ = 1.0 routes through the theta-function branch; the alternating
  // series computed inline is the independent reference. The Jacobi theta
  // identity makes them equal to machine precision.
  double lambda = 1.0;
  double s = 0.0;
  for (int k = 1; k <= 100; ++k) {
    s += (k % 2 == 1 ? 1.0 : -1.0) * std::exp(-2.0 * k * k * lambda * lambda);
  }
  double reference = 1.0 - 2.0 * s;
  EXPECT_NEAR(KolmogorovAsymptoticCdf(lambda), reference, 1e-12);
}

TEST(KolmogorovAsymptoticTest, Extremes) {
  EXPECT_DOUBLE_EQ(KolmogorovAsymptoticCdf(0.0), 0.0);
  EXPECT_NEAR(KolmogorovAsymptoticCdf(0.05), 0.0, 1e-12);
  EXPECT_NEAR(KolmogorovAsymptoticCdf(5.0), 1.0, 1e-12);
}

TEST(KsPValueTest, ExactAndAsymptoticConsistent) {
  // Near the exact/asymptotic switchover (n = 140), both methods should
  // agree to ~1e-2.
  for (double d : {0.06, 0.09, 0.12, 0.2}) {
    double exact = 1.0 - KolmogorovCdfExact(140, d);
    double p = KsPValue(141, d);  // asymptotic branch
    EXPECT_NEAR(exact, p, 0.015) << "d=" << d;
  }
}

TEST(KsPValueTest, MonotoneDecreasingInD) {
  double prev = 1.0;
  for (double d = 0.01; d < 0.5; d += 0.01) {
    double p = KsPValue(500, d);
    EXPECT_LE(p, prev + 1e-12);
    prev = p;
  }
}

TEST(KsPValueTest, NonIncreasingAroundCriticalValue) {
  // KsGaussianAccepts decides from p-values at bounds on D, which is
  // sound only if the p-value does not rise with D: pinned on a fine
  // grid across ±20% of the 5% critical value, and at the scale of
  // rounding right at it (where any rise must stay far below the
  // decision margin of 1e-9).
  for (size_t n : {size_t{141}, size_t{2410}, size_t{21802}, size_t{25450}}) {
    double crit = KsCriticalValue(n, 0.05);
    double prev = KsPValue(n, 0.8 * crit);
    const int kSteps = 4000;
    for (int k = 1; k <= kSteps; ++k) {
      double d = crit * (0.8 + 0.4 * k / kSteps);
      double p = KsPValue(n, d);
      ASSERT_LE(p, prev) << "n=" << n << " d=" << d;
      prev = p;
    }
    double d = crit * (1.0 - 1e-9);
    prev = KsPValue(n, d);
    for (int k = 0; k < 2000; ++k) {
      d = std::nextafter(d, 1.0);
      double p = KsPValue(n, d);
      ASSERT_LE(p, prev + 1e-15) << "n=" << n << " d=" << d;
      prev = std::min(prev, p);
    }
  }
}

class KsCriticalValueTest : public ::testing::TestWithParam<size_t> {};

TEST_P(KsCriticalValueTest, MatchesClassicalApproximation) {
  // D_crit(α=0.05, n) ≈ 1.358/√n for large n.
  size_t n = GetParam();
  double crit = KsCriticalValue(n, 0.05);
  double approx = 1.358 / std::sqrt(static_cast<double>(n));
  EXPECT_NEAR(crit, approx, 0.12 * approx) << "n=" << n;
  // Round trip: p-value at the critical value equals alpha.
  EXPECT_NEAR(KsPValue(n, crit), 0.05, 1e-3);
}

INSTANTIATE_TEST_SUITE_P(SampleSizes, KsCriticalValueTest,
                         ::testing::Values(50, 200, 1000, 2410, 25450));

}  // namespace
}  // namespace stats
}  // namespace dpbr
