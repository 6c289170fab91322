#include "core/first_stage.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "stats/distributions.h"
#include "stats/ks_test.h"
#include "tensor/ops.h"

namespace dpbr {
namespace core {
namespace {

constexpr size_t kDim = 2410;  // d of the default experiment MLP
constexpr double kSigmaUp = 0.3;

std::vector<float> HonestLikeUpload(uint64_t seed, double signal = 0.05) {
  // g = g̃ + z with ‖z‖ ≫ ‖g̃‖, as the DP protocol produces.
  SplitRng rng(seed);
  std::vector<float> u(kDim);
  rng.FillGaussian(u.data(), kDim, kSigmaUp);
  std::vector<float> dir(kDim);
  rng.FillGaussian(dir.data(), kDim, 1.0);
  ops::NormalizeInPlace(dir.data(), kDim);
  ops::Axpy(static_cast<float>(signal), dir.data(), u.data(), kDim);
  return u;
}

TEST(NormWindowTest, MatchesPaperFormula) {
  FirstStageFilter f{ProtocolOptions{}};
  auto [lo, hi] = f.NormWindow(kDim, kSigmaUp);
  double s2 = kSigmaUp * kSigmaUp;
  double d = static_cast<double>(kDim);
  EXPECT_NEAR(lo, s2 * d - 3.0 * s2 * std::sqrt(2.0 * d), 1e-9);
  EXPECT_NEAR(hi, s2 * d + 3.0 * s2 * std::sqrt(2.0 * d), 1e-9);
  EXPECT_GT(lo, 0.0);
}

TEST(FirstStageTest, HonestUploadsPass) {
  FirstStageFilter f{ProtocolOptions{}};
  int accepted = 0;
  const int kTrials = 100;
  for (int t = 0; t < kTrials; ++t) {
    std::vector<float> u = HonestLikeUpload(1000 + t);
    if (f.Test(u.data(), u.size(), kSigmaUp) ==
        FirstStageVerdict::kAccepted) {
      ++accepted;
    }
  }
  // Norm test: 99.7% band; KS at 5% significance; small signal shifts are
  // negligible at d = 2410 → expect ≥ 85% joint acceptance.
  EXPECT_GE(accepted, 85);
}

TEST(FirstStageTest, PureNoiseUploadsPassAtNominalRate) {
  // The KS test's own rate over every row: the filter skips KS on rows
  // the norm test rejects, so the test is called directly.
  int rejected_ks = 0;
  const int kTrials = 200;
  for (int t = 0; t < kTrials; ++t) {
    std::vector<float> u(kDim);
    SplitRng rng(5000 + t);
    rng.FillGaussian(u.data(), kDim, kSigmaUp);
    if (stats::KsTestGaussian(u.data(), u.size(), kSigmaUp).p_value <
        kKsSignificance) {
      ++rejected_ks;
    }
  }
  // KS false-rejection ≈ 5%: generous 3-sigma bound.
  EXPECT_LE(rejected_ks, 22);
}

TEST(FirstStageTest, WrongScaleFailsNormTest) {
  FirstStageFilter f{ProtocolOptions{}};
  std::vector<float> u(kDim);
  SplitRng rng(1);
  rng.FillGaussian(u.data(), kDim, 2.0 * kSigmaUp);  // 2x too loud
  EXPECT_EQ(f.Test(u.data(), u.size(), kSigmaUp),
            FirstStageVerdict::kRejectedNorm);
  rng.FillGaussian(u.data(), kDim, 0.5 * kSigmaUp);  // 2x too quiet
  EXPECT_EQ(f.Test(u.data(), u.size(), kSigmaUp),
            FirstStageVerdict::kRejectedNorm);
}

TEST(FirstStageTest, NormCamouflagedNonGaussianFailsKs) {
  // A ±c "Rademacher" vector with exactly the right norm passes the norm
  // test but has the wrong shape: KS kills it.
  FirstStageFilter f{ProtocolOptions{}};
  double c = kSigmaUp;  // per-coordinate magnitude → ‖u‖² = σ²d exactly
  std::vector<float> u(kDim);
  SplitRng rng(2);
  for (auto& v : u) {
    v = static_cast<float>(rng.Uniform() < 0.5 ? c : -c);
  }
  EXPECT_EQ(f.Test(u.data(), u.size(), kSigmaUp),
            FirstStageVerdict::kRejectedKs);
}

TEST(FirstStageTest, ZeroUploadRejected) {
  FirstStageFilter f{ProtocolOptions{}};
  std::vector<float> zeros(kDim, 0.0f);
  EXPECT_EQ(f.Test(zeros.data(), zeros.size(), kSigmaUp),
            FirstStageVerdict::kRejectedNorm);
}

TEST(FirstStageTest, LargeOutlierCoordinateFailsKs) {
  // A benign-looking vector with a handful of huge coordinates (a sparse
  // poisoning attempt) keeps its norm near legal but fails KS... or the
  // norm window. Either way it must be rejected.
  FirstStageFilter f{ProtocolOptions{}};
  std::vector<float> u(kDim);
  SplitRng rng(3);
  rng.FillGaussian(u.data(), kDim, kSigmaUp * 0.9);
  for (size_t i = 0; i < 5; ++i) {
    u[i] = static_cast<float>(kSigmaUp * std::sqrt(kDim / 10.0));
  }
  EXPECT_NE(f.Test(u.data(), u.size(), kSigmaUp),
            FirstStageVerdict::kAccepted);
}

TEST(FirstStageTest, NormVerdictAtWindowEdgesMatchesSequentialSum) {
  // Rows whose sequential ‖g‖² (ops::SquaredNorm, which the verdict is
  // defined on) lands within a few ulps of lo and of hi: the filter's
  // faster sum must give the same norm verdict on each. The last two
  // coordinates tune the sum: a moderate one brings the partial sum
  // about r below the edge, then each float step of a small last one
  // (b² ≈ r) moves the total by about a quarter ulp of the edge.
  FirstStageFilter f{ProtocolOptions{}};
  for (size_t d : {kDim, size_t{25450}}) {
    auto [lo, hi] = f.NormWindow(d, kSigmaUp);
    for (double edge : {lo, hi}) {
      const double ulp = edge - std::nextafter(edge, 0.0);
      const double r = edge * 0x1p-31;
      std::vector<float> row(d);
      SplitRng rng(0xED6E, {d});
      rng.FillGaussian(row.data(), d - 2, kSigmaUp);
      double target = edge - kSigmaUp * kSigmaUp;
      float scale = static_cast<float>(
          std::sqrt(target / ops::SquaredNorm(row.data(), d - 2)));
      for (size_t i = 0; i + 2 < d; ++i) row[i] *= scale;
      double partial = ops::SquaredNorm(row.data(), d - 2);
      ASSERT_LT(partial, edge - 1e-3);
      float a = static_cast<float>(std::sqrt(edge - r - partial));
      auto with_a = [&] {
        double ad = a;
        return partial + ad * ad;
      };
      while (with_a() > edge - 0.5 * r) a = std::nextafter(a, 0.0f);
      while (with_a() < edge - 1.5 * r) a = std::nextafter(a, 1.0f);
      row[d - 2] = a;
      float b0 = static_cast<float>(std::sqrt(edge - with_a()));
      int inside = 0;
      int outside = 0;
      for (int k = -64; k <= 64; ++k) {
        float b = b0;
        for (int j = 0; j < std::abs(k); ++j) {
          b = std::nextafter(b, k < 0 ? 0.0f : 1.0f);
        }
        row[d - 1] = b;
        double sq = ops::SquaredNorm(row.data(), d);
        ASSERT_LT(std::abs(sq - edge), 64 * ulp);
        bool in_window = sq >= lo && sq <= hi;
        ++(in_window ? inside : outside);
        EXPECT_EQ(f.Test(row.data(), d, kSigmaUp) !=
                      FirstStageVerdict::kRejectedNorm,
                  in_window)
            << "d=" << d << " edge=" << edge << " k=" << k;
      }
      // The sweep crosses the edge.
      EXPECT_GT(inside, 0) << "d=" << d << " edge=" << edge;
      EXPECT_GT(outside, 0) << "d=" << d << " edge=" << edge;
    }
  }
}

TEST(FirstStageTest, ApplyZeroesRejectsAndReports) {
  FirstStageFilter f{ProtocolOptions{}};
  // Row 1 stays all-zero: rejected by norm.
  std::vector<float> block(3 * kDim, 0.0f);
  RowSpan uploads(block.data(), 3, kDim);
  std::vector<float> honest = HonestLikeUpload(11);
  std::copy(honest.begin(), honest.end(), uploads.Row(0));
  SplitRng rng(4);
  rng.FillGaussian(uploads.Row(2), kDim, 3.0 * kSigmaUp);

  FirstStageReport report;
  auto verdicts = f.Apply(uploads, kSigmaUp, &report);
  ASSERT_EQ(verdicts.size(), 3u);
  EXPECT_EQ(verdicts[0], FirstStageVerdict::kAccepted);
  EXPECT_EQ(verdicts[1], FirstStageVerdict::kRejectedNorm);
  EXPECT_EQ(verdicts[2], FirstStageVerdict::kRejectedNorm);
  EXPECT_EQ(report.total, 3u);
  EXPECT_EQ(report.accepted, 1u);
  EXPECT_EQ(report.rejected_norm, 2u);
  // Rejected uploads are zeroed in place (Algorithm 2's g ← 0).
  EXPECT_EQ(ops::Norm(uploads.Row(1), kDim), 0.0);
  EXPECT_EQ(ops::Norm(uploads.Row(2), kDim), 0.0);
  EXPECT_GT(ops::Norm(uploads.Row(0), kDim), 0.0);
}

TEST(FirstStageTest, ApplyRejectsAndZeroesNonFiniteRows) {
  // Rows reach the filter here without Server::Step's non-finite
  // sanitize pass: the filter alone must reject and zero them.
  FirstStageFilter f{ProtocolOptions{}};
  const float kNan = std::numeric_limits<float>::quiet_NaN();
  const float kInf = std::numeric_limits<float>::infinity();
  const size_t kRows = 6;
  std::vector<float> honest = HonestLikeUpload(11);
  std::vector<float> block(kRows * kDim);
  RowSpan uploads(block.data(), kRows, kDim);
  for (size_t r = 0; r < kRows; ++r) {
    std::copy(honest.begin(), honest.end(), uploads.Row(r));
  }
  uploads.Row(0)[17] = kNan;
  uploads.Row(1)[0] = kInf;
  uploads.Row(2)[kDim - 1] = -kInf;
  uploads.Row(3)[5] = -kNan;  // sign bit set: sorts below -inf
  std::fill(uploads.Row(4), uploads.Row(4) + kDim, kNan);
  // Row 5 stays the clean honest upload (the control).

  FirstStageReport report;
  auto verdicts = f.Apply(uploads, kSigmaUp, &report);
  ASSERT_EQ(verdicts.size(), kRows);
  for (size_t r = 0; r + 1 < kRows; ++r) {
    EXPECT_EQ(verdicts[r], FirstStageVerdict::kRejectedNorm) << "row " << r;
    for (size_t j = 0; j < kDim; ++j) {
      ASSERT_EQ(uploads.Row(r)[j], 0.0f) << "row " << r << " coord " << j;
    }
  }
  EXPECT_EQ(verdicts[kRows - 1], FirstStageVerdict::kAccepted);
  EXPECT_TRUE(std::equal(honest.begin(), honest.end(),
                         uploads.Row(kRows - 1)));
  EXPECT_EQ(report.total, kRows);
  EXPECT_EQ(report.accepted, 1u);
}

// Two-sided (1 - alpha) acceptance interval [lo, hi] on the count X of
// Binomial(n, p): Pr(X < lo) <= alpha/2 and Pr(X > hi) <= alpha/2.
std::pair<size_t, size_t> BinomialInterval(size_t n, double p,
                                           double alpha) {
  std::vector<double> pmf(n + 1);
  for (size_t k = 0; k <= n; ++k) {
    double kd = static_cast<double>(k);
    double nd = static_cast<double>(n);
    pmf[k] = std::exp(std::lgamma(nd + 1) - std::lgamma(kd + 1) -
                      std::lgamma(nd - kd + 1) + kd * std::log(p) +
                      (nd - kd) * std::log1p(-p));
  }
  size_t lo = 0;
  for (double tail = 0.0; lo <= n && tail + pmf[lo] <= alpha / 2; ++lo) {
    tail += pmf[lo];
  }
  size_t hi = n;
  for (double tail = 0.0; hi > 0 && tail + pmf[hi] <= alpha / 2; --hi) {
    tail += pmf[hi];
  }
  return {lo, hi};
}

TEST(FirstStageConformanceTest, NullRowsRejectAtNominalRates) {
  // Algorithm 2's promise, measured: uploads drawn from the KS null
  // N(0, σ_up²) fail the KS test at the configured significance and the
  // ±3σ chi-squared norm window at 2(1 − Φ(3)). Rows go through Apply in
  // arena-sized batches, as the round runs them; Apply skips KS on rows
  // the norm test rejects, so the KS tally calls the test directly on
  // every row first.
  FirstStageFilter f{ProtocolOptions{}};
  const size_t kBatches = 8;
  const size_t kBatchRows = 500;
  const size_t kRows = kBatches * kBatchRows;
  std::vector<float> block(kBatchRows * kDim);
  size_t ks_rejected = 0;
  size_t norm_rejected = 0;
  for (size_t b = 0; b < kBatches; ++b) {
    SplitRng rng(0xC0F, {b});
    rng.FillGaussian(block.data(), block.size(), kSigmaUp);
    for (size_t r = 0; r < kBatchRows; ++r) {
      if (stats::KsTestGaussian(block.data() + r * kDim, kDim, kSigmaUp)
              .p_value < kKsSignificance) {
        ++ks_rejected;
      }
    }
    auto verdicts =
        f.Apply(RowSpan(block.data(), kBatchRows, kDim), kSigmaUp);
    for (FirstStageVerdict v : verdicts) {
      if (v == FirstStageVerdict::kRejectedNorm) ++norm_rejected;
    }
  }
  auto [ks_lo, ks_hi] =
      BinomialInterval(kRows, kKsSignificance, 0.01);
  EXPECT_GE(ks_rejected, ks_lo);
  EXPECT_LE(ks_rejected, ks_hi);
  double norm_rate = 2.0 * (1.0 - stats::NormalCdf(3.0));
  auto [norm_lo, norm_hi] = BinomialInterval(kRows, norm_rate, 0.01);
  EXPECT_GE(norm_rejected, norm_lo);
  EXPECT_LE(norm_rejected, norm_hi);
}

TEST(EnvelopeTest, IntervalsAreOrderedAndContainGaussianQuantiles) {
  FirstStageFilter f{ProtocolOptions{}};
  const size_t d = 1000;
  double d_ks = f.KsStatisticBound(d);
  EXPECT_GT(d_ks, 0.0);
  EXPECT_LT(d_ks, 0.1);
  for (size_t k : {size_t{1}, size_t{100}, size_t{500}, size_t{999},
                   size_t{1000}}) {
    auto [lo, hi] = FirstStageFilter::EnvelopeInterval(k, d, d_ks, kSigmaUp);
    EXPECT_LT(lo, hi) << "k=" << k;
    // Theorem 2: the k-th Gaussian order statistic's typical location
    // σΦ⁻¹((k-1/2)/d) lies inside the envelope.
    double typical =
        kSigmaUp * stats::NormalQuantile((static_cast<double>(k) - 0.5) / d);
    EXPECT_GE(typical, lo) << "k=" << k;
    EXPECT_LE(typical, hi) << "k=" << k;
  }
}

TEST(EnvelopeTest, TailsAreUnbounded) {
  const size_t d = 1000;
  double d_ks = 0.05;
  auto [lo1, hi1] = FirstStageFilter::EnvelopeInterval(1, d, d_ks, 1.0);
  EXPECT_TRUE(std::isinf(lo1));
  EXPECT_LT(lo1, 0.0);  // -inf: smallest coordinate may be arbitrarily low
  auto [lod, hid] = FirstStageFilter::EnvelopeInterval(d, d, d_ks, 1.0);
  EXPECT_TRUE(std::isinf(hid));
  EXPECT_GT(hid, 0.0);
  (void)hi1;
  (void)lod;
}

TEST(EnvelopeTest, SortedCoordinatesOfPassingUploadRespectEnvelope) {
  // Property (Theorem 2): every upload accepted by the KS test has its
  // k-th sorted coordinate inside EnvelopeInterval(k).
  FirstStageFilter f{ProtocolOptions{}};
  const size_t d = 500;
  double d_ks = f.KsStatisticBound(d);
  std::vector<float> u(d);
  SplitRng rng(6);
  rng.FillGaussian(u.data(), d, 1.0);
  if (stats::KsTestGaussian(u.data(), d, 1.0).p_value >= kKsSignificance) {
    std::sort(u.begin(), u.end());
    for (size_t k = 1; k <= d; ++k) {
      auto [lo, hi] = FirstStageFilter::EnvelopeInterval(k, d, d_ks, 1.0);
      EXPECT_GE(u[k - 1], lo - 1e-6) << "k=" << k;
      EXPECT_LE(u[k - 1], hi + 1e-6) << "k=" << k;
    }
  }
}

TEST(FirstStageTest, OptionValidation) {
  ProtocolOptions bad;
  bad.enable_first_stage = false;
  bad.enable_second_stage = false;
  EXPECT_FALSE(ValidateProtocolOptions(bad).ok());
}

}  // namespace
}  // namespace core
}  // namespace dpbr
