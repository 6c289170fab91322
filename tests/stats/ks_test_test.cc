#include "stats/ks_test.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "common/rng.h"
#include "stats/distributions.h"
#include "stats/kolmogorov.h"
#include "stats/ks_test_reference.h"

// Counts this thread's heap allocations, so a test can assert that a warm
// call allocates nothing. Replacing the global operator new/delete pair
// is legal C++; both forward to malloc/free.
namespace {
thread_local size_t t_heap_allocs = 0;
}  // namespace

// GCC flags free() on an operator-new pointer once both are inlined; in a
// replacement pair that forwards to malloc/free the match is exact.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(size_t size) {
  ++t_heap_allocs;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }
void operator delete[](void* p, size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace dpbr {
namespace stats {
namespace {

TEST(KsTestTest, HandComputedStatistic) {
  // Sample {0.1, 0.2, 0.3} against U(0,1) CDF F(x) = x:
  // D = max over i of max(i/3 - x_(i), x_(i) - (i-1)/3)
  //   i=1: max(1/3-0.1, 0.1-0)   = 0.2333...
  //   i=2: max(2/3-0.2, 0.2-1/3) = 0.4666...
  //   i=3: max(1-0.3, 0.3-2/3)   = 0.7
  KsResult r = KsTest({0.1, 0.2, 0.3}, [](double x) { return x; });
  EXPECT_NEAR(r.statistic, 0.7, 1e-12);
  EXPECT_EQ(r.n, 3u);
}

TEST(KsTestTest, PerfectFitHasHighPValue) {
  // Deterministic quantile sample: x_i = F^{-1}((i-0.5)/n) gives D = 1/(2n).
  const size_t kN = 100;
  std::vector<double> sample;
  for (size_t i = 0; i < kN; ++i) {
    sample.push_back(
        NormalQuantile((static_cast<double>(i) + 0.5) / kN));
  }
  KsResult r = KsTest(sample, [](double x) { return NormalCdf(x); });
  EXPECT_NEAR(r.statistic, 0.005, 1e-9);
  EXPECT_GT(r.p_value, 0.999);
}

TEST(KsTestGaussianTest, GaussianSamplePassesAtNominalRate) {
  // Draws from the null should be rejected ~5% of the time at α = 0.05.
  SplitRng rng(17);
  const int kTrials = 200;
  const size_t kN = 500;
  int rejections = 0;
  std::vector<float> buf(kN);
  for (int t = 0; t < kTrials; ++t) {
    rng.FillGaussian(buf.data(), kN, 2.5);
    KsResult r = KsTestGaussian(buf.data(), buf.size(), 2.5);
    if (r.p_value < 0.05) ++rejections;
  }
  // Binomial(200, 0.05): mean 10, std ≈ 3.1. Accept within ±5 std.
  EXPECT_LE(rejections, 26);
}

TEST(KsTestGaussianTest, WrongScaleIsRejected) {
  SplitRng rng(18);
  std::vector<float> buf(2000);
  rng.FillGaussian(buf.data(), buf.size(), 2.0);
  // Tested against a 30% smaller σ: decisively rejected.
  KsResult r = KsTestGaussian(buf.data(), buf.size(), 1.4);
  EXPECT_LT(r.p_value, 1e-6);
}

TEST(KsTestGaussianTest, UniformSampleIsRejected) {
  SplitRng rng(19);
  std::vector<float> buf(2000);
  for (auto& v : buf) v = static_cast<float>(rng.Uniform(-1.0, 1.0));
  KsResult r = KsTestGaussian(buf.data(), buf.size(), 1.0);
  EXPECT_LT(r.p_value, 1e-6);
}

TEST(KsTestGaussianTest, ShiftedMeanIsRejected) {
  SplitRng rng(20);
  std::vector<float> buf(2000);
  for (auto& v : buf) v = static_cast<float>(rng.Gaussian(0.3, 1.0));
  KsResult r = KsTestGaussian(buf.data(), buf.size(), 1.0);
  EXPECT_LT(r.p_value, 1e-4);
}

TEST(KsTestGaussianTest, ZeroVectorIsRejected) {
  std::vector<float> zeros(1000, 0.0f);
  KsResult r = KsTestGaussian(zeros.data(), zeros.size(), 1.0);
  // ECDF jumps 0→1 at 0 while Φ(0) = 0.5, so D = 0.5.
  EXPECT_NEAR(r.statistic, 0.5, 1e-6);
  EXPECT_LT(r.p_value, 1e-10);
}

// The comparison-sort KsTestGaussian that the radix sort replaced, kept
// as the bitwise reference: copy, sort, map every value through Φ, then
// scan D over all of them. `less` is std::sort's default for finite data.
template <typename Less = std::less<float>>
KsResult SortReferenceKsTestGaussian(const float* data, size_t n,
                                     double stddev, Less less = Less()) {
  std::vector<float> sorted(data, data + n);
  std::sort(sorted.begin(), sorted.end(), less);
  double inv_sigma = 1.0 / stddev;
  std::vector<double> u(n);
  for (size_t i = 0; i < n; ++i) {
    u[i] = NormalCdf(static_cast<double>(sorted[i]) * inv_sigma);
  }
  double d = 0.0;
  double inv_n = 1.0 / static_cast<double>(n);
  for (size_t i = 0; i < n; ++i) {
    double above = static_cast<double>(i + 1) * inv_n - u[i];
    double below = u[i] - static_cast<double>(i) * inv_n;
    if (above > d) d = above;
    if (below > d) d = below;
  }
  KsResult r;
  r.n = n;
  r.statistic = d;
  r.p_value = KsPValue(n, d);
  return r;
}

uint64_t Bits(double x) {
  uint64_t b;
  std::memcpy(&b, &x, sizeof(b));
  return b;
}

// Every row shape the bitwise test sweeps, built at exactly n floats.
std::vector<std::pair<std::string, std::vector<float>>> ReferenceRows(
    size_t n) {
  const float kInf = std::numeric_limits<float>::infinity();
  const float kDenorm = std::numeric_limits<float>::denorm_min();
  SplitRng rng(0x4B5, {n});
  std::vector<float> gauss(n);
  rng.FillGaussian(gauss.data(), n, 0.3);

  std::vector<std::pair<std::string, std::vector<float>>> rows;
  rows.emplace_back("gaussian", gauss);
  rows.emplace_back("all_equal", std::vector<float>(n, 0.25f));
  rows.emplace_back("all_neg_zero", std::vector<float>(n, -0.0f));
  std::vector<float> zeros = gauss;
  for (size_t i = 0; i < n; i += 3) zeros[i] = (i % 2 == 0) ? 0.0f : -0.0f;
  rows.emplace_back("mixed_signed_zeros", zeros);
  std::vector<float> denorm = gauss;
  for (size_t i = 0; i < n; i += 2) {
    float mag = kDenorm * static_cast<float>(1 + i % 1000);
    denorm[i] = (i % 4 == 0) ? mag : -mag;
  }
  rows.emplace_back("denormals", denorm);
  std::vector<float> inf = gauss;
  for (size_t i = 0; i < n; i += 5) inf[i] = (i % 2 == 0) ? kInf : -kInf;
  rows.emplace_back("infinities", inf);
  std::vector<float> dup(n);
  const float kLevels[] = {-0.6f, -0.3f, -0.0f, 0.0f, 0.3f, 0.6f};
  for (size_t i = 0; i < n; ++i) dup[i] = kLevels[(i * 7 + i / 3) % 6];
  rows.emplace_back("heavy_duplicates", dup);
  std::vector<float> ascending = gauss;
  std::sort(ascending.begin(), ascending.end());
  // Long runs of one value: D sits at the first or last index of a run,
  // in the middle of the sorted row.
  std::vector<float> runs = gauss;
  for (size_t i = 0; i < n; i += 8) runs[i] = 0.1f;
  for (size_t i = 3; i < n; i += 16) runs[i] = -0.2f;
  rows.emplace_back("tie_runs", runs);
  // Every term of D within rounding of every other: no range of the
  // scan can be skipped.
  std::vector<float> grid(n);
  for (size_t i = 0; i < n; ++i) {
    double p = (static_cast<double>(i) + 0.5) / static_cast<double>(n);
    grid[i] = static_cast<float>(0.3 * NormalQuantile(p));
  }
  rows.emplace_back("quantile_grid", grid);
  rows.emplace_back("sorted", ascending);
  rows.emplace_back("reverse_sorted",
                    std::vector<float>(ascending.rbegin(), ascending.rend()));
  return rows;
}

TEST(KsTestGaussianTest, BitwiseEqualToComparisonSortReference) {
  for (size_t n : {size_t{1}, size_t{2}, size_t{7}, size_t{2047},
                   size_t{2048}, size_t{2049}, size_t{21802},
                   size_t{25450}}) {
    for (const auto& [name, row] : ReferenceRows(n)) {
      ASSERT_EQ(row.size(), n);
      KsResult want = SortReferenceKsTestGaussian(row.data(), n, 0.3);
      KsResult got = KsTestGaussian(row.data(), n, 0.3);
      EXPECT_EQ(got.n, n);
      EXPECT_EQ(Bits(got.statistic), Bits(want.statistic))
          << name << " n=" << n << ": " << got.statistic << " vs "
          << want.statistic;
      EXPECT_EQ(Bits(got.p_value), Bits(want.p_value))
          << name << " n=" << n;
    }
  }
}

TEST(KsTestGaussianTest, SmallTiedRowsMatchReference) {
  // Short rows drawn from a handful of levels put D next to ties at
  // every position of the sorted row, where an off-by-one range bound
  // in the scan would skip the maximum.
  SplitRng rng(0x71E);
  const float kLevels[] = {-0.5f, -0.2f, -0.1f, 0.0f, 0.05f, 0.3f, 0.6f};
  for (int trial = 0; trial < 1000; ++trial) {
    size_t n = 2 + static_cast<size_t>(rng.Uniform() * 62);
    std::vector<float> row(n);
    for (float& v : row) v = kLevels[static_cast<size_t>(rng.Uniform() * 7)];
    KsResult want = SortReferenceKsTestGaussian(row.data(), n, 0.3);
    KsResult got = KsTestGaussian(row.data(), n, 0.3);
    ASSERT_EQ(Bits(got.statistic), Bits(want.statistic))
        << "trial " << trial << " n=" << n;
  }
}

// A strict total order on float bit patterns: −NaN < −inf < … < −0 < +0 <
// … < +inf < +NaN, under which std::sort is defined on NaN rows.
bool TotalOrderLess(float a, float b) {
  auto key = [](float x) {
    uint32_t bits;
    std::memcpy(&bits, &x, sizeof(bits));
    return (bits & 0x80000000u) ? ~bits : (bits | 0x80000000u);
  };
  return key(a) < key(b);
}

TEST(KsTestGaussianTest, NanRowsMatchTotalOrderReference) {
  // NaN terms never raise D; the scan must still find the maximum among
  // the finite values next to them.
  const float kNan = std::numeric_limits<float>::quiet_NaN();
  for (size_t n : {size_t{2}, size_t{7}, size_t{2049}, size_t{25450}}) {
    std::vector<float> row(n);
    SplitRng rng(0x4E4, {n});
    rng.FillGaussian(row.data(), n, 0.3);
    row[0] = kNan;
    row[n - 1] = -kNan;
    for (size_t i = 3; i < n; i += 97) row[i] = (i % 2 == 0) ? kNan : -kNan;
    KsResult want =
        SortReferenceKsTestGaussian(row.data(), n, 0.3, TotalOrderLess);
    KsResult got = KsTestGaussian(row.data(), n, 0.3);
    EXPECT_EQ(Bits(got.statistic), Bits(want.statistic)) << "n=" << n;
    EXPECT_EQ(Bits(got.p_value), Bits(want.p_value)) << "n=" << n;
  }
}

TEST(KsTestGaussianTest, WarmCallsDoNotAllocate) {
  std::vector<float> row(25450);  // d of the paper MLP
  SplitRng rng(24);
  rng.FillGaussian(row.data(), row.size(), 0.3);
  // The first call grows this thread's key buffers to the largest d.
  KsResult warm = KsTestGaussian(row.data(), row.size(), 0.3);
  size_t before = t_heap_allocs;
  KsResult again = KsTestGaussian(row.data(), row.size(), 0.3);
  KsResult smaller = KsTestGaussian(row.data(), 2410, 0.3);
  bool accepted = KsGaussianAccepts(row.data(), row.size(), 0.3, 0.05);
  EXPECT_EQ(t_heap_allocs, before);
  EXPECT_EQ(accepted, again.p_value >= 0.05);
  EXPECT_EQ(Bits(again.statistic), Bits(warm.statistic));
  EXPECT_GT(smaller.statistic, 0.0);
  // Control: the counter does see this thread's allocations.
  auto probe = std::make_unique<double>(1.0);
  EXPECT_EQ(t_heap_allocs, before + 1);
}

// --- KsGaussianAccepts: the verdict must be exactly the sorted test's.

bool ExactAccepts(const std::vector<float>& row, double stddev,
                  double alpha) {
  return KsTestGaussian(row.data(), row.size(), stddev).p_value >= alpha;
}

// The reference rows plus the shapes uploads take in a round and values
// the grid cannot hold, each at exactly n floats.
std::vector<std::pair<std::string, std::vector<float>>> VerdictRows(
    size_t n) {
  const float kNan = std::numeric_limits<float>::quiet_NaN();
  const float kMax = std::numeric_limits<float>::max();
  auto rows = ReferenceRows(n);
  std::vector<float> gauss = rows.front().second;
  SplitRng rng(0xACC, {n});
  std::vector<float> signal = gauss;
  for (float& v : signal) v += static_cast<float>(0.02 * rng.Uniform());
  rows.emplace_back("gaussian_plus_signal", signal);
  for (double scale : {0.97, 1.03}) {
    std::vector<float> scaled = gauss;
    for (float& v : scaled) v = static_cast<float>(v * scale);
    rows.emplace_back("scale_" + std::to_string(scale), scaled);
  }
  std::vector<float> shifted = gauss;
  for (float& v : shifted) v += 0.01f;
  rows.emplace_back("shift", shifted);
  // A sparse spike of ±σ on every 40th coordinate.
  std::vector<float> spike = gauss;
  for (size_t i = 0; i < n; i += 40) spike[i] = (i % 80 == 0) ? 0.3f : -0.3f;
  rows.emplace_back("sparse_spike", spike);
  // Finite values beyond the ±6σ grid, in both tail cells.
  std::vector<float> beyond = gauss;
  const float kFar[] = {1.9f, -1.9f, 30.0f, -30.0f, kMax, -kMax};
  for (size_t i = 0; i < n; i += 11) beyond[i] = kFar[(i / 11) % 6];
  rows.emplace_back("beyond_grid", beyond);
  std::vector<float> nan = gauss;
  nan[0] = kNan;
  for (size_t i = 2; i < n; i += 97) nan[i] = (i % 2 == 0) ? kNan : -kNan;
  rows.emplace_back("nan", nan);
  return rows;
}

TEST(KsGaussianAcceptsTest, EqualsSortedVerdictOnEveryRowKind) {
  for (size_t n : {size_t{1}, size_t{2}, size_t{140}, size_t{141},
                   size_t{2410}, size_t{21802}, size_t{25450}}) {
    for (const auto& [name, row] : VerdictRows(n)) {
      ASSERT_EQ(row.size(), n);
      for (double alpha : {0.01, 0.05, 0.5}) {
        EXPECT_EQ(KsGaussianAccepts(row.data(), n, 0.3, alpha),
                  ExactAccepts(row, 0.3, alpha))
            << name << " n=" << n << " alpha=" << alpha;
      }
    }
  }
}

TEST(KsGaussianAcceptsTest, EqualsSortedVerdictOnGaussianRows) {
  // Rows of the null and of near-null shapes, where most verdicts come
  // from the histogram bracket.
  for (size_t n : {size_t{2410}, size_t{21802}, size_t{25450}}) {
    std::vector<float> row(n);
    for (uint64_t t = 0; t < 40; ++t) {
      SplitRng rng(0x6A5, {n, t});
      double sigma = (t % 3 == 0) ? 0.3 : 0.3 * (0.98 + 0.01 * (t % 5));
      rng.FillGaussian(row.data(), n, sigma);
      if (t % 4 == 1) {
        for (float& v : row) v += 0.004f;
      }
      EXPECT_EQ(KsGaussianAccepts(row.data(), n, 0.3, 0.05),
                ExactAccepts(row, 0.3, 0.05))
          << "n=" << n << " trial " << t;
    }
  }
}

TEST(KsGaussianAcceptsTest, EqualsSortedVerdictWhereDStraddlesCritical) {
  // Bisect a mean shift until the sorted test's p-value sits on both
  // sides of alpha within rounding: there the bracket cannot decide, so
  // the accepting and the rejecting row each take the exact path.
  const double kAlpha = 0.05;
  for (size_t n : {size_t{2410}, size_t{21802}, size_t{25450}}) {
    std::vector<float> base(n);
    SplitRng rng(0x57D, {n});
    rng.FillGaussian(base.data(), n, 0.3);
    std::vector<float> row(n);
    auto shifted = [&](double mu) -> const std::vector<float>& {
      for (size_t i = 0; i < n; ++i) {
        row[i] = static_cast<float>(base[i] + mu);
      }
      return row;
    };
    double accept_mu = 0.0;
    double reject_mu = 0.1;
    ASSERT_TRUE(ExactAccepts(shifted(accept_mu), 0.3, kAlpha)) << n;
    ASSERT_FALSE(ExactAccepts(shifted(reject_mu), 0.3, kAlpha)) << n;
    for (int it = 0; it < 60; ++it) {
      double mid = 0.5 * (accept_mu + reject_mu);
      if (ExactAccepts(shifted(mid), 0.3, kAlpha)) {
        accept_mu = mid;
      } else {
        reject_mu = mid;
      }
    }
    for (double mu : {accept_mu, reject_mu}) {
      shifted(mu);
      double p = KsTestGaussian(row.data(), n, 0.3).p_value;
      EXPECT_NEAR(p, kAlpha, 1e-6) << "n=" << n;
      EXPECT_EQ(KsGaussianAccepts(row.data(), n, 0.3, kAlpha), p >= kAlpha)
          << "n=" << n << " mu=" << mu;
    }
  }
}

class KsSigmaSweepTest : public ::testing::TestWithParam<double> {};

TEST_P(KsSigmaSweepTest, NullSamplesPass) {
  double sigma = GetParam();
  SplitRng rng(21 + static_cast<uint64_t>(sigma * 1000));
  std::vector<float> buf(2410);  // d of the default experiment MLP
  rng.FillGaussian(buf.data(), buf.size(), sigma);
  KsResult r = KsTestGaussian(buf.data(), buf.size(), sigma);
  EXPECT_GT(r.p_value, 0.001) << "sigma=" << sigma;
}

INSTANTIATE_TEST_SUITE_P(Sigmas, KsSigmaSweepTest,
                         ::testing::Values(0.01, 0.1, 0.29, 1.0, 4.4, 19.0));

}  // namespace
}  // namespace stats
}  // namespace dpbr
