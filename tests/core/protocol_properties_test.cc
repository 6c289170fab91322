// Parameterized property sweeps over the protocol's statistical claims.
//
// These are the load-bearing invariants of the paper: for any (d, σ_up)
// regime the protocol might run in, (a) honest-protocol uploads pass the
// first stage with high probability, (b) scaled/misshapen uploads are
// rejected, and (c) second-stage selection size follows ⌈γn⌉ exactly.

#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "common/rng.h"
#include "core/dpbr_aggregator.h"
#include "core/first_stage.h"
#include "core/second_stage.h"
#include "fl/upload.h"
#include "stats/ks_test.h"
#include "tensor/ops.h"

namespace dpbr {
namespace core {
namespace {

// (dimension d, per-coordinate upload noise std σ_up). Spans the paper's
// models (d = 21802, 25450) and this reproduction's default (d = 2410)
// across strict and loose privacy levels.
using Regime = std::tuple<size_t, double>;

// Fresh RNG stream per check so parameterized instances are independent.
thread_local uint64_t split_seed_ = 31337;

class FirstStageRegimeTest : public ::testing::TestWithParam<Regime> {};

TEST_P(FirstStageRegimeTest, HonestProtocolUploadsAccepted) {
  auto [d, sigma_up] = GetParam();
  FirstStageFilter filter{ProtocolOptions{}};
  // Honest upload: dominant noise + bounded normalized-gradient part of
  // norm <= 1 (after the /bc average), here at the worst case 1.
  SplitRng rng(split_seed_++);
  int accepted = 0;
  const int kTrials = 40;
  for (int t = 0; t < kTrials; ++t) {
    std::vector<float> u(d);
    SplitRng trial = rng.Split(t);
    trial.FillGaussian(u.data(), d, sigma_up);
    std::vector<float> dir(d);
    trial.FillGaussian(dir.data(), d, 1.0);
    ops::NormalizeInPlace(dir.data(), d);
    ops::Axpy(1.0f, dir.data(), u.data(), d);  // ‖g̃‖ = 1
    if (filter.Test(u.data(), d, sigma_up) == FirstStageVerdict::kAccepted) {
      ++accepted;
    }
  }
  // With ‖z‖ = σ_up·√d ≫ 1 the signal must not break the tests: expect
  // near-nominal acceptance (norm 99.7% ∧ KS 95% ≈ 94.7%).
  EXPECT_GE(accepted, 30) << "d=" << d << " sigma_up=" << sigma_up;
}

TEST_P(FirstStageRegimeTest, ScaledUploadsRejected) {
  auto [d, sigma_up] = GetParam();
  FirstStageFilter filter{ProtocolOptions{}};
  for (double scale : {0.7, 1.4}) {
    std::vector<float> u(d);
    SplitRng rng(split_seed_++);
    rng.FillGaussian(u.data(), d, scale * sigma_up);
    EXPECT_EQ(filter.Test(u.data(), d, sigma_up),
              FirstStageVerdict::kRejectedNorm)
        << "d=" << d << " sigma_up=" << sigma_up << " scale=" << scale;
  }
}

TEST_P(FirstStageRegimeTest, UniformShapeRejectedByKs) {
  auto [d, sigma_up] = GetParam();
  // Uniform on [-√3σ, √3σ] matches the Gaussian's variance (and thus the
  // norm window in expectation) but not its shape. The KS test is called
  // directly: the filter runs it only on rows inside the norm window.
  std::vector<float> u(d);
  SplitRng rng(split_seed_++);
  double half_width = std::sqrt(3.0) * sigma_up;
  for (auto& v : u) {
    v = static_cast<float>(rng.Uniform(-half_width, half_width));
  }
  EXPECT_LT(stats::KsTestGaussian(u.data(), d, sigma_up).p_value,
            kKsSignificance)
      << "d=" << d << " sigma_up=" << sigma_up;
}

INSTANTIATE_TEST_SUITE_P(
    Regimes, FirstStageRegimeTest,
    ::testing::Values(Regime{2410, 0.1}, Regime{2410, 0.3},
                      Regime{2410, 1.2}, Regime{21802, 0.3},
                      Regime{25450, 0.08}, Regime{25450, 2.4}),
    [](const ::testing::TestParamInfo<Regime>& info) {
      return "d" + std::to_string(std::get<0>(info.param)) + "_sigma" +
             std::to_string(
                 static_cast<int>(std::get<1>(info.param) * 100));
    });

// Per-test-case RNG offset so parameterized instances use fresh streams.
class SecondStageSelectionSizeTest
    : public ::testing::TestWithParam<std::tuple<size_t, double>> {};

TEST_P(SecondStageSelectionSizeTest, AlwaysExactlyCeilGammaN) {
  auto [n, gamma] = GetParam();
  SecondStageAggregator stage;
  SplitRng rng(4242);
  fl::UploadArena uploads;
  uploads.Reset(n, 64);
  for (size_t i = 0; i < n; ++i) {
    SplitRng w = rng.Split(i);
    w.FillGaussian(uploads.Row(i), 64, 1.0);
  }
  std::vector<float> server_grad(64, 0.5f);
  for (int round = 0; round < 3; ++round) {
    auto sel = stage.SelectWorkers(uploads.cspan(), server_grad, gamma);
    ASSERT_TRUE(sel.ok());
    size_t expected = std::max<size_t>(
        1, static_cast<size_t>(
               std::ceil(gamma * static_cast<double>(n))));
    expected = std::min(expected, n);
    EXPECT_EQ(sel.value().size(), expected);
    // Selection indices are valid, sorted and unique.
    for (size_t i = 1; i < sel.value().size(); ++i) {
      EXPECT_LT(sel.value()[i - 1], sel.value()[i]);
    }
    EXPECT_LT(sel.value().back(), n);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Populations, SecondStageSelectionSizeTest,
    ::testing::Combine(::testing::Values(size_t{3}, size_t{10}, size_t{50},
                                         size_t{200}),
                       ::testing::Values(0.1, 0.4, 0.5, 0.9)));

// The bounded-impact property of §4.7: even when a Byzantine upload IS
// selected, its contribution passed the first stage, so the aggregate's
// norm cannot exceed the honest noise scale by more than the window slack.
TEST(BoundedImpactTest, AggregateNormBoundedByNoiseBudget) {
  const size_t kDim = 2000;
  const double kSigmaUp = 0.3;
  SplitRng rng(99);
  fl::UploadArena uploads;
  uploads.Reset(20, kDim);
  for (size_t i = 0; i < 10; ++i) {
    SplitRng w = rng.Split(i);
    w.FillGaussian(uploads.Row(i), kDim, kSigmaUp);
  }
  // Worst-case admissible Byzantine uploads: exactly at the norm window's
  // upper edge with a Gaussian shape (these pass both tests).
  FirstStageFilter filter{ProtocolOptions{}};
  auto [lo, hi] = filter.NormWindow(kDim, kSigmaUp);
  for (size_t b = 0; b < 10; ++b) {
    float* u = uploads.Row(10 + b);
    SplitRng w = rng.Split(100 + b);
    w.FillGaussian(u, kDim, kSigmaUp);
    double scale = std::sqrt(hi * 0.999) / ops::Norm(u, kDim);
    ops::Scale(static_cast<float>(scale), u, kDim);
  }
  std::vector<float> server_grad(kDim, 0.01f);
  agg::AggregationContext ctx;
  ctx.dim = kDim;
  ctx.sigma_upload = kSigmaUp;
  ctx.gamma = 0.5;
  ctx.server_gradient = &server_grad;
  DpbrAggregator aggregator;
  auto out = aggregator.Aggregate(uploads.span(), ctx);
  ASSERT_TRUE(out.ok());
  // Mean of <= ⌈γn⌉ window-bounded vectors: ‖·‖ <= √hi.
  EXPECT_LE(ops::Norm(out.value()), std::sqrt(hi) + 1e-3);
}

}  // namespace
}  // namespace core
}  // namespace dpbr
