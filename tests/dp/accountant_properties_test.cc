// Parameterized sweeps over the accountant across the paper's entire
// privacy grid: every (dataset scale, ε) cell used in the evaluation must
// calibrate successfully and respect the analytic orderings.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <tuple>
#include <vector>

#include "dp/privacy_params.h"
#include "dp/rdp_accountant.h"

namespace dpbr {
namespace dp {
namespace {

// Under the `quick` CTest tier (DPBR_TEST_TIER=quick) the grid shrinks
// to its corner cells; the `full` tier (and a plain run) sweeps the
// paper's whole cross product.
bool QuickTier() {
  const char* tier = std::getenv("DPBR_TEST_TIER");
  return tier != nullptr && std::strcmp(tier, "quick") == 0;
}

std::vector<int> DatasetSizes() {
  if (QuickTier()) return {1000};
  return {800, 1000, 3000};
}

std::vector<double> Epsilons() {
  if (QuickTier()) return {0.125, 2.0};
  return {0.125, 0.25, 0.5, 1.0, 2.0};
}

// (per-worker dataset size, epsilon): the cross product the paper's
// Figures 1-2 sweep, at both the paper's scale (|D| = 3000) and this
// reproduction's (|D| = 1000, 800).
using Cell = std::tuple<int, double>;

class PrivacyGridTest : public ::testing::TestWithParam<Cell> {};

TEST_P(PrivacyGridTest, CalibratesAndRoundTrips) {
  auto [dataset_size, eps] = GetParam();
  PrivacySpec spec;
  spec.dataset_size = dataset_size;
  spec.batch_size = 16;
  spec.epochs = 8;
  spec.epsilon = eps;
  auto params = CalibratePrivacy(spec);
  ASSERT_TRUE(params.ok()) << params.status().ToString();
  const PrivacyParams& p = params.value();
  EXPECT_GT(p.noise_multiplier, 0.0);
  EXPECT_LT(p.noise_multiplier, 1000.0);
  // Verify the calibrated multiplier indeed meets the (ε, δ) target.
  auto realized =
      ComputeEpsilon(p.sampling_rate, p.noise_multiplier, p.steps, p.delta);
  ASSERT_TRUE(realized.ok());
  EXPECT_LE(realized.value(), eps * (1.0 + 1e-6));
  EXPECT_GT(realized.value(), 0.5 * eps);  // not wastefully over-noised
}

INSTANTIATE_TEST_SUITE_P(
    PaperGrid, PrivacyGridTest,
    ::testing::Combine(::testing::ValuesIn(DatasetSizes()),
                       ::testing::ValuesIn(Epsilons())));

TEST(PaperAnchorTest, ReproducesThePapersBaseNoiseMultiplier) {
  // §6.2 CLAIM 6: "we first choose the base case of σ_b = 0.79
  // (corresponding to ε = 2)". That calibration comes from TensorFlow
  // Privacy on the paper's MNIST worker (|D| = 60000/20 = 3000, bc = 16,
  // 8 epochs, δ = 1/3000^1.1). Our accountant must land on the same
  // multiplier.
  PrivacySpec spec;
  spec.dataset_size = 3000;
  spec.batch_size = 16;
  spec.epochs = 8;
  spec.epsilon = 2.0;
  auto p = CalibratePrivacy(spec);
  ASSERT_TRUE(p.ok());
  EXPECT_NEAR(p.value().noise_multiplier, 0.79, 0.02);
}

TEST(AccountantOrderingTest, SigmaMonotoneInEpsilonAcrossGrid) {
  PrivacySpec spec;
  spec.dataset_size = 1000;
  spec.batch_size = 16;
  spec.epochs = 8;
  double prev_sigma = 1e300;
  for (double eps : {0.125, 0.25, 0.5, 1.0, 2.0}) {
    spec.epsilon = eps;
    auto p = CalibratePrivacy(spec);
    ASSERT_TRUE(p.ok());
    EXPECT_LT(p.value().sigma, prev_sigma) << "eps=" << eps;
    prev_sigma = p.value().sigma;
  }
}

TEST(AccountantOrderingTest, MoreDataNeedsLessNoise) {
  // Larger |D| → smaller q → privacy amplification → smaller σ for the
  // same (ε, epochs). This is exactly why the reproduction uses larger
  // per-worker datasets than its first draft.
  double prev_sigma = 1e300;
  for (int n : {200, 500, 1000, 3000}) {
    PrivacySpec spec;
    spec.dataset_size = n;
    spec.batch_size = 16;
    spec.epochs = 8;
    spec.epsilon = 0.5;
    spec.delta = 1e-4;  // fixed δ to isolate the q effect
    auto p = CalibratePrivacy(spec);
    ASSERT_TRUE(p.ok());
    EXPECT_LT(p.value().noise_multiplier, prev_sigma) << "n=" << n;
    prev_sigma = p.value().noise_multiplier;
  }
}

TEST(AccountantOrderingTest, EpochsIncreaseNoise) {
  double prev = 0.0;
  for (int epochs : {1, 4, 8, 16}) {
    PrivacySpec spec;
    spec.dataset_size = 1000;
    spec.batch_size = 16;
    spec.epochs = epochs;
    spec.epsilon = 1.0;
    auto p = CalibratePrivacy(spec);
    ASSERT_TRUE(p.ok());
    EXPECT_GT(p.value().noise_multiplier, prev) << "epochs=" << epochs;
    prev = p.value().noise_multiplier;
  }
}

TEST(AccountantOrderingTest, BatchSizeTradesQAgainstSteps) {
  // bc enters both q = bc/|D| (up) and T = epochs·|D|/bc (down). For the
  // subsampled Gaussian the q² dependence dominates the 1/bc step count,
  // so smaller batches are privacy-cheaper — one of the two pillars of
  // the paper's small-batch design.
  PrivacySpec small;
  small.dataset_size = 1000;
  small.batch_size = 8;
  small.epochs = 8;
  small.epsilon = 0.5;
  PrivacySpec big = small;
  big.batch_size = 64;
  auto p_small = CalibratePrivacy(small);
  auto p_big = CalibratePrivacy(big);
  ASSERT_TRUE(p_small.ok());
  ASSERT_TRUE(p_big.ok());
  EXPECT_LT(p_small.value().noise_multiplier,
            p_big.value().noise_multiplier);
}

TEST(ClientSubsamplingTest, FullParticipationIsTheIdentity) {
  // q_c = 1 must recover the plain sampled-Gaussian calibration EXACTLY
  // (the product rate 1·q is bitwise q), so client sampling cannot
  // perturb any full-participation calibration.
  PrivacySpec spec;
  spec.dataset_size = 1000;
  spec.batch_size = 16;
  spec.epochs = 8;
  spec.epsilon = 1.0;
  auto p = CalibratePrivacy(spec);
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p.value().noise_multiplier,
            NoiseMultiplierFor(p.value().sampling_rate, p.value().steps, 1.0,
                               p.value().delta)
                .value());
}

TEST(ClientSubsamplingTest, RdpMonotoneInClientRate) {
  // Fewer participating clients → smaller effective rate q_c·q → never
  // more privacy loss. Monotone non-decreasing at every order.
  std::vector<double> orders = DefaultRdpOrders();
  std::vector<double> rates = {0.05, 0.1, 0.25, 0.5, 0.75, 1.0};
  for (double sigma : {0.9, 2.5}) {
    std::vector<double> prev(orders.size(), 0.0);
    for (double qc : rates) {
      std::vector<double> rdp = RdpSampledGaussian(qc * 0.016, sigma, orders);
      for (size_t i = 0; i < orders.size(); ++i) {
        EXPECT_GE(rdp[i], prev[i])
            << "qc=" << qc << " order=" << orders[i] << " sigma=" << sigma;
      }
      prev = rdp;
    }
  }
}

TEST(ClientSubsamplingTest, EpsilonMonotoneInClientRate) {
  double prev = 0.0;
  for (double qc : {0.1, 0.3, 0.6, 1.0}) {
    auto eps = ComputeEpsilon(qc * 0.016, 1.1, 400, 1e-5);
    ASSERT_TRUE(eps.ok());
    EXPECT_GE(eps.value(), prev) << "qc=" << qc;
    prev = eps.value();
  }
}

TEST(ClientSubsamplingTest, AmplificationBuysNoiseAtFixedRounds) {
  // At a FIXED round count, sampling half the clients per round needs
  // less noise for the same (ε, δ).
  auto full = NoiseMultiplierFor(0.016, 400, 1.0, 1e-5);
  auto half = NoiseMultiplierFor(0.5 * 0.016, 400, 1.0, 1e-5);
  ASSERT_TRUE(full.ok());
  ASSERT_TRUE(half.ok());
  EXPECT_LT(half.value(), full.value());
}

TEST(ClientSubsamplingTest, CalibrationScalesRoundsAndValidates) {
  PrivacySpec spec;
  spec.dataset_size = 1000;
  spec.batch_size = 16;
  spec.epochs = 8;
  spec.epsilon = 1.0;

  auto full = CalibratePrivacy(spec);
  ASSERT_TRUE(full.ok());
  spec.client_sampling_rate = 0.5;
  auto half = CalibratePrivacy(spec);
  ASSERT_TRUE(half.ok());
  // T scales by 1/q_c so clients keep ~epochs expected local passes.
  EXPECT_EQ(half.value().steps, 2 * full.value().steps);
  EXPECT_EQ(half.value().client_sampling_rate, 0.5);
  // The calibrated multiplier still meets (ε, δ) at the effective rate.
  auto realized = ComputeEpsilon(
      0.5 * half.value().sampling_rate, half.value().noise_multiplier,
      half.value().steps, half.value().delta);
  ASSERT_TRUE(realized.ok());
  EXPECT_LE(realized.value(), 1.0 * (1.0 + 1e-6));

  for (double bad : {0.0, -1.0, 1.0001}) {
    spec.client_sampling_rate = bad;
    EXPECT_FALSE(CalibratePrivacy(spec).ok()) << "qc=" << bad;
  }
}

TEST(RdpCurveTest, ConvexInOrderAroundOptimum) {
  // The per-order epsilons ε(α) = rdp(α)·T + conversion(α) used for the
  // minimum must form a curve with a single interior optimum over the
  // default grid (sanity of the grid's coverage).
  std::vector<double> orders = DefaultRdpOrders();
  std::vector<double> rdp =
      ComposeRdp(RdpSampledGaussian(0.016, 3.0, orders), 500);
  double best = 1e300;
  size_t best_idx = 0;
  for (size_t i = 0; i < orders.size(); ++i) {
    double a = orders[i];
    double eps = rdp[i] + std::log((a - 1.0) / a) -
                 (std::log(1e-4) + std::log(a)) / (a - 1.0);
    if (eps < best) {
      best = eps;
      best_idx = i;
    }
  }
  // The optimum must not sit at the grid boundary (otherwise the grid is
  // too small and the reported ε is loose).
  EXPECT_GT(best_idx, 0u);
  EXPECT_LT(best_idx, orders.size() - 1);
}

}  // namespace
}  // namespace dp
}  // namespace dpbr
