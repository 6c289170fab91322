// Thread-count invariance: every parallelized aggregation path must
// produce bit-identical output under ThreadPool sizes 1, 2 and the
// hardware concurrency. This is the contract that lets the trainer use
// the global pool freely without perturbing paper reproductions.

#include <gtest/gtest.h>

#include <algorithm>
#include <thread>
#include <vector>

#include "aggregators/fltrust.h"
#include "aggregators/krum.h"
#include "aggregators/median.h"
#include "aggregators/norm_bound.h"
#include "aggregators/rfa.h"
#include "aggregators/trimmed_mean.h"
#include "common/rng.h"
#include "common/simd.h"
#include "common/thread_pool.h"
#include "core/dpbr_aggregator.h"
#include "core/first_stage.h"
#include "core/second_stage.h"
#include "data/synthetic.h"
#include "fl/upload.h"
#include "fl/worker.h"
#include "nn/loss.h"
#include "nn/model_zoo.h"
#include "nn/sequential.h"
#include "tensor/tensor.h"

namespace dpbr {
namespace {

// Pool sizes the suite sweeps; hardware_concurrency is clamped up to 4 so
// the parallel path is exercised even on single-core CI runners.
std::vector<size_t> PoolSizes() {
  size_t hw = std::max<size_t>(4, std::thread::hardware_concurrency());
  return {1, 2, hw};
}

fl::UploadArena FixedSeedUploads(size_t n, size_t dim, double sigma) {
  SplitRng rng(7);
  fl::UploadArena uploads;
  uploads.Reset(n, dim);
  for (size_t i = 0; i < n; ++i) {
    SplitRng w = rng.Split(i);
    w.FillGaussian(uploads.Row(i), dim, sigma);
  }
  return uploads;
}

// Runs `make_result` once per pool size under a ScopedPoolOverride and
// checks all outputs are bit-identical to the single-thread run.
template <typename Fn>
void ExpectPoolInvariant(const Fn& make_result) {
  std::vector<std::vector<float>> results;
  for (size_t size : PoolSizes()) {
    ThreadPool pool(size);
    ScopedPoolOverride override(&pool);
    results.push_back(make_result());
  }
  for (size_t i = 1; i < results.size(); ++i) {
    ASSERT_EQ(results[0].size(), results[i].size());
    for (size_t k = 0; k < results[0].size(); ++k) {
      ASSERT_EQ(results[0][k], results[i][k])
          << "coordinate " << k << " differs between pool sizes "
          << PoolSizes()[0] << " and " << PoolSizes()[i];
    }
  }
}

agg::AggregationContext Ctx(size_t dim, double gamma = 0.6) {
  agg::AggregationContext ctx;
  ctx.dim = dim;
  ctx.gamma = gamma;
  return ctx;
}

constexpr size_t kN = 24;
// Off the block-size grid on purpose: exercises the ragged final block of
// every coordinate-blocked kernel.
constexpr size_t kDim = 5003;

TEST(AggregatorDeterminismTest, Krum) {
  auto uploads = FixedSeedUploads(kN, kDim, 0.3);
  ExpectPoolInvariant([&] {
    agg::KrumAggregator krum;
    return krum.Aggregate(uploads.span(), Ctx(kDim)).value();
  });
}

TEST(AggregatorDeterminismTest, MultiKrum) {
  auto uploads = FixedSeedUploads(kN, kDim, 0.3);
  ExpectPoolInvariant([&] {
    agg::KrumAggregator krum(5);
    return krum.Aggregate(uploads.span(), Ctx(kDim)).value();
  });
}

TEST(AggregatorDeterminismTest, RfaGeometricMedian) {
  auto uploads = FixedSeedUploads(kN, kDim, 0.3);
  ExpectPoolInvariant([&] {
    agg::RfaAggregator rfa;
    return rfa.Aggregate(uploads.span(), Ctx(kDim)).value();
  });
}

TEST(AggregatorDeterminismTest, CoordinateMedian) {
  auto uploads = FixedSeedUploads(kN, kDim, 0.3);
  ExpectPoolInvariant([&] {
    agg::CoordinateMedianAggregator median;
    return median.Aggregate(uploads.span(), Ctx(kDim)).value();
  });
}

TEST(AggregatorDeterminismTest, TrimmedMean) {
  auto uploads = FixedSeedUploads(kN, kDim, 0.3);
  ExpectPoolInvariant([&] {
    agg::TrimmedMeanAggregator trimmed(0.2);
    return trimmed.Aggregate(uploads.span(), Ctx(kDim)).value();
  });
}

TEST(AggregatorDeterminismTest, FlTrust) {
  auto uploads = FixedSeedUploads(kN, kDim, 0.3);
  std::vector<float> server_grad(kDim);
  SplitRng rng(11);
  rng.FillGaussian(server_grad.data(), kDim, 0.3);
  ExpectPoolInvariant([&] {
    agg::FlTrustAggregator fltrust;
    agg::AggregationContext ctx = Ctx(kDim);
    ctx.server_gradient = &server_grad;
    return fltrust.Aggregate(uploads.span(), ctx).value();
  });
}

TEST(AggregatorDeterminismTest, NormBoundAdaptive) {
  auto uploads = FixedSeedUploads(kN, kDim, 0.3);
  ExpectPoolInvariant([&] {
    agg::NormBoundAggregator norm_bound;
    return norm_bound.Aggregate(uploads.span(), Ctx(kDim)).value();
  });
}

TEST(AggregatorDeterminismTest, DpbrTwoStage) {
  auto uploads = FixedSeedUploads(kN, kDim, 0.3);
  std::vector<float> server_grad(kDim);
  SplitRng rng(13);
  rng.FillGaussian(server_grad.data(), kDim, 0.3);
  ExpectPoolInvariant([&] {
    core::DpbrAggregator aggregator;  // fresh: cumulative scores reset
    agg::AggregationContext ctx = Ctx(kDim, 0.5);
    ctx.sigma_upload = 0.3;
    ctx.server_gradient = &server_grad;
    fl::UploadArena rows = uploads;  // the first stage zeroes rejects
    return aggregator.Aggregate(rows.span(), ctx).value();
  });
}

TEST(FirstStageDeterminismTest, ApplyVerdictsAndZeroing) {
  auto uploads = FixedSeedUploads(kN, kDim, 0.3);
  // Inject two uploads the filter must reject (norm far outside the
  // window) so the zeroing path runs under every pool size.
  std::fill(uploads.Row(3), uploads.Row(3) + kDim, 2.0f);
  std::fill(uploads.Row(17), uploads.Row(17) + kDim, -1.5f);
  core::FirstStageFilter filter{core::ProtocolOptions{}};
  ExpectPoolInvariant([&] {
    // Verdict side effects: the zeroed upload block is the output.
    fl::UploadArena copy = uploads;
    core::FirstStageReport report;
    filter.Apply(copy.span(), 0.3, &report);
    return std::vector<float>(copy.Row(0), copy.Row(0) + kN * kDim);
  });
}

// --- SIMD dispatch invariance: the aggregator hot loops route through
// the runtime-dispatched kernel table (Krum's distsq8 tiles, the
// median/trimmed-mean transpose gathers, the trimmed sum8 folds). The
// kernels' pinned-fold contract makes every tier bitwise equal to the
// scalar reference — enforced here on the full aggregation outputs.

template <typename Fn>
void ExpectIsaInvariant(const Fn& make_result) {
  std::vector<float> want;
  {
    simd::ScopedForceIsa force(simd::IsaLevel::kScalar);
    want = make_result();
  }
  for (simd::IsaLevel level :
       {simd::IsaLevel::kSse2, simd::IsaLevel::kAvx2,
        simd::IsaLevel::kAvx512}) {
    if (simd::KernelsFor(level) == nullptr) continue;
    simd::ScopedForceIsa force(level);
    std::vector<float> got = make_result();
    ASSERT_EQ(want.size(), got.size());
    for (size_t k = 0; k < want.size(); ++k) {
      ASSERT_EQ(want[k], got[k])
          << "coordinate " << k << " differs between scalar and "
          << simd::IsaName(level);
    }
  }
}

TEST(AggregatorSimdEquivalenceTest, KrumBitwiseAcrossIsas) {
  auto uploads = FixedSeedUploads(kN, kDim, 0.3);
  ExpectIsaInvariant([&] {
    agg::KrumAggregator krum(5);
    return krum.Aggregate(uploads.span(), Ctx(kDim)).value();
  });
}

TEST(AggregatorSimdEquivalenceTest, CoordinateMedianBitwiseAcrossIsas) {
  auto uploads = FixedSeedUploads(kN, kDim, 0.3);
  ExpectIsaInvariant([&] {
    agg::CoordinateMedianAggregator median;
    return median.Aggregate(uploads.span(), Ctx(kDim)).value();
  });
}

TEST(AggregatorSimdEquivalenceTest, TrimmedMeanBitwiseAcrossIsas) {
  auto uploads = FixedSeedUploads(kN, kDim, 0.3);
  ExpectIsaInvariant([&] {
    agg::TrimmedMeanAggregator trimmed(0.2);
    return trimmed.Aggregate(uploads.span(), Ctx(kDim)).value();
  });
}

TEST(AggregatorSimdEquivalenceTest, RfaBitwiseAcrossIsas) {
  auto uploads = FixedSeedUploads(kN, kDim, 0.3);
  ExpectIsaInvariant([&] {
    agg::RfaAggregator rfa;
    return rfa.Aggregate(uploads.span(), Ctx(kDim)).value();
  });
}

// --- Batched Gaussian sampling: the FillGaussian/AddGaussian block split
// depends only on n, so bulk fills must be bit-identical under any pool
// size AND equal to the documented sequential per-block draw loop.

TEST(FillGaussianDeterminismTest, PoolInvariant) {
  // Several full blocks plus a ragged final block.
  const size_t n = 3 * kGaussianFillBlock + 1234;
  ExpectPoolInvariant([&] {
    SplitRng rng(23, {5});
    std::vector<float> buf(n);
    rng.FillGaussian(buf.data(), n, 0.7);
    return buf;
  });
}

TEST(FillGaussianDeterminismTest, AddGaussianPoolInvariant) {
  const size_t n = 2 * kGaussianFillBlock + 99;
  ExpectPoolInvariant([&] {
    SplitRng rng(27, {7});
    std::vector<float> buf(n, 1.5f);
    rng.AddGaussian(buf.data(), n, 0.4);
    return buf;
  });
}

TEST(FillGaussianDeterminismTest, MatchesSequentialDrawLoop) {
  // The stream contract, written out with nothing but the public API:
  // FillGaussian consumes one Next64() as `base`, then block b draws
  // sequentially from SplitRng(base, {b}).
  const size_t n = 2 * kGaussianFillBlock + 77;
  const double stddev = 1.3;
  SplitRng rng(29, {9});
  SplitRng peek = rng;  // copy shares the state FillGaussian will consume
  std::vector<float> got(n);
  rng.FillGaussian(got.data(), n, stddev);
  uint64_t base = peek.Next64();
  for (size_t b = 0; b * kGaussianFillBlock < n; ++b) {
    SplitRng block(base, {b});
    size_t lo = b * kGaussianFillBlock;
    size_t hi = std::min(n, lo + kGaussianFillBlock);
    for (size_t i = lo; i < hi; ++i) {
      ASSERT_EQ(got[i],
                static_cast<float>(stddev * block.GaussianZiggurat()))
          << "element " << i;
    }
  }
  // The fill advanced the parent by exactly that one draw.
  EXPECT_EQ(rng.Next64(), peek.Next64());
}

TEST(FillGaussianDeterminismTest, AddGaussianMatchesFillGaussian) {
  const size_t n = kGaussianFillBlock + 50;
  SplitRng a(31, {3}), b(31, {3});
  std::vector<float> filled(n), added(n, 2.0f);
  a.FillGaussian(filled.data(), n, 0.9);
  b.AddGaussian(added.data(), n, 0.9);
  for (size_t i = 0; i < n; ++i) {
    ASSERT_EQ(added[i], 2.0f + filled[i]) << "element " << i;
  }
}

// --- PerExampleGradSink rows: every layer computes on the calling
// thread and writes the example's dW/db into its own gradient row. A
// loop of one-example passes through one model must land its rows (and
// the dX chain feeding them) bit-identically regardless of the pool size
// the passes are issued under — this is the TSan-tier case for the
// gradient-row contract (the suite runs under -fsanitize=thread in CI's
// race check).
TEST(PerExampleGradSinkDeterminismTest, BackwardBatchRowsPoolInvariant) {
  constexpr size_t kExamples = 7;  // ragged against every pool size swept
  std::vector<Tensor> examples;
  SplitRng data_rng(17);
  for (size_t ex = 0; ex < kExamples; ++ex) {
    Tensor x({1, 1, 8, 8});
    x.FillGaussian(&data_rng, 1.0);
    examples.push_back(std::move(x));
  }
  ExpectPoolInvariant([&] {
    auto model = nn::MakeCnn(1, 8, 3, 4);
    SplitRng rng(19);
    model->InitParams(&rng);
    size_t dim = model->NumParams();
    // The flat gradient rows are the result under test: one row per
    // example, with conv/linear segments, then every example's dX.
    std::vector<float> rows(kExamples * dim);
    std::vector<float> dxs;
    for (size_t ex = 0; ex < kExamples; ++ex) {
      nn::LossGrad lg =
          nn::SoftmaxCrossEntropy(model->ForwardBatch(examples[ex]), ex % 4);
      Tensor dx = model->BackwardTo(lg.grad_logits, rows.data() + ex * dim);
      dxs.insert(dxs.end(), dx.data(), dx.data() + dx.size());
    }
    rows.insert(rows.end(), dxs.begin(), dxs.end());
    return rows;
  });
}

// The whole DP upload (batched kernels + bulk noise) must not depend on
// how the trainer schedules workers across the pool.
TEST(WorkerUploadDeterminismTest, ComputeUpdatePoolInvariant) {
  data::SyntheticSpec spec;
  spec.num_classes = 4;
  spec.feature_dim = 16;
  spec.train_size = 64;
  spec.val_size = 8;
  spec.test_size = 8;
  auto bundle = data::GenerateSynthetic(spec, 5);
  ASSERT_TRUE(bundle.ok());
  nn::ModelFactory factory = nn::MlpFactory(16, 8, 4);
  auto model = factory();
  SplitRng rng(1);
  model->InitParams(&rng);
  std::vector<float> params = model->FlatParams();
  fl::WorkerOptions opts;
  opts.batch_size = 8;
  opts.sigma = 1.0;
  ExpectPoolInvariant([&] {
    fl::HonestDpWorker worker(
        0, data::DatasetView::All(&bundle.value().train), factory, opts, 7);
    std::vector<float> upload(worker.dim());
    worker.ComputeUpdateInto(params, 1, upload.data());
    return upload;
  });
}

TEST(SecondStageDeterminismTest, SelectionOrderIsStable) {
  auto uploads = FixedSeedUploads(kN, kDim, 0.3);
  std::vector<float> server_grad(kDim);
  SplitRng rng(17);
  rng.FillGaussian(server_grad.data(), kDim, 0.3);
  ExpectPoolInvariant([&] {
    core::SecondStageAggregator second_stage;
    std::vector<float> flat;
    // Two rounds: the second exercises the cumulative-score path.
    for (int round = 0; round < 2; ++round) {
      auto selected =
          second_stage.SelectWorkers(uploads.cspan(), server_grad, 0.5).value();
      for (size_t idx : selected) flat.push_back(static_cast<float>(idx));
    }
    return flat;
  });
}

}  // namespace
}  // namespace dpbr
