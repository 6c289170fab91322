#include "fl/worker.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "aggregators/mean.h"
#include "common/simd.h"
#include "common/thread_pool.h"
#include "data/synthetic.h"
#include "fl/server.h"
#include "nn/model_zoo.h"
#include "stats/ks_test.h"
#include "tensor/ops.h"

namespace dpbr {
namespace fl {
namespace {

data::DatasetBundle SmallBundle() {
  data::SyntheticSpec spec;
  spec.num_classes = 4;
  spec.feature_dim = 16;
  spec.train_size = 200;
  spec.val_size = 40;
  spec.test_size = 40;
  spec.class_separation = 3.0;
  spec.noise_std = 0.5;
  auto b = data::GenerateSynthetic(spec, 5);
  EXPECT_TRUE(b.ok());
  return std::move(b).value();
}

WorkerOptions Opts(double sigma) {
  WorkerOptions o;
  o.batch_size = 8;
  o.beta = 0.1;
  o.sigma = sigma;
  return o;
}

// The worker's round-`round` upload, written into a block of its own.
std::vector<float> Upload(HonestDpWorker& w, const std::vector<float>& params,
                          int round) {
  std::vector<float> out(w.dim());
  w.ComputeUpdateInto(params, round, out.data());
  return out;
}

TEST(WorkerTest, UploadDimensionMatchesModel) {
  data::DatasetBundle bundle = SmallBundle();
  nn::ModelFactory f = nn::MlpFactory(16, 8, 4);
  HonestDpWorker w(0, data::DatasetView::All(&bundle.train), f, Opts(0.0), 1);
  EXPECT_EQ(w.dim(), f()->NumParams());
  auto model = f();
  SplitRng rng(1);
  model->InitParams(&rng);
  std::vector<float> params = model->FlatParams();
  std::vector<float> u = Upload(w, params, 1);
  EXPECT_EQ(u.size(), w.dim());
}

TEST(WorkerTest, DeterministicPerRound) {
  data::DatasetBundle bundle = SmallBundle();
  nn::ModelFactory f = nn::MlpFactory(16, 8, 4);
  auto model = f();
  SplitRng rng(1);
  model->InitParams(&rng);
  std::vector<float> params = model->FlatParams();

  HonestDpWorker a(0, data::DatasetView::All(&bundle.train), f, Opts(1.0), 7);
  HonestDpWorker b(0, data::DatasetView::All(&bundle.train), f, Opts(1.0), 7);
  EXPECT_EQ(Upload(a, params, 1), Upload(b, params, 1));
  EXPECT_EQ(Upload(a, params, 2), Upload(b, params, 2));
}

TEST(WorkerTest, DifferentSeedsProduceDifferentUploads) {
  data::DatasetBundle bundle = SmallBundle();
  nn::ModelFactory f = nn::MlpFactory(16, 8, 4);
  auto model = f();
  SplitRng rng(1);
  model->InitParams(&rng);
  std::vector<float> params = model->FlatParams();
  HonestDpWorker a(0, data::DatasetView::All(&bundle.train), f, Opts(1.0), 7);
  HonestDpWorker b(1, data::DatasetView::All(&bundle.train), f, Opts(1.0), 8);
  EXPECT_NE(Upload(a, params, 1), Upload(b, params, 1));
}

TEST(WorkerTest, NoNoiseUploadIsBoundedByOne) {
  // Without DP noise the upload is (1/bc)·Σ of bc unit vectors: ‖·‖ <= 1.
  data::DatasetBundle bundle = SmallBundle();
  nn::ModelFactory f = nn::MlpFactory(16, 8, 4);
  auto model = f();
  SplitRng rng(2);
  model->InitParams(&rng);
  std::vector<float> params = model->FlatParams();
  HonestDpWorker w(0, data::DatasetView::All(&bundle.train), f, Opts(0.0), 3);
  for (int round = 1; round <= 5; ++round) {
    std::vector<float> u = Upload(w, params, round);
    EXPECT_LE(ops::Norm(u), 1.0 + 1e-5);
    EXPECT_GT(ops::Norm(u), 0.0);
  }
}

TEST(WorkerTest, DpNoiseDominatesUploadNorm) {
  // With σ large, ‖upload‖ ≈ σ·√d/bc (paper §4.3 "DP noise dominates").
  data::DatasetBundle bundle = SmallBundle();
  nn::ModelFactory f = nn::MlpFactory(16, 8, 4);
  size_t d = f()->NumParams();
  auto model = f();
  SplitRng rng(3);
  model->InitParams(&rng);
  std::vector<float> params = model->FlatParams();
  double sigma = 8.0;
  WorkerOptions o = Opts(sigma);
  HonestDpWorker w(0, data::DatasetView::All(&bundle.train), f, o, 4);
  std::vector<float> u = Upload(w, params, 1);
  double expected = sigma * std::sqrt(static_cast<double>(d)) / o.batch_size;
  EXPECT_NEAR(ops::Norm(u), expected, 0.15 * expected);
}

TEST(WorkerTest, MomentumModesDiverge) {
  data::DatasetBundle bundle = SmallBundle();
  nn::ModelFactory f = nn::MlpFactory(16, 8, 4);
  auto model = f();
  SplitRng rng(4);
  model->InitParams(&rng);
  std::vector<float> params = model->FlatParams();

  WorkerOptions reset = Opts(1.0);
  reset.momentum_reset = MomentumReset::kResetToUpload;
  WorkerOptions persist = Opts(1.0);
  persist.momentum_reset = MomentumReset::kPersist;

  HonestDpWorker a(0, data::DatasetView::All(&bundle.train), f, reset, 9);
  HonestDpWorker b(0, data::DatasetView::All(&bundle.train), f, persist, 9);
  // Round 1 is identical (momentum starts at zero in both modes)...
  EXPECT_EQ(Upload(a, params, 1), Upload(b, params, 1));
  // ...but the modes diverge from round 2 on.
  EXPECT_NE(Upload(a, params, 2), Upload(b, params, 2));
}

TEST(WorkerTest, ExampleRangesInAnyOrderMatchTheWholeStep) {
  // The round splits a local step into per-example items that run in
  // any order on any pool thread; the upload and the momentum it leaves
  // must be those of ComputeUpdateInto, bit for bit, under both reset
  // modes and with noise.
  ThreadPool pool(3);
  ScopedPoolOverride route(&pool);
  data::DatasetBundle bundle = SmallBundle();
  nn::ModelFactory f = nn::MlpFactory(16, 8, 4);
  auto model = f();
  SplitRng rng(6);
  model->InitParams(&rng);
  std::vector<float> params = model->FlatParams();
  for (MomentumReset mode :
       {MomentumReset::kPersist, MomentumReset::kResetToUpload}) {
    WorkerOptions o = Opts(1.0);
    o.momentum_reset = mode;
    HonestDpWorker whole(0, data::DatasetView::All(&bundle.train), f, o, 9);
    HonestDpWorker split(0, data::DatasetView::All(&bundle.train), f, o, 9);
    const size_t bc = split.batch_size();
    ASSERT_EQ(bc, 8u);
    for (int round = 1; round <= 3; ++round) {
      std::vector<float> want = Upload(whole, params, round);
      std::vector<float> got(split.dim());
      split.BeginRound(round);
      if (round == 1) {
        // Uneven ranges, last first.
        split.Examples(params, 5, 8);
        split.Examples(params, 2, 5);
        split.Examples(params, 0, 2);
      } else if (round == 2) {
        // One example per call, in descending order.
        for (size_t j = bc; j-- > 0;) split.Examples(params, j, j + 1);
      } else {
        // One example per pool item, claimed by whichever thread.
        ParallelFor(0, bc,
                    [&](size_t j) { split.Examples(params, j, j + 1); });
      }
      split.FinishInto(got.data());
      ASSERT_EQ(0, std::memcmp(want.data(), got.data(),
                               want.size() * sizeof(float)))
          << "round " << round;
      ASSERT_EQ(whole.momentum(), split.momentum()) << "round " << round;
    }
  }
}

TEST(WorkerTest, UploadRowIsWhollyWrittenBlockByBlockInAnyOrder) {
  // The round's arena is not cleared between rounds, and the round runs
  // each upload's coordinate blocks as separate items: a row prefilled
  // with NaN, finished block by block in any order or by FinishInto,
  // must equal FinishInto on a zeroed row, bit for bit, and leave the
  // same momentum.
  data::DatasetBundle bundle = SmallBundle();
  // d = 16·300 + 300 + 300·4 + 4 = 6304: a full block and a partial one.
  nn::ModelFactory f = nn::MlpFactory(16, 300, 4);
  auto model = f();
  SplitRng rng(6);
  model->InitParams(&rng);
  std::vector<float> params = model->FlatParams();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  for (MomentumReset mode :
       {MomentumReset::kPersist, MomentumReset::kResetToUpload}) {
    WorkerOptions o = Opts(1.0);
    o.momentum_reset = mode;
    HonestDpWorker zeroed(0, data::DatasetView::All(&bundle.train), f, o, 9);
    HonestDpWorker nan_row(0, data::DatasetView::All(&bundle.train), f, o,
                           9);
    ASSERT_EQ(nan_row.dim(), 6304u);
    ASSERT_EQ(nan_row.num_blocks(), 2u);
    for (int round = 1; round <= 3; ++round) {
      std::vector<float> want(zeroed.dim(), 0.0f);
      zeroed.ComputeUpdateInto(params, round, want.data());
      std::vector<float> got(nan_row.dim(), nan);
      if (round == 1) {
        nan_row.ComputeUpdateInto(params, round, got.data());
      } else {
        nan_row.BeginRound(round);
        nan_row.Examples(params, 0, nan_row.batch_size());
        if (round == 2) {
          for (size_t b = nan_row.num_blocks(); b-- > 0;) {
            nan_row.FinishBlock(b, got.data());
          }
        } else {
          ThreadPool pool(2);
          ScopedPoolOverride route(&pool);
          ParallelFor(0, nan_row.num_blocks(),
                      [&](size_t b) { nan_row.FinishBlock(b, got.data()); });
        }
      }
      EXPECT_TRUE(std::none_of(got.begin(), got.end(),
                               [](float v) { return std::isnan(v); }))
          << "round " << round;
      ASSERT_EQ(0, std::memcmp(want.data(), got.data(),
                               want.size() * sizeof(float)))
          << "round " << round;
      ASSERT_EQ(zeroed.momentum(), nan_row.momentum()) << "round " << round;
    }
  }
}

TEST(WorkerTest, TinyShardFallsBackToWithReplacement) {
  data::DatasetBundle bundle = SmallBundle();
  nn::ModelFactory f = nn::MlpFactory(16, 8, 4);
  auto model = f();
  SplitRng rng(5);
  model->InitParams(&rng);
  std::vector<float> params = model->FlatParams();
  // Shard of 3 examples with batch size 8.
  data::DatasetView shard(&bundle.train, {0, 1, 2});
  HonestDpWorker w(0, shard, f, Opts(0.0), 11);
  std::vector<float> u = Upload(w, params, 1);
  EXPECT_GT(ops::Norm(u), 0.0);
}

TEST(WorkerTest, FlippedShardGivesDifferentUpload) {
  data::DatasetBundle bundle = SmallBundle();
  nn::ModelFactory f = nn::MlpFactory(16, 8, 4);
  auto model = f();
  SplitRng rng(6);
  model->InitParams(&rng);
  std::vector<float> params = model->FlatParams();
  data::DatasetView shard = data::DatasetView::All(&bundle.train);
  HonestDpWorker clean(0, shard, f, Opts(0.0), 13);
  HonestDpWorker poisoned(0, shard.WithFlippedLabels(), f, Opts(0.0), 13);
  std::vector<float> uc = Upload(clean, params, 1);
  std::vector<float> up = Upload(poisoned, params, 1);
  EXPECT_NE(uc, up);
  // Poisoned gradients point against the clean descent direction.
  EXPECT_LT(ops::Dot(uc, up) / (ops::Norm(uc) * ops::Norm(up)), 0.5);
}

TEST(WorkerTest, UploadNoiseIsGaussianAtSigmaOverBcOnEveryTier) {
  // End-to-end DP noise conformance at the upload: two workers with the
  // same seed, shard and parameters draw the same mini-batch, so the
  // σ > 0 upload minus the σ = 0 upload isolates the noise the protocol
  // adds, N(0, σ²) on the normalized sum scaled by 1/bc, i.e.
  // N(0, σ²/bc²) per coordinate.
  data::DatasetBundle bundle = SmallBundle();
  nn::ModelFactory f = nn::MlpFactory(16, 256, 4);
  auto model = f();
  SplitRng rng(4);
  model->InitParams(&rng);
  std::vector<float> params = model->FlatParams();
  const double sigma = 2.0;
  const double bc = Opts(sigma).batch_size;
  for (simd::IsaLevel level :
       {simd::IsaLevel::kScalar, simd::IsaLevel::kSse2,
        simd::IsaLevel::kAvx2, simd::IsaLevel::kAvx512}) {
    if (simd::KernelsFor(level) == nullptr) continue;
    simd::ScopedForceIsa force(level);
    HonestDpWorker clean(0, data::DatasetView::All(&bundle.train), f,
                         Opts(0.0), 13);
    HonestDpWorker noisy(0, data::DatasetView::All(&bundle.train), f,
                         Opts(sigma), 13);
    std::vector<float> a = Upload(clean, params, 3);
    std::vector<float> b = Upload(noisy, params, 3);
    std::vector<float> residual(a.size());
    for (size_t k = 0; k < a.size(); ++k) residual[k] = b[k] - a[k];
    stats::KsResult fit =
        stats::KsTestGaussian(residual.data(), residual.size(), sigma / bc);
    EXPECT_GT(fit.p_value, 1e-3) << simd::IsaName(level) << " D "
                                 << fit.statistic << " n " << fit.n;
    // The test has the power to see a 20% scale error at this size.
    stats::KsResult off = stats::KsTestGaussian(
        residual.data(), residual.size(), 1.2 * sigma / bc);
    EXPECT_LT(off.p_value, 1e-3) << simd::IsaName(level);
  }
}

data::DatasetBundle ImageBundle() {
  data::SyntheticSpec spec;
  spec.num_classes = 4;
  spec.image_h = 8;
  spec.image_w = 8;
  spec.feature_dim = 64;
  spec.train_size = 80;
  spec.val_size = 8;
  spec.test_size = 8;
  spec.class_separation = 3.0;
  auto b = data::GenerateSynthetic(spec, 12);
  EXPECT_TRUE(b.ok());
  return std::move(b).value();
}

std::vector<float> InitialParams(const nn::ModelFactory& f, uint64_t seed) {
  auto model = f();
  SplitRng rng(seed);
  model->InitParams(&rng);
  return model->FlatParams();
}

data::DatasetView Range(const data::Dataset* base, size_t lo, size_t hi) {
  std::vector<size_t> idx;
  for (size_t i = lo; i < hi; ++i) idx.push_back(i);
  return data::DatasetView(base, std::move(idx));
}

void ExpectBitwiseEqual(const std::vector<float>& want,
                        const std::vector<float>& got) {
  ASSERT_EQ(want.size(), got.size());
  EXPECT_EQ(0, std::memcmp(want.data(), got.data(),
                           want.size() * sizeof(float)));
}

TEST(WorkerSlotTest, UploadDoesNotDependOnWhatTheSlotRanBefore) {
  // A one-thread pool runs every dispatch inline on the caller, so each
  // pass below runs on the same slot of its ComputeSlots.
  ThreadPool one(1);
  ScopedPoolOverride route(&one);
  data::DatasetBundle bundle = ImageBundle();
  nn::ModelFactory f = nn::CnnFactory(1, 4, 3, 4);
  std::vector<float> params = InitialParams(f, 31);
  data::DatasetView shard = Range(&bundle.train, 0, 40);
  auto upload_on = [&](const std::shared_ptr<ComputeSlots>& slots) {
    HonestDpWorker w(0, shard, slots, Opts(1.0), 17);
    return Upload(w, params, 2);
  };

  // The slot last ran nothing.
  std::vector<float> want = upload_on(std::make_shared<ComputeSlots>(f));

  // It last ran another worker's step: another shard, batch size and
  // parameters.
  auto after_step = std::make_shared<ComputeSlots>(f);
  WorkerOptions big = Opts(1.0);
  big.batch_size = 12;
  HonestDpWorker other(1, Range(&bundle.train, 40, 80), after_step, big, 18);
  Upload(other, InitialParams(f, 32), 5);
  ExpectBitwiseEqual(want, upload_on(after_step));

  // It last ran a batch-of-1 aux row, then a 64-example evaluation, at
  // the server's parameters.
  auto after_server = std::make_shared<ComputeSlots>(f);
  Server server(after_server, std::make_unique<agg::MeanAggregator>(),
                data::DatasetView::All(&bundle.val), 33);
  std::vector<float> row(server.dim());
  server.AuxGradientRowInto(0, row.data());
  server.EvaluateAccuracy(Range(&bundle.train, 0, 64));
  ExpectBitwiseEqual(want, upload_on(after_server));
}

TEST(WorkerSlotTest, EveryParameterChangeReachesTheSharedSlots) {
  // A slot reloads only at a new parameter version. With one ComputeSlots
  // shared by a server and a worker, as in the trainer, every change of
  // the parameters — a server step (in place), SetParams, a restore of
  // earlier parameters, a caller's in-place edit before ComputeUpdateInto
  // — must reach the next pass of every kind: a local step through the
  // round's own entry points (BeginRound, Examples, FinishInto), an aux
  // row and an evaluation. Each must equal the same pass on fresh slots.
  data::DatasetBundle bundle = SmallBundle();
  nn::ModelFactory f = nn::MlpFactory(16, 8, 4);
  const data::DatasetView train = data::DatasetView::All(&bundle.train);
  const data::DatasetView aux = data::DatasetView::All(&bundle.val);
  const data::DatasetView test = data::DatasetView::All(&bundle.test);
  for (size_t threads : {size_t{1}, size_t{3}}) {
    SCOPED_TRACE("pool " + std::to_string(threads));
    ThreadPool pool(threads);
    ScopedPoolOverride route(&pool);
    auto shared = std::make_shared<ComputeSlots>(f);
    Server server(shared, std::make_unique<agg::MeanAggregator>(), aux, 33);
    HonestDpWorker worker(0, train, shared, Opts(1.0), 9);
    // The twin keeps the worker's momentum in step on slots of its own,
    // and is handed each parameter state in a vector that stays alive
    // and is never edited, so its slots load every state afresh.
    HonestDpWorker twin(0, train, f, Opts(1.0), 9);
    std::vector<std::vector<float>> states;
    auto twin_upload = [&](const std::vector<float>& params, int round) {
      states.push_back(params);
      return Upload(twin, states.back(), round);
    };
    auto fresh_server = [&](const std::vector<float>& params) {
      auto s = std::make_unique<Server>(
          f, std::make_unique<agg::MeanAggregator>(), aux, 1);
      EXPECT_TRUE(s->SetParams(params).ok());
      return s;
    };
    int round = 0;
    auto expect_passes_match = [&](const char* after) {
      SCOPED_TRACE(after);
      ++round;
      std::vector<float> got(worker.dim());
      worker.BeginRound(round);
      ParallelFor(0, worker.batch_size(), [&](size_t j) {
        worker.Examples(server.params(), j, j + 1);
      });
      worker.FinishInto(got.data());
      ExpectBitwiseEqual(twin_upload(server.params(), round), got);

      std::unique_ptr<Server> fresh = fresh_server(server.params());
      std::vector<float> want_row(server.dim());
      fresh->AuxGradientRowInto(1, want_row.data());
      std::vector<float> row(server.dim());
      server.AuxGradientRowInto(1, row.data());
      ExpectBitwiseEqual(want_row, row);
      EXPECT_EQ(fresh->EvaluateAccuracy(test), server.EvaluateAccuracy(test));
    };

    expect_passes_match("initial parameters");
    std::vector<float> block(2 * server.dim(), 0.25f);
    ASSERT_TRUE(server
                    .Step(RowSpan(block.data(), 2, server.dim()), 0.5,
                          agg::AggregationContext{})
                    .ok());
    expect_passes_match("Step");
    const std::vector<float> saved = server.params();
    ASSERT_TRUE(server.SetParams(InitialParams(f, 44)).ok());
    expect_passes_match("SetParams");
    ASSERT_TRUE(server.SetParams(saved).ok());
    expect_passes_match("restore");

    // A caller's vector edited in place between two ComputeUpdateInto
    // calls on the shared slots.
    std::vector<float> params = server.params();
    ++round;
    ExpectBitwiseEqual(twin_upload(params, round),
                       Upload(worker, params, round));
    for (size_t i = 0; i < params.size(); i += 3) params[i] *= -0.5f;
    ++round;
    ExpectBitwiseEqual(twin_upload(params, round),
                       Upload(worker, params, round));
  }
}

TEST(WorkerSlotDeathTest, PassOnAnUnpreparedSlotDies) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  data::DatasetBundle bundle = SmallBundle();
  nn::ModelFactory f = nn::MlpFactory(16, 8, 4);
  std::vector<float> params = InitialParams(f, 1);
  ThreadPool one(1);
  std::unique_ptr<HonestDpWorker> w;
  {
    // Prepared for a one-thread pool: slot 0 only.
    ScopedPoolOverride route(&one);
    w = std::make_unique<HonestDpWorker>(
        0, data::DatasetView::All(&bundle.train),
        std::make_shared<ComputeSlots>(f), Opts(0.0), 1);
  }
  // Under a three-thread pool the calling thread's slot is 2.
  ThreadPool three(3);
  ScopedPoolOverride route(&three);
  EXPECT_DEATH(Upload(*w, params, 1), "Prepare");
}

}  // namespace
}  // namespace fl
}  // namespace dpbr
