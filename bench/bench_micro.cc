// Micro-benchmarks (google-benchmark) for the protocol's hot kernels:
// the upload noise, momentum fold and inverse norm, the first-stage KS
// test, the norm test, the second-stage scoring, the dpbr pass, the
// baseline aggregators and the RDP accountant.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>
#include <vector>

#include "aggregators/krum.h"
#include "aggregators/median.h"
#include "aggregators/rfa.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/dpbr_aggregator.h"
#include "core/first_stage.h"
#include "core/second_stage.h"
#include "dp/rdp_accountant.h"
#include "fl/upload.h"
#include "stats/distributions.h"
#include "stats/kolmogorov.h"
#include "stats/ks_test.h"
#include "tensor/ops.h"

namespace {

using namespace dpbr;

fl::UploadArena NoiseUploads(size_t n, size_t dim, double sigma) {
  SplitRng rng(1);
  fl::UploadArena uploads;
  uploads.Reset(n, dim);
  for (size_t i = 0; i < n; ++i) {
    SplitRng w = rng.Split(i);
    w.FillGaussian(uploads.Row(i), dim, sigma);
  }
  return uploads;
}

// --- Bulk Gaussian sampling: the ziggurat bulk fill against the
// sequential Box-Muller reference loop at DP-noise sizes (an e2e
// reference run draws ~3M noise coordinates). items_per_second is draws
// per second; the CI bench gate asserts the ziggurat stays >= 3x the
// reference per draw.

void BM_FillGaussianZiggurat(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  std::vector<float> buf(n);
  SplitRng rng(3, {0xBE});
  for (auto _ : state) {
    rng.FillGaussian(buf.data(), n, 0.3);
    benchmark::DoNotOptimize(buf.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_FillGaussianZiggurat)->Arg(65536)->Arg(1048576);

void BM_FillGaussianBoxMuller(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  std::vector<float> buf(n);
  SplitRng rng(3, {0xBE});
  for (auto _ : state) {
    for (float& v : buf) v = static_cast<float>(0.3 * rng.Gaussian());
    benchmark::DoNotOptimize(buf.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_FillGaussianBoxMuller)->Arg(65536)->Arg(1048576);

// The DP upload perturbation exactly as the worker runs it (AddGaussian
// at a model-sized d).
void BM_AddGaussianUpload(benchmark::State& state) {
  size_t d = static_cast<size_t>(state.range(0));
  std::vector<float> upload(d, 0.01f);
  SplitRng rng(5, {0xAD});
  for (auto _ : state) {
    rng.AddGaussian(upload.data(), d, 0.3);
    benchmark::DoNotOptimize(upload.data());
  }
  state.SetItemsProcessed(state.iterations() * d);
}
BENCHMARK(BM_AddGaussianUpload)->Arg(35562)->Arg(100000);

// --- The first-stage KS test: the production radix-sort path against a
// bench-local std::sort reference (the comparison-sort implementation it
// replaced). The CI bench gate asserts radix >= 2.5x the reference at the
// paper MLP's d = 25450; main() asserts the two agree bitwise first.

stats::KsResult SortReferenceKsTestGaussian(const std::vector<float>& data,
                                            double stddev) {
  size_t n = data.size();
  std::vector<float> sorted = data;
  std::sort(sorted.begin(), sorted.end());
  double inv_sigma = 1.0 / stddev;
  std::vector<double> u(n);
  for (size_t i = 0; i < n; ++i) {
    u[i] = stats::NormalCdf(static_cast<double>(sorted[i]) * inv_sigma);
  }
  double d = 0.0;
  double inv_n = 1.0 / static_cast<double>(n);
  for (size_t i = 0; i < n; ++i) {
    double above = static_cast<double>(i + 1) * inv_n - u[i];
    double below = u[i] - static_cast<double>(i) * inv_n;
    if (above > d) d = above;
    if (below > d) d = below;
  }
  stats::KsResult r;
  r.n = n;
  r.statistic = d;
  r.p_value = stats::KsPValue(n, d);
  return r;
}

std::vector<float> KsRow(size_t d) {
  SplitRng rng(2);
  std::vector<float> u(d);
  rng.FillGaussian(u.data(), d, 0.3);
  return u;
}

void BM_KsTestGaussian(benchmark::State& state) {
  size_t d = static_cast<size_t>(state.range(0));
  std::vector<float> u = KsRow(d);
  for (auto _ : state) {
    benchmark::DoNotOptimize(stats::KsTestGaussian(u.data(), d, 0.3));
  }
  state.SetItemsProcessed(state.iterations() * d);
}
BENCHMARK(BM_KsTestGaussian)
    ->Arg(2410)
    ->Arg(21802)
    ->Arg(25450)
    ->Arg(100000);

void BM_KsTestGaussianSortRef(benchmark::State& state) {
  size_t d = static_cast<size_t>(state.range(0));
  std::vector<float> u = KsRow(d);
  for (auto _ : state) {
    benchmark::DoNotOptimize(SortReferenceKsTestGaussian(u, 0.3));
  }
  state.SetItemsProcessed(state.iterations() * d);
}
BENCHMARK(BM_KsTestGaussianSortRef)->Arg(25450);

// The first stage's verdict-only KS (histogram bracket, sort only when
// the bracket straddles alpha) on the same row. The CI bench gate
// asserts it >= 2x BM_KsTestGaussian at d = 25450; main() asserts the
// verdicts agree first.
void BM_KsGaussianAccepts(benchmark::State& state) {
  size_t d = static_cast<size_t>(state.range(0));
  std::vector<float> u = KsRow(d);
  for (auto _ : state) {
    benchmark::DoNotOptimize(stats::KsGaussianAccepts(u.data(), d, 0.3, 0.05));
  }
  state.SetItemsProcessed(state.iterations() * d);
}
BENCHMARK(BM_KsGaussianAccepts)->Arg(25450);

void CheckKsRadixMatchesSortReference() {
  std::vector<float> u = KsRow(25450);
  stats::KsResult radix = stats::KsTestGaussian(u.data(), u.size(), 0.3);
  stats::KsResult ref = SortReferenceKsTestGaussian(u, 0.3);
  if (std::memcmp(&radix.statistic, &ref.statistic, sizeof(double)) != 0 ||
      std::memcmp(&radix.p_value, &ref.p_value, sizeof(double)) != 0) {
    std::fprintf(stderr,
                 "FATAL: radix KS test differs from the std::sort "
                 "reference\n");
    std::exit(1);
  }
  if (stats::KsGaussianAccepts(u.data(), u.size(), 0.3, 0.05) !=
      (radix.p_value >= 0.05)) {
    std::fprintf(stderr,
                 "FATAL: KsGaussianAccepts differs from the radix KS "
                 "verdict\n");
    std::exit(1);
  }
  std::fprintf(stderr,
               "ks radix check: D and p-value == std::sort reference, "
               "KsGaussianAccepts == its verdict (d=%zu)\n",
               u.size());
}

// --- An honest example's clamped inverse norm, float(1/max(‖φ‖,
// 1e-12)), at the paper MLP's d: the sequential double chain that
// defines it against ops::InverseNorm's bracketed eight-chain sum. The
// CI bench gate asserts the bracket >= 2x the chain; main() asserts
// they agree bitwise first.

std::vector<float> MomentumRow(size_t d, uint64_t seed) {
  std::vector<float> x(d);
  SplitRng rng(seed, {0x1F});
  rng.FillGaussian(x.data(), d, 0.01);
  return x;
}

float SequentialInverseNorm(const float* x, size_t d) {
  return static_cast<float>(1.0 / std::max(ops::Norm(x, d), 1e-12));
}

void BM_ExampleNormSequential(benchmark::State& state) {
  size_t d = static_cast<size_t>(state.range(0));
  std::vector<float> x = MomentumRow(d, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(SequentialInverseNorm(x.data(), d));
  }
  state.SetItemsProcessed(state.iterations() * d);
}
BENCHMARK(BM_ExampleNormSequential)->Arg(25450);

void BM_ExampleInvNorm(benchmark::State& state) {
  size_t d = static_cast<size_t>(state.range(0));
  std::vector<float> x = MomentumRow(d, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ops::InverseNorm(x.data(), d));
  }
  state.SetItemsProcessed(state.iterations() * d);
}
BENCHMARK(BM_ExampleInvNorm)->Arg(25450);

void CheckInverseNormMatchesSequential() {
  const size_t d = 25450;
  for (uint64_t seed = 0; seed < 64; ++seed) {
    std::vector<float> x = MomentumRow(d, seed);
    float chain = SequentialInverseNorm(x.data(), d);
    float bracket = ops::InverseNorm(x.data(), d);
    if (std::memcmp(&chain, &bracket, sizeof(float)) != 0) {
      std::fprintf(stderr,
                   "FATAL: ops::InverseNorm differs from the sequential "
                   "norm (row %llu)\n",
                   static_cast<unsigned long long>(seed));
      std::exit(1);
    }
  }
  std::fprintf(stderr,
               "inverse-norm check: ops::InverseNorm == sequential norm "
               "on 64 rows (d=%zu)\n",
               d);
}

// The momentum fold of one example at the paper MLP's d: the separate
// scale, axpy and chained sum of squares against the one-pass
// ops::MomentumFold, bitwise equal in result.
void BM_MomentumFoldSeparate(benchmark::State& state) {
  size_t d = static_cast<size_t>(state.range(0));
  std::vector<float> g = MomentumRow(d, 2);
  std::vector<float> phi = MomentumRow(d, 3);
  for (auto _ : state) {
    ops::Scale(0.1f, phi.data(), d);
    ops::Axpy(0.9f, g.data(), phi.data(), d);
    benchmark::DoNotOptimize(ops::ChainedSquaredNorm(phi.data(), d));
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * d);
}
BENCHMARK(BM_MomentumFoldSeparate)->Arg(25450);

void BM_MomentumFold(benchmark::State& state) {
  size_t d = static_cast<size_t>(state.range(0));
  std::vector<float> g = MomentumRow(d, 2);
  std::vector<float> phi = MomentumRow(d, 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ops::MomentumFold(0.1f, 0.9f, g.data(), phi.data(), d));
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * d);
}
BENCHMARK(BM_MomentumFold)->Arg(25450);

void CheckMomentumFoldMatchesSeparate() {
  const size_t d = 25450;
  for (uint64_t seed = 0; seed < 16; ++seed) {
    std::vector<float> g = MomentumRow(d, 100 + seed);
    std::vector<float> sep = MomentumRow(d, 200 + seed);
    std::vector<float> fused = sep;
    ops::Scale(0.1f, sep.data(), d);
    ops::Axpy(0.9f, g.data(), sep.data(), d);
    double want = ops::ChainedSquaredNorm(sep.data(), d);
    double got = ops::MomentumFold(0.1f, 0.9f, g.data(), fused.data(), d);
    if (sep != fused || std::memcmp(&want, &got, sizeof(double)) != 0) {
      std::fprintf(stderr,
                   "FATAL: ops::MomentumFold differs from Scale + Axpy + "
                   "ChainedSquaredNorm (row %llu)\n",
                   static_cast<unsigned long long>(seed));
      std::exit(1);
    }
  }
  std::fprintf(stderr,
               "momentum-fold check: one pass == scale, axpy, chained sum "
               "on 16 rows (d=%zu)\n",
               d);
}

void BM_FirstStageApply(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  fl::UploadArena uploads = NoiseUploads(n, 2410, 0.3);
  fl::UploadArena copy = uploads;
  core::FirstStageFilter filter{core::ProtocolOptions{}};
  for (auto _ : state) {
    copy = uploads;  // Apply zeroes rejected rows in place
    benchmark::DoNotOptimize(filter.Apply(copy.span(), 0.3));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_FirstStageApply)->Arg(20)->Arg(50)->Arg(200);

// mlp_byz90's round shape: 50 rows of the paper MLP's d, of which 5 are
// honest noise and 45 are forged at half the noise scale, far outside
// the norm window (the forged rows of the a_little attack fail the norm
// test). The 5 MB restore copy is untimed: at this d it would rival the
// filter itself.
void BM_FirstStageApplyMlpByz90(benchmark::State& state) {
  const size_t kDim = 25450;
  fl::UploadArena uploads = NoiseUploads(50, kDim, 0.3);
  for (size_t i = 5; i < uploads.rows(); ++i) {
    for (size_t j = 0; j < kDim; ++j) uploads.Row(i)[j] *= 0.5f;
  }
  fl::UploadArena copy = uploads;
  core::FirstStageFilter filter{core::ProtocolOptions{}};
  for (auto _ : state) {
    state.PauseTiming();
    copy = uploads;  // Apply zeroes rejected rows in place
    state.ResumeTiming();
    benchmark::DoNotOptimize(filter.Apply(copy.span(), 0.3));
  }
  state.SetItemsProcessed(state.iterations() * uploads.rows());
}
BENCHMARK(BM_FirstStageApplyMlpByz90);

// dpbr on mlp_byz90's round shape (MlpByz90Uploads): both stages as two
// passes over the rows — FirstStageFilter::Apply, then
// SecondStageAggregator::SelectWorkers, which takes one sequential dot
// per row, zeroed or not — against DpbrAggregator::Aggregate's single
// pass, which skips the dot of the 45 zeroed rows (and also sums the
// selected rows into the update). The restore copy is untimed.
struct MlpByz90Round {
  static constexpr size_t kDim = 25450;
  fl::UploadArena uploads = MlpByz90Uploads();
  std::vector<float> server_grad = MomentumRow(kDim, 7);
  agg::AggregationContext ctx;

  static fl::UploadArena MlpByz90Uploads() {
    fl::UploadArena u = NoiseUploads(50, kDim, 0.3);
    for (size_t i = 5; i < u.rows(); ++i) {
      for (size_t j = 0; j < kDim; ++j) u.Row(i)[j] *= 0.5f;
    }
    return u;
  }

  MlpByz90Round() {
    ctx.dim = kDim;
    ctx.sigma_upload = 0.3;
    ctx.gamma = 0.1;
    ctx.server_gradient = &server_grad;
  }
};

void BM_DpbrTwoPassMlpByz90(benchmark::State& state) {
  MlpByz90Round round;
  fl::UploadArena copy = round.uploads;
  core::FirstStageFilter first{core::ProtocolOptions{}};
  core::SecondStageAggregator second;
  for (auto _ : state) {
    state.PauseTiming();
    copy = round.uploads;
    state.ResumeTiming();
    benchmark::DoNotOptimize(first.Apply(copy.span(), 0.3));
    benchmark::DoNotOptimize(
        second.SelectWorkers(copy.cspan(), round.server_grad, 0.1));
  }
  state.SetItemsProcessed(state.iterations() * copy.rows());
}
BENCHMARK(BM_DpbrTwoPassMlpByz90);

void BM_DpbrAggregateMlpByz90(benchmark::State& state) {
  MlpByz90Round round;
  fl::UploadArena copy = round.uploads;
  core::DpbrAggregator aggregator;
  for (auto _ : state) {
    state.PauseTiming();
    copy = round.uploads;
    state.ResumeTiming();
    benchmark::DoNotOptimize(aggregator.Aggregate(copy.span(), round.ctx));
  }
  state.SetItemsProcessed(state.iterations() * copy.rows());
}
BENCHMARK(BM_DpbrAggregateMlpByz90);

void CheckDpbrOnePassMatchesTwoPass() {
  MlpByz90Round round;
  fl::UploadArena two = round.uploads;
  fl::UploadArena one = round.uploads;
  core::FirstStageFilter first{core::ProtocolOptions{}};
  core::SecondStageAggregator second;
  first.Apply(two.span(), 0.3);
  Result<std::vector<size_t>> selected =
      second.SelectWorkers(two.cspan(), round.server_grad, 0.1);
  core::DpbrAggregator aggregator;
  Result<std::vector<float>> update =
      aggregator.Aggregate(one.span(), round.ctx);
  std::vector<float> want(MlpByz90Round::kDim, 0.0f);
  if (selected.ok()) {
    for (size_t idx : selected.value()) {
      ops::Axpy(1.0f, two.Row(idx), want.data(), want.size());
    }
    double denom = static_cast<double>(selected.value().size());
    ops::Scale(static_cast<float>(1.0 / denom), want.data(), want.size());
  }
  const std::vector<double>& got_scores =
      aggregator.second_stage().last_round_scores();
  const std::vector<double>& want_scores = second.last_round_scores();
  bool same =
      selected.ok() && update.ok() &&
      aggregator.last_round().selected == selected.value() &&
      update.value() == want &&
      got_scores.size() == want_scores.size() &&
      std::memcmp(got_scores.data(), want_scores.data(),
                  got_scores.size() * sizeof(double)) == 0 &&
      std::memcmp(one.Row(0), two.Row(0),
                  one.rows() * one.dim() * sizeof(float)) == 0;
  if (!same) {
    std::fprintf(stderr,
                 "FATAL: DpbrAggregator's one pass differs from Apply + "
                 "SelectWorkers on the mlp_byz90 shape\n");
    std::exit(1);
  }
  std::fprintf(stderr,
               "dpbr one-pass check: Aggregate == Apply + SelectWorkers "
               "(50 rows, d=%zu)\n",
               MlpByz90Round::kDim);
}

void BM_DpbrAggregate(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  auto uploads = NoiseUploads(n, 2410, 0.3);
  std::vector<float> server_grad(2410, 0.01f);
  agg::AggregationContext ctx;
  ctx.dim = 2410;
  ctx.sigma_upload = 0.3;
  ctx.gamma = 0.4;
  ctx.server_gradient = &server_grad;
  core::DpbrAggregator aggregator;
  fl::UploadArena copy = uploads;
  for (auto _ : state) {
    copy = uploads;  // the first stage zeroes rejected rows in place
    benchmark::DoNotOptimize(aggregator.Aggregate(copy.span(), ctx));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_DpbrAggregate)->Arg(20)->Arg(50)->Arg(200);

void BM_Krum(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  auto uploads = NoiseUploads(n, 2410, 0.3);
  agg::AggregationContext ctx;
  ctx.dim = 2410;
  ctx.gamma = 0.6;
  agg::KrumAggregator krum;
  for (auto _ : state) {
    benchmark::DoNotOptimize(krum.Aggregate(uploads.span(), ctx));
  }
}
BENCHMARK(BM_Krum)->Arg(20)->Arg(50);

// --- Krum serial-vs-parallel comparison at production scale (n=100
// clients, d=100k dims). The thread count is pinned via
// ScopedPoolOverride so the two benchmarks differ only in pool size;
// main() additionally asserts the two aggregates are bit-identical.

constexpr size_t kKrumScaleN = 100;
constexpr size_t kKrumScaleDim = 100000;

size_t ParallelPoolSize() {
  return std::max<size_t>(4, std::thread::hardware_concurrency());
}

void KrumAtScale(benchmark::State& state, size_t pool_size) {
  auto uploads = NoiseUploads(kKrumScaleN, kKrumScaleDim, 0.3);
  agg::AggregationContext ctx;
  ctx.dim = kKrumScaleDim;
  ctx.gamma = 0.6;
  agg::KrumAggregator krum;
  ThreadPool pool(pool_size);
  ScopedPoolOverride override(&pool);
  for (auto _ : state) {
    benchmark::DoNotOptimize(krum.Aggregate(uploads.span(), ctx));
  }
  state.counters["threads"] = static_cast<double>(pool_size);
}

void BM_KrumAtScaleSerial(benchmark::State& state) {
  KrumAtScale(state, 1);
}
BENCHMARK(BM_KrumAtScaleSerial)->Unit(benchmark::kMillisecond);

void BM_KrumAtScaleParallel(benchmark::State& state) {
  KrumAtScale(state, ParallelPoolSize());
}
BENCHMARK(BM_KrumAtScaleParallel)->Unit(benchmark::kMillisecond);

// Serial and parallel Krum must agree bit-for-bit; run before the timing
// loops so a determinism regression fails the bench smoke job loudly.
void CheckKrumSerialParallelIdentity() {
  auto uploads = NoiseUploads(kKrumScaleN, kKrumScaleDim, 0.3);
  agg::AggregationContext ctx;
  ctx.dim = kKrumScaleDim;
  ctx.gamma = 0.6;
  agg::KrumAggregator krum;
  std::vector<float> serial, parallel;
  {
    ThreadPool pool(1);
    ScopedPoolOverride override(&pool);
    serial = krum.Aggregate(uploads.span(), ctx).value();
  }
  {
    ThreadPool pool(ParallelPoolSize());
    ScopedPoolOverride override(&pool);
    parallel = krum.Aggregate(uploads.span(), ctx).value();
  }
  if (serial != parallel) {
    std::fprintf(stderr,
                 "FATAL: serial and parallel Krum aggregates differ\n");
    std::exit(1);
  }
  std::fprintf(stderr,
               "krum determinism check: serial == parallel (n=%zu, d=%zu, "
               "%zu threads)\n",
               kKrumScaleN, kKrumScaleDim, ParallelPoolSize());
}

// Fixed cost of one fanned-out ParallelFor on the global pool: publish,
// wake, claim every index, join. The body is empty, so the time is the
// dispatch itself (not gated: it measures the pool, not a round).
void BM_DispatchOverhead(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    ParallelFor(0, n, [](size_t i) { benchmark::DoNotOptimize(i); });
  }
  state.counters["threads"] =
      static_cast<double>(ThreadPool::Global().num_threads());
}
BENCHMARK(BM_DispatchOverhead)->Arg(4)->Arg(64)->Arg(4096);

void BM_CoordinateMedian(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  auto uploads = NoiseUploads(n, 2410, 0.3);
  agg::AggregationContext ctx;
  ctx.dim = 2410;
  agg::CoordinateMedianAggregator median;
  for (auto _ : state) {
    benchmark::DoNotOptimize(median.Aggregate(uploads.span(), ctx));
  }
}
BENCHMARK(BM_CoordinateMedian)->Arg(20)->Arg(50);

void BM_RfaGeometricMedian(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  auto uploads = NoiseUploads(n, 2410, 0.3);
  agg::AggregationContext ctx;
  ctx.dim = 2410;
  agg::RfaAggregator rfa;
  for (auto _ : state) {
    benchmark::DoNotOptimize(rfa.Aggregate(uploads.span(), ctx));
  }
}
BENCHMARK(BM_RfaGeometricMedian)->Arg(20)->Arg(50);

void BM_RdpEpsilon(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(dp::ComputeEpsilon(0.016, 3.0, 500, 1e-4));
  }
}
BENCHMARK(BM_RdpEpsilon);

void BM_NoiseMultiplierSearch(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(dp::NoiseMultiplierFor(0.016, 500, 0.5, 1e-4));
  }
}
BENCHMARK(BM_NoiseMultiplierSearch);

// FillGaussian must be bit-identical under serial and parallel pools
// (same contract the aggregators obey); run before the timing loops so a
// determinism regression fails the bench smoke job loudly.
void CheckFillGaussianPoolIdentity() {
  const size_t n = 3 * kGaussianFillBlock + 1234;
  std::vector<std::vector<float>> fills;
  for (size_t threads : {size_t{1}, size_t{2}, ParallelPoolSize()}) {
    ThreadPool pool(threads);
    ScopedPoolOverride override(&pool);
    SplitRng rng(23, {5});
    fills.emplace_back(n);
    rng.FillGaussian(fills.back().data(), n, 0.7);
  }
  for (size_t i = 1; i < fills.size(); ++i) {
    if (fills[0] != fills[i]) {
      std::fprintf(stderr,
                   "FATAL: FillGaussian differs across pool sizes\n");
      std::exit(1);
    }
  }
  std::fprintf(stderr,
               "fill-gaussian determinism check: pools {1,2,%zu} "
               "bit-identical (n=%zu)\n",
               ParallelPoolSize(), n);
}

}  // namespace

int main(int argc, char** argv) {
  CheckKrumSerialParallelIdentity();
  CheckFillGaussianPoolIdentity();
  CheckKsRadixMatchesSortReference();
  CheckInverseNormMatchesSequential();
  CheckMomentumFoldMatchesSeparate();
  CheckDpbrOnePassMatchesTwoPass();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
