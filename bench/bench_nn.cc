// Micro-benchmarks (google-benchmark) for the nn compute layer: the
// im2col+GEMM Conv2d against the naive reference kernel at the
// CIFAR-like acceptance shape (3→32 channels, 32×32, k=3), raw GEMM
// throughput, batched Linear, and a full DP worker local step
// (HonestDpWorker::ComputeUpdate) on both MLP and CNN models.
//
// Before timing, main() asserts the GEMM conv is bit-identical under
// serial and parallel pools at the acceptance shape, mirroring
// bench_micro's Krum determinism check.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "data/synthetic.h"
#include "fl/worker.h"
#include "nn/conv2d.h"
#include "nn/gemm.h"
#include "nn/group_norm.h"
#include "nn/linear.h"
#include "nn/loss.h"
#include "nn/model_zoo.h"
#include "nn/pooling.h"
#include "nn/sequential.h"

namespace {

using namespace dpbr;

// The acceptance shape: 3→32 channels, 32×32 input, k=3, same padding.
constexpr size_t kInCh = 3;
constexpr size_t kOutCh = 32;
constexpr size_t kImg = 32;
constexpr size_t kKernel = 3;
constexpr size_t kPad = 1;

Tensor RandomImage(uint64_t seed) {
  SplitRng rng(seed);
  Tensor x({kInCh, kImg, kImg});
  x.FillGaussian(&rng, 1.0);
  return x;
}

nn::Conv2d MakeConv(nn::Conv2dKernel kernel) {
  nn::Conv2d conv(kInCh, kOutCh, kKernel, kPad, kernel);
  SplitRng rng(3);
  conv.InitParams(&rng);
  return conv;
}

void ConvForward(benchmark::State& state, nn::Conv2dKernel kernel) {
  nn::Conv2d conv = MakeConv(kernel);
  Tensor x = RandomImage(5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(conv.Forward(x));
  }
  state.SetItemsProcessed(state.iterations() * kOutCh * kImg * kImg);
}

void BM_Conv2dForward(benchmark::State& state) {
  ConvForward(state, nn::Conv2dKernel::kGemm);
}
BENCHMARK(BM_Conv2dForward)->Unit(benchmark::kMicrosecond);

void BM_Conv2dForwardNaive(benchmark::State& state) {
  ConvForward(state, nn::Conv2dKernel::kNaive);
}
BENCHMARK(BM_Conv2dForwardNaive)->Unit(benchmark::kMicrosecond);

void ConvBackward(benchmark::State& state, nn::Conv2dKernel kernel) {
  nn::Conv2d conv = MakeConv(kernel);
  Tensor x = RandomImage(5);
  Tensor y = conv.Forward(x);
  SplitRng rng(7);
  Tensor gy(y.shape());
  gy.FillGaussian(&rng, 1.0);
  for (auto _ : state) {
    conv.ZeroGrad();
    benchmark::DoNotOptimize(conv.Backward(gy));
  }
  state.SetItemsProcessed(state.iterations() * kOutCh * kImg * kImg);
}

void BM_Conv2dBackward(benchmark::State& state) {
  ConvBackward(state, nn::Conv2dKernel::kGemm);
}
BENCHMARK(BM_Conv2dBackward)->Unit(benchmark::kMicrosecond);

void BM_Conv2dBackwardNaive(benchmark::State& state) {
  ConvBackward(state, nn::Conv2dKernel::kNaive);
}
BENCHMARK(BM_Conv2dBackwardNaive)->Unit(benchmark::kMicrosecond);

// --- Batched conv forward: the single batched-GEMM dispatch against the
// same work run example by example.

constexpr size_t kBatch = 16;

Tensor RandomBatch(uint64_t seed) {
  SplitRng rng(seed);
  Tensor x({kBatch, kInCh, kImg, kImg});
  x.FillGaussian(&rng, 1.0);
  return x;
}

void BM_Conv2dForwardBatch(benchmark::State& state) {
  nn::Conv2d conv = MakeConv(nn::Conv2dKernel::kGemm);
  Tensor x = RandomBatch(13);
  for (auto _ : state) {
    benchmark::DoNotOptimize(conv.ForwardBatch(x));
  }
  state.SetItemsProcessed(state.iterations() * kBatch * kOutCh * kImg *
                          kImg);
}
BENCHMARK(BM_Conv2dForwardBatch)->Unit(benchmark::kMicrosecond);

void BM_Conv2dForwardBatchPerExample(benchmark::State& state) {
  nn::Conv2d conv = MakeConv(nn::Conv2dKernel::kGemm);
  Tensor x = RandomBatch(13);
  size_t feat = kInCh * kImg * kImg;
  std::vector<Tensor> examples;
  for (size_t ex = 0; ex < kBatch; ++ex) {
    examples.emplace_back(
        std::vector<size_t>{kInCh, kImg, kImg},
        std::vector<float>(x.data() + ex * feat,
                           x.data() + (ex + 1) * feat));
  }
  for (auto _ : state) {
    for (const Tensor& example : examples) {
      benchmark::DoNotOptimize(conv.Forward(example));
    }
  }
  state.SetItemsProcessed(state.iterations() * kBatch * kOutCh * kImg *
                          kImg);
}
BENCHMARK(BM_Conv2dForwardBatchPerExample)->Unit(benchmark::kMicrosecond);

// --- Batched conv backward: the single-dispatch batched path (per-example
// dW/db rows into the sink + dX via col2im) against the same work run
// example by example. The cached-state contract ties every per-example
// Backward to its own Forward, so both sides time a full
// forward+backward round trip — the forward work is identical, so the
// ratio isolates the backward dispatch shape.

void BM_Conv2dBackwardBatch(benchmark::State& state) {
  nn::Conv2d conv = MakeConv(nn::Conv2dKernel::kGemm);
  Tensor x = RandomBatch(13);
  SplitRng rng(29);
  Tensor gy({kBatch, kOutCh, kImg, kImg});
  gy.FillGaussian(&rng, 1.0);
  size_t dim = conv.NumParams();
  std::vector<float> sink(kBatch * dim);
  for (auto _ : state) {
    benchmark::DoNotOptimize(conv.ForwardBatch(x));
    std::fill(sink.begin(), sink.end(), 0.0f);
    benchmark::DoNotOptimize(conv.BackwardBatch(gy, {sink.data(), dim, 0}));
  }
  state.SetItemsProcessed(state.iterations() * kBatch * kOutCh * kImg *
                          kImg);
}
BENCHMARK(BM_Conv2dBackwardBatch)->Unit(benchmark::kMicrosecond);

void BM_Conv2dBackwardBatchPerExample(benchmark::State& state) {
  nn::Conv2d conv = MakeConv(nn::Conv2dKernel::kGemm);
  Tensor x = RandomBatch(13);
  SplitRng rng(29);
  Tensor gyb({kBatch, kOutCh, kImg, kImg});
  gyb.FillGaussian(&rng, 1.0);
  size_t feat = kInCh * kImg * kImg;
  size_t out_stride = kOutCh * kImg * kImg;
  std::vector<Tensor> examples, grads;
  for (size_t ex = 0; ex < kBatch; ++ex) {
    examples.emplace_back(
        std::vector<size_t>{kInCh, kImg, kImg},
        std::vector<float>(x.data() + ex * feat, x.data() + (ex + 1) * feat));
    grads.emplace_back(
        std::vector<size_t>{kOutCh, kImg, kImg},
        std::vector<float>(gyb.data() + ex * out_stride,
                           gyb.data() + (ex + 1) * out_stride));
  }
  for (auto _ : state) {
    for (size_t ex = 0; ex < kBatch; ++ex) {
      benchmark::DoNotOptimize(conv.Forward(examples[ex]));
      conv.ZeroGrad();
      benchmark::DoNotOptimize(conv.Backward(grads[ex]));
    }
  }
  state.SetItemsProcessed(state.iterations() * kBatch * kOutCh * kImg *
                          kImg);
}
BENCHMARK(BM_Conv2dBackwardBatchPerExample)->Unit(benchmark::kMicrosecond);

// Batched Linear backward (one dispatch: dW/db sink rows + dX rows) at
// the e2e model shape, against the per-example reference.
void BM_LinearBackwardBatch(benchmark::State& state) {
  nn::Linear linear(512, 32);
  SplitRng rng(11);
  linear.InitParams(&rng);
  Tensor x({16, 512});
  x.FillGaussian(&rng, 1.0);
  Tensor gy({16, 32});
  gy.FillGaussian(&rng, 1.0);
  size_t dim = linear.NumParams();
  std::vector<float> sink(16 * dim);
  for (auto _ : state) {
    benchmark::DoNotOptimize(linear.ForwardBatch(x));
    std::fill(sink.begin(), sink.end(), 0.0f);
    benchmark::DoNotOptimize(
        linear.BackwardBatch(gy, {sink.data(), dim, 0}));
  }
  state.SetItemsProcessed(state.iterations() * 16 * 512 * 32);
}
BENCHMARK(BM_LinearBackwardBatch)->Unit(benchmark::kMicrosecond);

void BM_LinearBackwardBatchPerExample(benchmark::State& state) {
  nn::Linear linear(512, 32);
  SplitRng rng(11);
  linear.InitParams(&rng);
  Tensor xb({16, 512});
  xb.FillGaussian(&rng, 1.0);
  Tensor gyb({16, 32});
  gyb.FillGaussian(&rng, 1.0);
  std::vector<Tensor> examples, grads;
  for (size_t ex = 0; ex < 16; ++ex) {
    examples.emplace_back(
        std::vector<size_t>{512},
        std::vector<float>(xb.data() + ex * 512,
                           xb.data() + (ex + 1) * 512));
    grads.emplace_back(std::vector<size_t>{32},
                       std::vector<float>(gyb.data() + ex * 32,
                                          gyb.data() + (ex + 1) * 32));
  }
  for (auto _ : state) {
    for (size_t ex = 0; ex < 16; ++ex) {
      benchmark::DoNotOptimize(linear.Forward(examples[ex]));
      linear.ZeroGrad();
      benchmark::DoNotOptimize(linear.Backward(grads[ex]));
    }
  }
  state.SetItemsProcessed(state.iterations() * 16 * 512 * 32);
}
BENCHMARK(BM_LinearBackwardBatchPerExample)->Unit(benchmark::kMicrosecond);

// --- Batched GroupNorm / pooling: one threaded dispatch per microbatch
// (previously a serial per-example loop inside ForwardBatch). Shape is
// the post-conv CNN stage activation: (16, 32, 32, 32).

Tensor RandomStageBatch(uint64_t seed) {
  SplitRng rng(seed);
  Tensor x({kBatch, kOutCh, kImg, kImg});
  x.FillGaussian(&rng, 1.0);
  return x;
}

void BM_GroupNormForwardBatch(benchmark::State& state) {
  nn::GroupNorm gn(4, kOutCh, 1e-5, /*affine=*/false);
  Tensor x = RandomStageBatch(17);
  for (auto _ : state) {
    benchmark::DoNotOptimize(gn.ForwardBatch(x));
  }
  state.SetItemsProcessed(state.iterations() * x.size());
}
BENCHMARK(BM_GroupNormForwardBatch)->Unit(benchmark::kMicrosecond);

void BM_GroupNormBackwardBatch(benchmark::State& state) {
  nn::GroupNorm gn(4, kOutCh, 1e-5, /*affine=*/false);
  Tensor x = RandomStageBatch(17);
  Tensor y = gn.ForwardBatch(x);
  SplitRng rng(19);
  Tensor gy(y.shape());
  gy.FillGaussian(&rng, 1.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(gn.BackwardBatch(gy, {}));
  }
  state.SetItemsProcessed(state.iterations() * x.size());
}
BENCHMARK(BM_GroupNormBackwardBatch)->Unit(benchmark::kMicrosecond);

void BM_PoolForwardBatch(benchmark::State& state) {
  nn::AdaptiveAvgPool2d pool(4, 4);
  Tensor x = RandomStageBatch(23);
  for (auto _ : state) {
    benchmark::DoNotOptimize(pool.ForwardBatch(x));
  }
  state.SetItemsProcessed(state.iterations() * x.size());
}
BENCHMARK(BM_PoolForwardBatch)->Unit(benchmark::kMicrosecond);

// Raw GEMM throughput at the conv-lowered shape:
// (32 × 27) · (27 × 1024) per forward.
void BM_GemmConvShape(benchmark::State& state) {
  size_t m = kOutCh, k = kInCh * kKernel * kKernel, n = kImg * kImg;
  SplitRng rng(9);
  std::vector<float> a(m * k), b(k * n), c(m * n);
  rng.FillGaussian(a.data(), a.size(), 1.0);
  rng.FillGaussian(b.data(), b.size(), 1.0);
  for (auto _ : state) {
    nn::GemmNN(m, k, n, a.data(), b.data(), c.data());
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * m * k * n);
}
BENCHMARK(BM_GemmConvShape)->Unit(benchmark::kMicrosecond);

// Batched Linear forward at the e2e model shape (batch 16, 512→32).
void BM_LinearForwardBatch(benchmark::State& state) {
  nn::Linear linear(512, 32);
  SplitRng rng(11);
  linear.InitParams(&rng);
  Tensor x({16, 512});
  x.FillGaussian(&rng, 1.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(linear.ForwardBatch(x));
  }
  state.SetItemsProcessed(state.iterations() * 16 * 512 * 32);
}
BENCHMARK(BM_LinearForwardBatch)->Unit(benchmark::kMicrosecond);

data::DatasetBundle ImageBundle(size_t side) {
  data::SyntheticSpec spec;
  spec.num_classes = 10;
  spec.feature_dim = side * side;
  spec.image_h = side;
  spec.image_w = side;
  spec.train_size = 256;
  spec.val_size = 32;
  spec.test_size = 32;
  auto b = data::GenerateSynthetic(spec, 13);
  if (!b.ok()) {
    std::fprintf(stderr, "FATAL: synthetic bundle: %s\n",
                 b.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(b).value();
}

data::DatasetBundle FlatBundle() {
  data::SyntheticSpec spec;
  spec.num_classes = 10;
  spec.feature_dim = 64;
  spec.train_size = 256;
  spec.val_size = 32;
  spec.test_size = 32;
  auto b = data::GenerateSynthetic(spec, 13);
  if (!b.ok()) {
    std::fprintf(stderr, "FATAL: synthetic bundle: %s\n",
                 b.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(b).value();
}

// One full DP local step (Algorithm 1 lines 5-11): microbatch gradients,
// momentum, normalization, upload — the per-round unit of worker cost.
void LocalStep(benchmark::State& state, const data::DatasetBundle& bundle,
               nn::ModelFactory factory) {
  fl::WorkerOptions opts;
  opts.batch_size = 16;
  opts.sigma = 0.3;
  fl::HonestDpWorker worker(0, data::DatasetView::All(&bundle.train),
                            factory, opts, 17);
  std::vector<float> params(worker.dim(), 0.01f);
  int round = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(worker.ComputeUpdate(params, round++));
  }
  state.counters["d"] = static_cast<double>(worker.dim());
  state.SetItemsProcessed(state.iterations() * opts.batch_size);
}

void BM_LocalStepMlp(benchmark::State& state) {
  data::DatasetBundle bundle = FlatBundle();
  LocalStep(state, bundle, nn::MlpFactory(64, 128, 10));
}
BENCHMARK(BM_LocalStepMlp)->Unit(benchmark::kMillisecond);

void BM_LocalStepCnn(benchmark::State& state) {
  data::DatasetBundle bundle = ImageBundle(32);
  LocalStep(state, bundle, nn::CnnFactory(1, kOutCh, kKernel, 10));
}
BENCHMARK(BM_LocalStepCnn)->Unit(benchmark::kMillisecond);

// --- Whole-CNN batched step: the per-layer ForwardBatch /
// BackwardBatch loop (one dispatch per Conv2d / Linear per direction).
// Forward-only and forward+loss+backward variants; the backward variant
// times the full round trip (the cached-state contract ties each
// backward to its own forward).

std::unique_ptr<nn::Sequential> StepCnn(SplitRng* rng) {
  std::unique_ptr<nn::Sequential> model =
      nn::CnnFactory(1, kOutCh, kKernel, 10)();
  model->InitParams(rng);
  return model;
}

void BM_LocalStepCnnForward(benchmark::State& state) {
  SplitRng rng(31);
  std::unique_ptr<nn::Sequential> model = StepCnn(&rng);
  constexpr size_t kN = 16;
  Tensor batch({kN, 1, kImg, kImg});
  batch.FillGaussian(&rng, 1.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model->ForwardBatch(batch));
  }
  state.SetItemsProcessed(state.iterations() * kN);
}
BENCHMARK(BM_LocalStepCnnForward)->Unit(benchmark::kMillisecond);

// The backward-dominated unit of the worker step in isolation: batched
// forward + loss + per-example-gradient backward through the whole CNN.
// This is the surface the batched backward GEMMs accelerate
// (BM_LocalStepCnn adds clipping, momentum and noise on top).
void BM_LocalStepCnnBackward(benchmark::State& state) {
  SplitRng rng(31);
  std::unique_ptr<nn::Sequential> model = StepCnn(&rng);
  constexpr size_t kN = 16;
  Tensor batch({kN, 1, kImg, kImg});
  batch.FillGaussian(&rng, 1.0);
  std::vector<size_t> labels(kN);
  for (size_t ex = 0; ex < kN; ++ex) labels[ex] = ex % 10;
  size_t dim = model->NumParams();
  std::vector<float> grads(kN * dim);
  for (auto _ : state) {
    Tensor logits = model->ForwardBatch(batch);
    nn::BatchLossGrad lg = nn::SoftmaxCrossEntropyBatch(logits, labels);
    benchmark::DoNotOptimize(
        model->BackwardBatchTo(lg.grad_logits, kN, grads.data()));
  }
  state.counters["d"] = static_cast<double>(dim);
  state.SetItemsProcessed(state.iterations() * kN);
}
BENCHMARK(BM_LocalStepCnnBackward)->Unit(benchmark::kMillisecond);

// GEMM conv must agree with itself bit-for-bit across pool sizes, and
// with the naive kernel to 1e-4 — checked before the timing loops so a
// regression fails the bench smoke job loudly.
void CheckConvDeterminism() {
  size_t hw = std::max<size_t>(4, std::thread::hardware_concurrency());
  Tensor x = RandomImage(5);
  std::vector<Tensor> outs;
  for (size_t threads : {size_t{1}, size_t{2}, hw}) {
    ThreadPool pool(threads);
    ScopedPoolOverride override_pool(&pool);
    nn::Conv2d conv = MakeConv(nn::Conv2dKernel::kGemm);
    outs.push_back(conv.Forward(x));
  }
  for (size_t i = 1; i < outs.size(); ++i) {
    for (size_t j = 0; j < outs[0].size(); ++j) {
      if (outs[0][j] != outs[i][j]) {
        std::fprintf(stderr,
                     "FATAL: GEMM conv differs across pool sizes\n");
        std::exit(1);
      }
    }
  }
  nn::Conv2d naive = MakeConv(nn::Conv2dKernel::kNaive);
  Tensor yn = naive.Forward(x);
  for (size_t j = 0; j < yn.size(); ++j) {
    double scale = std::max(1.0, std::abs(static_cast<double>(yn[j])));
    if (std::abs(static_cast<double>(yn[j]) - outs[0][j]) > 1e-4 * scale) {
      std::fprintf(stderr, "FATAL: GEMM conv diverges from naive kernel\n");
      std::exit(1);
    }
  }
  // The batched conv forward must reproduce the per-example forward bit
  // for bit (same per-element accumulation order).
  nn::Conv2d conv = MakeConv(nn::Conv2dKernel::kGemm);
  Tensor xb = RandomBatch(13);
  Tensor yb = conv.ForwardBatch(xb);
  size_t feat = kInCh * kImg * kImg;
  size_t out_stride = kOutCh * kImg * kImg;
  for (size_t ex = 0; ex < kBatch; ++ex) {
    Tensor one({kInCh, kImg, kImg},
               std::vector<float>(xb.data() + ex * feat,
                                  xb.data() + (ex + 1) * feat));
    Tensor y = conv.Forward(one);
    for (size_t j = 0; j < y.size(); ++j) {
      if (yb[ex * out_stride + j] != y[j]) {
        std::fprintf(stderr,
                     "FATAL: batched conv forward differs from per-example\n");
        std::exit(1);
      }
    }
  }
  // The batched conv backward (one dispatch: sink dW/db rows + col2im dX)
  // must likewise reproduce the per-example backward bit for bit.
  SplitRng grng(37);
  Tensor gyb({kBatch, kOutCh, kImg, kImg});
  gyb.FillGaussian(&grng, 1.0);
  size_t dim = conv.NumParams();
  std::vector<float> sink(kBatch * dim, 0.0f);
  conv.ForwardBatch(xb);  // re-arm the batched caches after the loop above
  Tensor dxb = conv.BackwardBatch(gyb, {sink.data(), dim, 0});
  for (size_t ex = 0; ex < kBatch; ++ex) {
    Tensor one({kInCh, kImg, kImg},
               std::vector<float>(xb.data() + ex * feat,
                                  xb.data() + (ex + 1) * feat));
    Tensor gy({kOutCh, kImg, kImg},
              std::vector<float>(gyb.data() + ex * out_stride,
                                 gyb.data() + (ex + 1) * out_stride));
    conv.Forward(one);
    conv.ZeroGrad();
    Tensor dx = conv.Backward(gy);
    std::vector<float> ex_grads;
    for (const nn::ParamView& v : conv.Params()) {
      ex_grads.insert(ex_grads.end(), v.grad, v.grad + v.size);
    }
    for (size_t j = 0; j < dx.size(); ++j) {
      if (dxb[ex * feat + j] != dx[j]) {
        std::fprintf(stderr,
                     "FATAL: batched conv backward dX differs from "
                     "per-example\n");
        std::exit(1);
      }
    }
    for (size_t j = 0; j < dim; ++j) {
      if (sink[ex * dim + j] != ex_grads[j]) {
        std::fprintf(stderr,
                     "FATAL: batched conv backward sink row differs "
                     "from per-example gradients\n");
        std::exit(1);
      }
    }
  }
  std::fprintf(stderr,
               "conv determinism check: pools {1,2,%zu} bit-identical, "
               "naive agreement within 1e-4, batched fwd+bwd == "
               "per-example\n",
               hw);
}

}  // namespace

int main(int argc, char** argv) {
  CheckConvDeterminism();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
