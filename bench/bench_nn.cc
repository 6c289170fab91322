// Micro-benchmarks (google-benchmark) for the nn compute layer: the
// im2col+GEMM Conv2d against the direct loop nest of
// tests/nn/conv2d_reference.h at the CIFAR-like acceptance shape (3→32
// channels, 32×32, k=3), raw GEMM throughput, Linear, GroupNorm and
// pooling passes, and a full DP worker local step
// (HonestDpWorker::ComputeUpdateInto) on both MLP and CNN models. Every
// layer entry times kExamples one-example passes per iteration, the
// one-thread passes a federated round runs inside its pool tasks.
//
// Before timing, main() asserts at the acceptance shape that the GEMM
// conv is bit-identical under serial and parallel pools and agrees with
// the direct loop nest, mirroring bench_micro's Krum determinism check.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "data/synthetic.h"
#include "fl/worker.h"
#include "nn/conv2d.h"
#include "nn/conv2d_reference.h"
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

constexpr nn::ConvGeometry kGeometry = {kInCh, kOutCh, kKernel, kPad};

nn::Conv2d MakeConv() {
  nn::Conv2d conv(kInCh, kOutCh, kKernel, kPad);
  SplitRng rng(3);
  conv.InitParams(&rng);
  return conv;
}

// --- Conv forward: the im2col + GEMM pass against the direct loop
// nest, each over kExamples examples.

constexpr size_t kExamples = 16;

// kExamples examples of shape (1, ch, kImg, kImg).
std::vector<Tensor> RandomExamples(size_t ch, uint64_t seed) {
  SplitRng rng(seed);
  std::vector<Tensor> examples;
  for (size_t ex = 0; ex < kExamples; ++ex) {
    Tensor x({1, ch, kImg, kImg});
    x.FillGaussian(&rng, 1.0);
    examples.push_back(std::move(x));
  }
  return examples;
}

void BM_Conv2dForwardBatch(benchmark::State& state) {
  nn::Conv2d conv = MakeConv();
  std::vector<Tensor> examples = RandomExamples(kInCh, 13);
  for (auto _ : state) {
    for (const Tensor& x : examples) {
      benchmark::DoNotOptimize(conv.ForwardBatch(x));
    }
  }
  state.SetItemsProcessed(state.iterations() * kExamples * kOutCh * kImg *
                          kImg);
}
BENCHMARK(BM_Conv2dForwardBatch)->Unit(benchmark::kMicrosecond);

void BM_Conv2dForwardBatchNaive(benchmark::State& state) {
  nn::Conv2d conv = MakeConv();
  std::vector<nn::ParamView> params = conv.Params();
  std::vector<Tensor> examples = RandomExamples(kInCh, 13);
  for (auto _ : state) {
    for (const Tensor& x : examples) {
      benchmark::DoNotOptimize(
          nn::ReferenceConv2dForward(params, kGeometry, x));
    }
  }
  state.SetItemsProcessed(state.iterations() * kExamples * kOutCh * kImg *
                          kImg);
}
BENCHMARK(BM_Conv2dForwardBatchNaive)->Unit(benchmark::kMicrosecond);

// --- Conv backward: dW/db into a re-zeroed gradient row plus dX via
// col2im. Every backward needs its own forward, so each example times a
// full forward+backward round trip.

void BM_Conv2dBackwardBatch(benchmark::State& state) {
  nn::Conv2d conv = MakeConv();
  std::vector<Tensor> examples = RandomExamples(kInCh, 13);
  std::vector<Tensor> grads = RandomExamples(kOutCh, 29);
  std::vector<float> row(conv.NumParams());
  for (auto _ : state) {
    for (size_t ex = 0; ex < kExamples; ++ex) {
      benchmark::DoNotOptimize(conv.ForwardBatch(examples[ex]));
      std::fill(row.begin(), row.end(), 0.0f);
      benchmark::DoNotOptimize(conv.BackwardBatch(grads[ex], {row.data(), 0}));
    }
  }
  state.SetItemsProcessed(state.iterations() * kExamples * kOutCh * kImg *
                          kImg);
}
BENCHMARK(BM_Conv2dBackwardBatch)->Unit(benchmark::kMicrosecond);

// Linear forward+backward (dW/db into a re-zeroed gradient row, one dX
// GEMM) at the e2e model shape, 512→32.
void BM_LinearBackwardBatch(benchmark::State& state) {
  nn::Linear linear(512, 32);
  SplitRng rng(11);
  linear.InitParams(&rng);
  std::vector<Tensor> examples, grads;
  for (size_t ex = 0; ex < kExamples; ++ex) {
    Tensor x({1, 512});
    x.FillGaussian(&rng, 1.0);
    examples.push_back(std::move(x));
    Tensor gy({1, 32});
    gy.FillGaussian(&rng, 1.0);
    grads.push_back(std::move(gy));
  }
  std::vector<float> row(linear.NumParams());
  for (auto _ : state) {
    for (size_t ex = 0; ex < kExamples; ++ex) {
      benchmark::DoNotOptimize(linear.ForwardBatch(examples[ex]));
      std::fill(row.begin(), row.end(), 0.0f);
      benchmark::DoNotOptimize(
          linear.BackwardBatch(grads[ex], {row.data(), 0}));
    }
  }
  state.SetItemsProcessed(state.iterations() * kExamples * 512 * 32);
}
BENCHMARK(BM_LinearBackwardBatch)->Unit(benchmark::kMicrosecond);

// --- GroupNorm / pooling at the post-conv CNN stage activation shape:
// (1, 32, 32, 32) per example.

void BM_GroupNormForwardBatch(benchmark::State& state) {
  nn::GroupNorm gn(4, kOutCh);
  std::vector<Tensor> examples = RandomExamples(kOutCh, 17);
  for (auto _ : state) {
    for (const Tensor& x : examples) {
      benchmark::DoNotOptimize(gn.ForwardBatch(x));
    }
  }
  state.SetItemsProcessed(state.iterations() * kExamples * kOutCh * kImg *
                          kImg);
}
BENCHMARK(BM_GroupNormForwardBatch)->Unit(benchmark::kMicrosecond);

// The backward of one forward, once per example gradient: a backward
// reads only its forward's cache, so the work matches kExamples
// forward+backward pairs minus the forwards.
void BM_GroupNormBackwardBatch(benchmark::State& state) {
  nn::GroupNorm gn(4, kOutCh);
  gn.ForwardBatch(RandomExamples(kOutCh, 17)[0]);
  std::vector<Tensor> grads = RandomExamples(kOutCh, 19);
  for (auto _ : state) {
    for (const Tensor& gy : grads) {
      benchmark::DoNotOptimize(gn.BackwardBatch(gy, {}));
    }
  }
  state.SetItemsProcessed(state.iterations() * kExamples * kOutCh * kImg *
                          kImg);
}
BENCHMARK(BM_GroupNormBackwardBatch)->Unit(benchmark::kMicrosecond);

void BM_PoolForwardBatch(benchmark::State& state) {
  nn::AdaptiveAvgPool2d pool(4, 4);
  std::vector<Tensor> examples = RandomExamples(kOutCh, 23);
  for (auto _ : state) {
    for (const Tensor& x : examples) {
      benchmark::DoNotOptimize(pool.ForwardBatch(x));
    }
  }
  state.SetItemsProcessed(state.iterations() * kExamples * kOutCh * kImg *
                          kImg);
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

// --- Conv data movement at the paper CNN's 16→16 k=5 same-padded
// layer (12×12 input), one example: the im2col panel expansion (run in
// the forward and again in the backward) and the col2im scatter-add of
// the dX panel. BM_Im2ColRowwiseRef is the loop Im2Col replaced (one
// bounds-checked memset/memcpy per 12-float output row), same bytes.
constexpr size_t kMoveCh = 16;
constexpr size_t kMoveImg = 12;
constexpr size_t kMoveKernel = 5;
constexpr size_t kMovePad = 2;
// Same padding, so OH = OW = 12.
constexpr size_t kMovePanel =
    kMoveCh * kMoveKernel * kMoveKernel * kMoveImg * kMoveImg;

void RowwiseIm2Col(const float* x, size_t channels, size_t h, size_t w,
                   size_t kernel, size_t pad, float* col) {
  size_t oh = h + 2 * pad - kernel + 1;
  size_t ow = w + 2 * pad - kernel + 1;
  size_t q = oh * ow;
  for (size_t ic = 0; ic < channels; ++ic) {
    const float* plane = x + ic * h * w;
    for (size_t kh = 0; kh < kernel; ++kh) {
      for (size_t kw = 0; kw < kernel; ++kw) {
        float* row = col + ((ic * kernel + kh) * kernel + kw) * q;
        for (size_t i = 0; i < oh; ++i) {
          float* dst = row + i * ow;
          long long ih = static_cast<long long>(i + kh) -
                         static_cast<long long>(pad);
          if (ih < 0 || ih >= static_cast<long long>(h)) {
            std::memset(dst, 0, ow * sizeof(float));
            continue;
          }
          size_t j_lo = pad > kw ? pad - kw : 0;
          size_t j_hi = w + pad > kw ? std::min(ow, w + pad - kw) : 0;
          if (j_lo >= j_hi) {
            std::memset(dst, 0, ow * sizeof(float));
            continue;
          }
          std::memset(dst, 0, j_lo * sizeof(float));
          std::memcpy(dst + j_lo,
                      plane + static_cast<size_t>(ih) * w + (j_lo + kw - pad),
                      (j_hi - j_lo) * sizeof(float));
          std::memset(dst + j_hi, 0, (ow - j_hi) * sizeof(float));
        }
      }
    }
  }
}

std::vector<float> MoveImage() {
  std::vector<float> x(kMoveCh * kMoveImg * kMoveImg);
  SplitRng rng(41);
  rng.FillGaussian(x.data(), x.size(), 1.0);
  return x;
}

void BM_Im2Col(benchmark::State& state) {
  std::vector<float> x = MoveImage();
  std::vector<float> col(kMovePanel);
  for (auto _ : state) {
    nn::Im2Col(x.data(), kMoveCh, kMoveImg, kMoveImg, kMoveKernel, kMovePad,
               col.data());
    benchmark::DoNotOptimize(col.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(state.iterations() * kMovePanel * sizeof(float));
}
BENCHMARK(BM_Im2Col)->Unit(benchmark::kMicrosecond);

void BM_Im2ColRowwiseRef(benchmark::State& state) {
  std::vector<float> x = MoveImage();
  std::vector<float> col(kMovePanel);
  for (auto _ : state) {
    RowwiseIm2Col(x.data(), kMoveCh, kMoveImg, kMoveImg, kMoveKernel,
                  kMovePad, col.data());
    benchmark::DoNotOptimize(col.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(state.iterations() * kMovePanel * sizeof(float));
}
BENCHMARK(BM_Im2ColRowwiseRef)->Unit(benchmark::kMicrosecond);

void BM_Col2ImAccumulate(benchmark::State& state) {
  std::vector<float> dcol(kMovePanel);
  SplitRng rng(43);
  rng.FillGaussian(dcol.data(), dcol.size(), 1.0);
  std::vector<float> dx(kMoveCh * kMoveImg * kMoveImg, 0.0f);
  for (auto _ : state) {
    nn::Col2ImAccumulate(dcol.data(), kMoveCh, kMoveImg, kMoveImg,
                         kMoveKernel, kMovePad, dx.data());
    benchmark::DoNotOptimize(dx.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(state.iterations() * kMovePanel * sizeof(float));
}
BENCHMARK(BM_Col2ImAccumulate)->Unit(benchmark::kMicrosecond);

// Linear forward at the e2e model shape (512→32).
void BM_LinearForwardBatch(benchmark::State& state) {
  nn::Linear linear(512, 32);
  SplitRng rng(11);
  linear.InitParams(&rng);
  std::vector<Tensor> examples;
  for (size_t ex = 0; ex < kExamples; ++ex) {
    Tensor x({1, 512});
    x.FillGaussian(&rng, 1.0);
    examples.push_back(std::move(x));
  }
  for (auto _ : state) {
    for (const Tensor& x : examples) {
      benchmark::DoNotOptimize(linear.ForwardBatch(x));
    }
  }
  state.SetItemsProcessed(state.iterations() * kExamples * 512 * 32);
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

// One full DP local step (Algorithm 1 lines 5-11): per-example gradients,
// momentum, normalization, upload — the per-round unit of worker cost.
void LocalStep(benchmark::State& state, const data::DatasetBundle& bundle,
               nn::ModelFactory factory) {
  fl::WorkerOptions opts;
  opts.batch_size = 16;
  opts.sigma = 0.3;
  fl::HonestDpWorker worker(0, data::DatasetView::All(&bundle.train),
                            factory, opts, 17);
  std::vector<float> params(worker.dim(), 0.01f);
  std::vector<float> upload(worker.dim());
  int round = 1;
  for (auto _ : state) {
    worker.ComputeUpdateInto(params, round++, upload.data());
    benchmark::DoNotOptimize(upload.data());
    benchmark::ClobberMemory();
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

// --- Whole-CNN passes: the per-layer ForwardBatch / BackwardBatch loop
// of kExamples examples, all on the calling thread. Forward-only and
// forward+loss+backward variants; the backward variant times the full
// round trip (the cached-state contract ties each backward to its own
// forward).

std::unique_ptr<nn::Sequential> StepCnn(SplitRng* rng) {
  std::unique_ptr<nn::Sequential> model =
      nn::CnnFactory(1, kOutCh, kKernel, 10)();
  model->InitParams(rng);
  return model;
}

void BM_LocalStepCnnForward(benchmark::State& state) {
  SplitRng rng(31);
  std::unique_ptr<nn::Sequential> model = StepCnn(&rng);
  std::vector<Tensor> examples = RandomExamples(1, 37);
  for (auto _ : state) {
    for (const Tensor& x : examples) {
      benchmark::DoNotOptimize(model->ForwardBatch(x));
    }
  }
  state.SetItemsProcessed(state.iterations() * kExamples);
}
BENCHMARK(BM_LocalStepCnnForward)->Unit(benchmark::kMillisecond);

// The backward-dominated unit of the worker step in isolation: forward +
// loss + per-example-gradient backward through the whole CNN, each
// example into the one gradient row a slot keeps (BM_LocalStepCnn adds
// normalization, momentum and noise on top).
void BM_LocalStepCnnBackward(benchmark::State& state) {
  SplitRng rng(31);
  std::unique_ptr<nn::Sequential> model = StepCnn(&rng);
  std::vector<Tensor> examples = RandomExamples(1, 37);
  size_t dim = model->NumParams();
  std::vector<float> row(dim);
  for (auto _ : state) {
    for (size_t ex = 0; ex < kExamples; ++ex) {
      nn::LossGrad lg =
          nn::SoftmaxCrossEntropy(model->ForwardBatch(examples[ex]), ex % 10);
      benchmark::DoNotOptimize(model->BackwardTo(lg.grad_logits, row.data()));
    }
  }
  state.counters["d"] = static_cast<double>(dim);
  state.SetItemsProcessed(state.iterations() * kExamples);
}
BENCHMARK(BM_LocalStepCnnBackward)->Unit(benchmark::kMillisecond);

// GEMM conv must agree with itself bit-for-bit across pool sizes and
// with the naive kernel to 1e-4 — checked before the timing loops so a
// regression fails the bench smoke job loudly.
void Fail(const char* what) {
  std::fprintf(stderr, "FATAL: %s\n", what);
  std::exit(1);
}

void CheckConvDeterminism() {
  size_t hw = std::max<size_t>(4, std::thread::hardware_concurrency());
  std::vector<Tensor> examples = RandomExamples(kInCh, 13);
  std::vector<std::vector<Tensor>> outs;
  for (size_t threads : {size_t{1}, size_t{2}, hw}) {
    ThreadPool pool(threads);
    ScopedPoolOverride override_pool(&pool);
    nn::Conv2d conv = MakeConv();
    outs.emplace_back();
    for (const Tensor& x : examples) {
      outs.back().push_back(conv.ForwardBatch(x));
    }
  }
  nn::Conv2d ref = MakeConv();
  for (size_t ex = 0; ex < kExamples; ++ex) {
    const Tensor& y = outs[0][ex];
    for (size_t i = 1; i < outs.size(); ++i) {
      for (size_t j = 0; j < y.size(); ++j) {
        if (y[j] != outs[i][ex][j]) Fail("GEMM conv differs across pools");
      }
    }
    Tensor yn = nn::ReferenceConv2dForward(ref.Params(), kGeometry,
                                           examples[ex]);
    for (size_t j = 0; j < yn.size(); ++j) {
      double scale = std::max(1.0, std::abs(static_cast<double>(yn[j])));
      if (std::abs(static_cast<double>(yn[j]) - y[j]) > 1e-4 * scale) {
        Fail("GEMM conv diverges from naive kernel");
      }
    }
  }
  std::fprintf(stderr,
               "conv determinism check: pools {1,2,%zu} bit-identical, "
               "naive agreement within 1e-4\n",
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
