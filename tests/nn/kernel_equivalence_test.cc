// Contract tests for the GEMM-backed compute layer:
//  * the im2col+GEMM Conv2d agrees with the direct loop nest of
//    conv2d_reference.h to 1e-4 relative tolerance (forward, input
//    grads, parameter grads), and Linear with a double-accumulated
//    triple loop to 1e-5,
//  * GEMM results are bit-identical under thread pools of size 1, 2 and
//    hardware concurrency (the determinism contract),
//  * per-example separation: row j of a batch-N pass — output, input
//    gradient and the per-example parameter-gradient row the DP protocol
//    clips — is bitwise equal to the batch-1 pass of example j alone,
//  * layers compute on the calling thread: no layer's batched pass, and
//    no whole model's forward + loss + backward, issues a dispatch, and
//  * the cached-state contract holds: a backward with no forward before
//    it dies loudly, while interleaved batch sizes (evaluation between
//    training steps) stay bitwise correct.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/simd.h"
#include "common/thread_pool.h"
#include "nn/activations.h"
#include "nn/conv2d.h"
#include "nn/conv2d_reference.h"
#include "nn/gemm.h"
#include "nn/group_norm.h"
#include "nn/linear.h"
#include "nn/loss.h"
#include "nn/model_zoo.h"
#include "nn/pooling.h"
#include "nn/sequential.h"

namespace dpbr {
namespace nn {
namespace {

Tensor RandomTensor(std::vector<size_t> shape, uint64_t seed) {
  SplitRng rng(seed);
  Tensor x(std::move(shape));
  x.FillGaussian(&rng, 1.0);
  return x;
}

void ExpectNear(const Tensor& a, const Tensor& b, double rel_tol) {
  ASSERT_EQ(a.shape(), b.shape());
  for (size_t i = 0; i < a.size(); ++i) {
    double av = a[i], bv = b[i];
    double scale = std::max(1.0, std::max(std::abs(av), std::abs(bv)));
    EXPECT_NEAR(av, bv, rel_tol * scale) << "index " << i;
  }
}

void ExpectNear(const std::vector<float>& a, const std::vector<float>& b,
                double rel_tol) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    double av = a[i], bv = b[i];
    double scale = std::max(1.0, std::max(std::abs(av), std::abs(bv)));
    EXPECT_NEAR(av, bv, rel_tol * scale) << "index " << i;
  }
}

std::vector<size_t> WithBatch(size_t n, const std::vector<size_t>& shape) {
  std::vector<size_t> s;
  s.push_back(n);
  for (size_t d : shape) s.push_back(d);
  return s;
}

// Example `ex` of a batch tensor, as a batch of 1.
Tensor Row(const Tensor& batch, size_t ex) {
  std::vector<size_t> shape = batch.shape();
  size_t stride = batch.size() / shape[0];
  shape[0] = 1;
  return Tensor(shape, std::vector<float>(batch.data() + ex * stride,
                                          batch.data() + (ex + 1) * stride));
}

// One ForwardBatch + BackwardBatch through `layer`: the output, the input
// gradient and the sink (batch × NumParams, pre-zeroed). `gy` is drawn
// from `gy_seed` at the output's shape.
struct Pass {
  Tensor y;
  Tensor gy;
  Tensor dx;
  std::vector<float> sink;
};

Pass RunPass(Layer* layer, const Tensor& x, uint64_t gy_seed) {
  Pass r;
  r.y = layer->ForwardBatch(x);
  r.gy = RandomTensor(r.y.shape(), gy_seed);
  size_t dim = layer->NumParams();
  r.sink.assign(x.dim(0) * dim, 0.0f);
  r.dx = layer->BackwardBatch(r.gy, {r.sink.data(), dim, 0});
  return r;
}

// Asserts row `ex` of `batch` equals the batch-1 tensor `one` bitwise.
void ExpectRowBitwise(const Tensor& batch, size_t ex, const Tensor& one,
                      const std::string& what) {
  size_t stride = batch.size() / batch.dim(0);
  ASSERT_EQ(one.size(), stride) << what;
  for (size_t i = 0; i < stride; ++i) {
    ASSERT_EQ(batch[ex * stride + i], one[i])
        << what << " ex " << ex << " index " << i;
  }
}

// The per-example separation DP clipping needs: at N = 1, 3, 7 (N=1 the
// degenerate microbatch, 3 and 7 leaving ragged parallel blocks), row j
// of a batch-N pass — output, dX and sink row — must be bitwise equal to
// the batch-1 pass of example j alone.
void CheckRowsMatchBatchOfOne(Layer* layer,
                              const std::vector<size_t>& ex_shape,
                              uint64_t seed) {
  for (size_t n : {size_t{1}, size_t{3}, size_t{7}}) {
    SCOPED_TRACE("batch " + std::to_string(n));
    Tensor xb = RandomTensor(WithBatch(n, ex_shape), seed + n);
    Pass batch = RunPass(layer, xb, seed + 100 + n);
    size_t dim = layer->NumParams();
    for (size_t ex = 0; ex < n; ++ex) {
      Tensor y = layer->ForwardBatch(Row(xb, ex));
      std::vector<float> row(dim, 0.0f);
      Tensor dx =
          layer->BackwardBatch(Row(batch.gy, ex), {row.data(), dim, 0});
      ExpectRowBitwise(batch.y, ex, y, "y");
      ExpectRowBitwise(batch.dx, ex, dx, "dx");
      for (size_t i = 0; i < dim; ++i) {
        ASSERT_EQ(batch.sink[ex * dim + i], row[i])
            << "ex " << ex << " param " << i;
      }
    }
  }
}

struct ConvCase {
  size_t in_ch, out_ch, k, pad, h, w;
};

ConvGeometry Geometry(const ConvCase& c) {
  return {c.in_ch, c.out_ch, c.k, c.pad};
}

// A Conv2d for case `c`, initialized from `seed`.
std::unique_ptr<Conv2d> MakeConv(const ConvCase& c, uint64_t seed) {
  auto conv = std::make_unique<Conv2d>(c.in_ch, c.out_ch, c.k, c.pad);
  SplitRng rng(seed);
  conv->InitParams(&rng);
  return conv;
}

// CIFAR-like (the acceptance shape), deeper same-padded, edge cases
// where the padded kernel overhangs most of the input, and the paper
// CNN's two conv shapes.
const ConvCase kCases[] = {
    {3, 32, 3, 1, 32, 32},
    {16, 16, 3, 1, 8, 8},
    {1, 4, 5, 2, 7, 9},
    {2, 3, 3, 0, 6, 6},
    {4, 8, 1, 0, 5, 5},
    {1, 2, 7, 3, 3, 3},  // kernel overhangs the whole padded input
    // The paper CNN's conv layers, the shapes a federated round runs.
    {1, 16, 5, 0, 16, 16},
    {16, 16, 5, 2, 12, 12},
};

TEST(KernelEquivalenceTest, ConvForwardBatchMatchesNaiveBatch) {
  for (size_t batch : {size_t{1}, size_t{3}, size_t{7}}) {
    for (const ConvCase& c : kCases) {
      std::unique_ptr<Conv2d> conv = MakeConv(c, 61);
      Tensor xb = RandomTensor({batch, c.in_ch, c.h, c.w}, 67 + batch);
      ExpectNear(conv->ForwardBatch(xb),
                 ReferenceConv2dForward(conv->Params(), Geometry(c), xb),
                 1e-4);
    }
  }
}

TEST(KernelEquivalenceTest, ConvBackwardBatchMatchesNaiveBatch) {
  for (const ConvCase& c : kCases) {
    std::unique_ptr<Conv2d> conv = MakeConv(c, 13);
    Tensor xb = RandomTensor({3, c.in_ch, c.h, c.w}, 23);
    Pass g = RunPass(conv.get(), xb, 31);
    size_t dim = conv->NumParams();
    std::vector<float> sink(3 * dim, 0.0f);
    Tensor dx = ReferenceConv2dBackward(conv->Params(), Geometry(c), xb, g.gy,
                                        {sink.data(), dim, 0});
    ExpectNear(g.dx, dx, 1e-4);
    ExpectNear(g.sink, sink, 1e-4);
  }
}

// Conv forward + backward (y, dx and sink rows) must be bit-identical
// under pool sizes 1, 2 and hardware concurrency, for a lone example
// and for a microbatch that splits across threads.
TEST(KernelEquivalenceTest, ConvBatchPoolInvariant) {
  size_t hw = std::max<size_t>(2, std::thread::hardware_concurrency());
  for (size_t batch : {size_t{1}, size_t{7}}) {
    for (const ConvCase& c : kCases) {
      std::vector<Pass> runs;
      for (size_t threads : {size_t{1}, size_t{2}, hw}) {
        ThreadPool pool(threads);
        ScopedPoolOverride override_pool(&pool);
        std::unique_ptr<Conv2d> conv = MakeConv(c, 229);
        Tensor xb = RandomTensor({batch, c.in_ch, c.h, c.w}, 233);
        runs.push_back(RunPass(conv.get(), xb, 239));
      }
      for (size_t i = 1; i < runs.size(); ++i) {
        for (size_t j = 0; j < runs[0].y.size(); ++j) {
          ASSERT_EQ(runs[0].y[j], runs[i].y[j]) << "pool run " << i;
        }
        for (size_t j = 0; j < runs[0].dx.size(); ++j) {
          ASSERT_EQ(runs[0].dx[j], runs[i].dx[j]) << "pool run " << i;
        }
        ASSERT_EQ(runs[0].sink, runs[i].sink) << "pool run " << i;
      }
    }
  }
}

// --- Per-example separation, layer by layer. The conv forward and
// backward run one example at a time over its own streamed im2col panel;
// each example's accumulation order is its own, so its rows never depend
// on the batch it rides in.

TEST(KernelEquivalenceTest, ConvRowsMatchBatchOfOneBitwise) {
  for (const ConvCase& c : kCases) {
    std::unique_ptr<Conv2d> conv = MakeConv(c, 193);
    CheckRowsMatchBatchOfOne(conv.get(), {c.in_ch, c.h, c.w}, 197);
  }
}

TEST(KernelEquivalenceTest, LinearRowsMatchBatchOfOneBitwise) {
  Linear linear(13, 5);
  SplitRng rng(211);
  linear.InitParams(&rng);
  CheckRowsMatchBatchOfOne(&linear, {13}, 223);
}

// Linear has a single implementation, so it is checked against a
// double-accumulated triple loop: y = W x + b, dW_j = dy_j ⊗ x_j,
// db_j = dy_j, dx_j = Wᵀ dy_j.
TEST(KernelEquivalenceTest, LinearMatchesTripleLoopReference) {
  constexpr size_t kIn = 37, kOut = 11;  // ragged against SIMD widths
  Linear linear(kIn, kOut);
  SplitRng rng(401);
  linear.InitParams(&rng);
  std::vector<ParamView> params = linear.Params();
  const float* w = params[0].value;
  // A non-zero bias, so the bias term is checked too.
  for (size_t r = 0; r < kOut; ++r) {
    params[1].value[r] = 0.1f * static_cast<float>(r + 1);
  }
  const float* b = params[1].value;
  size_t dim = linear.NumParams();
  for (size_t n : {size_t{1}, size_t{3}, size_t{7}}) {
    SCOPED_TRACE("batch " + std::to_string(n));
    Tensor xb = RandomTensor({n, kIn}, 409 + n);
    Pass got = RunPass(&linear, xb, 419 + n);
    Tensor y_ref({n, kOut});
    Tensor dx_ref({n, kIn});
    std::vector<float> sink_ref(n * dim);
    for (size_t ex = 0; ex < n; ++ex) {
      const float* x = xb.data() + ex * kIn;
      const float* gy = got.gy.data() + ex * kOut;
      float* row = sink_ref.data() + ex * dim;
      for (size_t r = 0; r < kOut; ++r) {
        double s = b[r];
        for (size_t c = 0; c < kIn; ++c) {
          s += static_cast<double>(w[r * kIn + c]) * x[c];
          row[r * kIn + c] = static_cast<float>(static_cast<double>(gy[r]) *
                                                x[c]);
        }
        y_ref[ex * kOut + r] = static_cast<float>(s);
        row[kOut * kIn + r] = gy[r];
      }
      for (size_t c = 0; c < kIn; ++c) {
        double s = 0.0;
        for (size_t r = 0; r < kOut; ++r) {
          s += static_cast<double>(w[r * kIn + c]) * gy[r];
        }
        dx_ref[ex * kIn + c] = static_cast<float>(s);
      }
    }
    ExpectNear(got.y, y_ref, 1e-5);
    ExpectNear(got.dx, dx_ref, 1e-5);
    ExpectNear(got.sink, sink_ref, 1e-5);
  }
}

TEST(KernelEquivalenceTest, GroupNormRowsMatchBatchOfOneBitwise) {
  // affine=true so the per-example sink rows are exercised too.
  GroupNorm gn(2, 6, 1e-5, /*affine=*/true);
  SplitRng rng(101);
  gn.InitParams(&rng);
  CheckRowsMatchBatchOfOne(&gn, {6, 5, 4}, 103);
}

TEST(KernelEquivalenceTest, PoolAndFlattenRowsMatchBatchOfOneBitwise) {
  AdaptiveAvgPool2d pool(4, 4);
  CheckRowsMatchBatchOfOne(&pool, {5, 9, 7}, 109);
  Flatten flatten;
  CheckRowsMatchBatchOfOne(&flatten, {3, 4, 5}, 113);
}

TEST(KernelEquivalenceTest, ActivationRowsMatchBatchOfOneBitwise) {
  Elu elu;
  CheckRowsMatchBatchOfOne(&elu, {300}, 127);  // not a SIMD-width multiple
}

// Every model-zoo family, end to end: the whole local step's rows.

TEST(KernelEquivalenceTest, CnnRowsMatchBatchOfOneBitwise) {
  std::unique_ptr<Sequential> model = MakeCnn(1, 8, 3, 4);
  SplitRng rng(41);
  model->InitParams(&rng);
  CheckRowsMatchBatchOfOne(model.get(), {1, 8, 8}, 41);
}

TEST(KernelEquivalenceTest, ResidualCnnRowsMatchBatchOfOneBitwise) {
  std::unique_ptr<Sequential> model = MakeResidualCnn(1, 8, 3, 4);
  SplitRng rng(43);
  model->InitParams(&rng);
  CheckRowsMatchBatchOfOne(model.get(), {1, 8, 8}, 43);
}

TEST(KernelEquivalenceTest, MlpRowsMatchBatchOfOneBitwise) {
  std::unique_ptr<Sequential> model = MakeMlp(20, 8, 5);
  SplitRng rng(47);
  model->InitParams(&rng);
  CheckRowsMatchBatchOfOne(model.get(), {20}, 47);
}

// --- Dispatch contract: layers compute on the calling thread. With a
// multi-thread pool and a multi-example microbatch (kN = 9, large enough
// that any per-example or per-row-block split would fan out), every
// layer's batched forward and backward, and every model-zoo family's
// whole forward + loss + backward, issue zero dispatches. A federated
// round's one dispatch is the only parallelism.
TEST(KernelEquivalenceTest, BatchedPassesDispatchNothing) {
  ThreadPool pool(4);
  ScopedPoolOverride override_pool(&pool);
  constexpr size_t kN = 9;
  const std::vector<size_t> image = {8, 24, 24};
  struct Case {
    const char* name;
    LayerPtr layer;
    std::vector<size_t> ex_shape;
  };
  Case cases[] = {
      {"Conv2d", std::make_unique<Conv2d>(8, 8, 3, 1), image},
      {"Linear", std::make_unique<Linear>(48, 10), {48}},
      {"Elu", std::make_unique<Elu>(), image},
      {"GroupNorm", std::make_unique<GroupNorm>(4, 8, 1e-5, true), image},
      {"AdaptiveAvgPool2d", std::make_unique<AdaptiveAvgPool2d>(4, 4),
       image},
      {"Flatten", std::make_unique<Flatten>(), image},
  };
  for (Case& c : cases) {
    SCOPED_TRACE(c.name);
    SplitRng rng(317);
    c.layer->InitParams(&rng);
    Tensor xb = RandomTensor(WithBatch(kN, c.ex_shape), 331);
    uint64_t before = ParallelDispatchCount();
    Tensor yb = c.layer->ForwardBatch(xb);
    EXPECT_EQ(ParallelDispatchCount() - before, 0u) << "forward";
    Tensor gyb = RandomTensor(yb.shape(), 337);
    size_t dim = c.layer->NumParams();
    std::vector<float> sink(kN * std::max<size_t>(1, dim), 0.0f);
    before = ParallelDispatchCount();
    c.layer->BackwardBatch(gyb, {sink.data(), dim, 0});
    EXPECT_EQ(ParallelDispatchCount() - before, 0u) << "backward";
  }

  struct ModelCase {
    const char* name;
    std::unique_ptr<Sequential> model;
    std::vector<size_t> ex_shape;
    size_t num_classes;
  };
  ModelCase models[] = {
      {"MakeCnn", MakeCnn(1, 8, 3, 4), {1, 8, 8}, 4},
      {"MakeResidualCnn", MakeResidualCnn(1, 8, 3, 4), {1, 8, 8}, 4},
      {"MakeMlp", MakeMlp(20, 8, 5), {20}, 5},
  };
  for (ModelCase& m : models) {
    SCOPED_TRACE(m.name);
    SplitRng rng(311);
    m.model->InitParams(&rng);
    Tensor batch = RandomTensor(WithBatch(kN, m.ex_shape), 313);
    std::vector<size_t> labels(kN);
    for (size_t ex = 0; ex < kN; ++ex) labels[ex] = ex % m.num_classes;
    std::vector<float> grads(kN * m.model->NumParams());
    uint64_t before = ParallelDispatchCount();
    Tensor logits = m.model->ForwardBatch(batch);
    BatchLossGrad lg = SoftmaxCrossEntropyBatch(logits, labels);
    m.model->BackwardBatchTo(lg.grad_logits, kN, grads.data());
    EXPECT_EQ(ParallelDispatchCount() - before, 0u);
  }
}

TEST(KernelEquivalenceTest, WorkspaceReusesAndGrowsBuffers) {
  Workspace ws;
  float* a = ws.Get(0, 64);
  ASSERT_NE(a, nullptr);
  // Same-or-smaller requests return the same storage.
  EXPECT_EQ(ws.Get(0, 64), a);
  EXPECT_EQ(ws.Get(0, 16), a);
  // Distinct slots never alias.
  float* b = ws.Get(1, 64);
  EXPECT_NE(b, a);
  a[0] = 7.0f;
  b[0] = 9.0f;
  EXPECT_EQ(ws.Get(0, 64)[0], 7.0f);
  EXPECT_EQ(ws.Get(1, 64)[0], 9.0f);
  // Double slots live in their own index space and are grow-only: no
  // clearing on reuse (GroupNorm's 1/std slot relies on that).
  double* d = ws.GetDouble(0, 8);
  ASSERT_NE(d, nullptr);
  d[0] = 3.5;
  EXPECT_EQ(ws.GetDouble(0, 8), d);
  EXPECT_EQ(ws.GetDouble(0, 4)[0], 3.5);
  EXPECT_EQ(ws.Get(0, 64)[0], 7.0f);  // float slot 0 untouched
}

// The whole batched model path (conv, GroupNorm, pooling, activations,
// linear) must be bit-identical under pool sizes 1, 2 and hardware
// concurrency.

struct BatchedModelRun {
  Tensor logits;
  std::vector<float> grads;
};

BatchedModelRun RunBatchedModelUnderPool(size_t pool_size) {
  ThreadPool pool(pool_size);
  ScopedPoolOverride override_pool(&pool);
  std::unique_ptr<Sequential> model = MakeCnn(1, 8, 3, 4);
  SplitRng rng(137);
  model->InitParams(&rng);
  constexpr size_t kN = 7;
  Tensor batch = RandomTensor({kN, 1, 8, 8}, 139);
  std::vector<size_t> labels(kN);
  for (size_t ex = 0; ex < kN; ++ex) labels[ex] = ex % 4;
  BatchedModelRun r;
  r.logits = model->ForwardBatch(batch);
  BatchLossGrad lg = SoftmaxCrossEntropyBatch(r.logits, labels);
  r.grads.resize(kN * model->NumParams());
  model->BackwardBatchTo(lg.grad_logits, kN, r.grads.data());
  return r;
}

// The SIMD dispatch contract, end to end: the whole batched model path
// (GEMM microkernel, activations, GroupNorm, pooling) must be
// bit-identical between the scalar reference tier and every vector tier
// the host can run — under pool sizes 1, 2 and hardware concurrency.
TEST(KernelEquivalenceTest, BatchedModelPathBitwiseAcrossSimdTiers) {
  size_t hw = std::max<size_t>(2, std::thread::hardware_concurrency());
  for (size_t threads : {size_t{1}, size_t{2}, hw}) {
    BatchedModelRun want;
    {
      simd::ScopedForceIsa force(simd::IsaLevel::kScalar);
      want = RunBatchedModelUnderPool(threads);
    }
    for (simd::IsaLevel level :
         {simd::IsaLevel::kSse2, simd::IsaLevel::kAvx2,
          simd::IsaLevel::kAvx512}) {
      if (simd::KernelsFor(level) == nullptr) continue;
      simd::ScopedForceIsa force(level);
      BatchedModelRun got = RunBatchedModelUnderPool(threads);
      ASSERT_EQ(want.logits.shape(), got.logits.shape());
      for (size_t i = 0; i < want.logits.size(); ++i) {
        ASSERT_EQ(want.logits[i], got.logits[i])
            << simd::IsaName(level) << " pool " << threads << " logit " << i;
      }
      ASSERT_EQ(want.grads, got.grads)
          << simd::IsaName(level) << " pool " << threads;
    }
  }
}

bool SameBits(const float* a, const float* b, size_t n) {
  return std::memcmp(a, b, n * sizeof(float)) == 0;
}

// A ragged conv shape for the GEMM tiles: out_ch 5 and a 7×7 output
// (q = 49) leave row and column remainders on every tier's register
// tile, and C·k·k = 27 leaves tail lanes in the NT tile's 8-lane fold.
// Forward and backward (y, dx, sink rows) must be bitwise equal to the
// scalar tier at pool 1, on every tier and at pool sizes 1, 2 and hw.
TEST(KernelEquivalenceTest, RaggedConvBitwiseAcrossSimdTiersAndPools) {
  const ConvCase c = {3, 5, 3, 1, 7, 7};
  auto run = [&](size_t threads) {
    ThreadPool pool(threads);
    ScopedPoolOverride override_pool(&pool);
    Conv2d conv(c.in_ch, c.out_ch, c.k, c.pad);
    SplitRng rng(241);
    conv.InitParams(&rng);
    Tensor xb = RandomTensor({3, c.in_ch, c.h, c.w}, 251);
    return RunPass(&conv, xb, 257);
  };
  Pass ref;
  {
    simd::ScopedForceIsa force(simd::IsaLevel::kScalar);
    ref = run(1);
  }
  ASSERT_EQ(ref.y.size(), 3u * c.out_ch * c.h * c.w);
  size_t hw = std::max<size_t>(2, std::thread::hardware_concurrency());
  for (simd::IsaLevel level :
       {simd::IsaLevel::kScalar, simd::IsaLevel::kSse2,
        simd::IsaLevel::kAvx2, simd::IsaLevel::kAvx512}) {
    if (simd::KernelsFor(level) == nullptr) continue;
    simd::ScopedForceIsa force(level);
    for (size_t threads : {size_t{1}, size_t{2}, hw}) {
      SCOPED_TRACE(std::string(simd::IsaName(level)) + " pool " +
                   std::to_string(threads));
      Pass got = run(threads);
      ASSERT_EQ(got.y.size(), ref.y.size());
      ASSERT_EQ(got.dx.size(), ref.dx.size());
      ASSERT_EQ(got.sink.size(), ref.sink.size());
      EXPECT_TRUE(SameBits(ref.y.data(), got.y.data(), ref.y.size()));
      EXPECT_TRUE(SameBits(ref.dx.data(), got.dx.data(), ref.dx.size()));
      EXPECT_TRUE(SameBits(ref.sink.data(), got.sink.data(), ref.sink.size()));
    }
  }
}

TEST(KernelEquivalenceTest, BatchedModelPathPoolInvariant) {
  size_t hw = std::max<size_t>(2, std::thread::hardware_concurrency());
  BatchedModelRun r1 = RunBatchedModelUnderPool(1);
  for (size_t threads : {size_t{2}, hw}) {
    BatchedModelRun rn = RunBatchedModelUnderPool(threads);
    ASSERT_EQ(r1.logits.shape(), rn.logits.shape());
    for (size_t i = 0; i < r1.logits.size(); ++i) {
      ASSERT_EQ(r1.logits[i], rn.logits[i]) << "pool " << threads;
    }
    ASSERT_EQ(r1.grads, rn.grads) << "pool " << threads;
  }
}

// --- Cached-state contract: interleaved batch sizes stay bitwise
// correct...

// Simulates Server::EvaluateAccuracy between two worker training steps
// on one model instance: an N=7 forward, an N=1 evaluation forward, an
// N=7 forward+backward, then another N=1 evaluation. Each layer's grow-
// only caches are resized between the passes; every result must equal a
// never-interleaved run of the same pass.
TEST(KernelEquivalenceTest, InterleavedBatchSizesStayBitwise) {
  auto make_model = [] {
    std::unique_ptr<Sequential> model = MakeCnn(1, 8, 3, 4);
    SplitRng rng(149);
    model->InitParams(&rng);
    return model;
  };
  constexpr size_t kN = 7;
  Tensor batch = RandomTensor({kN, 1, 8, 8}, 151);
  std::vector<size_t> labels(kN);
  for (size_t ex = 0; ex < kN; ++ex) labels[ex] = ex % 4;
  Tensor eval = RandomTensor({1, 1, 8, 8}, 153);

  auto train_pass = [&](Sequential* model) {
    BatchedModelRun r;
    r.logits = model->ForwardBatch(batch);
    BatchLossGrad lg = SoftmaxCrossEntropyBatch(r.logits, labels);
    r.grads.resize(kN * model->NumParams());
    model->BackwardBatchTo(lg.grad_logits, kN, r.grads.data());
    return r;
  };
  auto expect_equal = [](const Tensor& got, const Tensor& want,
                         const char* what) {
    ASSERT_EQ(got.shape(), want.shape()) << what;
    for (size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(got[i], want[i]) << what << " " << i;
    }
  };

  // Reference runs, one fresh model per pass (no interleaving anywhere).
  BatchedModelRun want_train = train_pass(make_model().get());
  Tensor want_eval = make_model()->ForwardBatch(eval);

  std::unique_ptr<Sequential> model = make_model();
  expect_equal(model->ForwardBatch(batch), want_train.logits, "fwd7");
  expect_equal(model->ForwardBatch(eval), want_eval, "eval1");
  BatchedModelRun got_train = train_pass(model.get());
  expect_equal(got_train.logits, want_train.logits, "train7 logits");
  ASSERT_EQ(got_train.grads, want_train.grads);
  expect_equal(model->ForwardBatch(eval), want_eval, "eval1 after train");
}

// ... and a backward with no forward before it dies loudly instead of
// reading uninitialized caches.
TEST(KernelEquivalenceDeathTest, BackwardWithoutForwardDies) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  GroupNorm gn(2, 4);
  Tensor gy = RandomTensor({1, 4, 5, 5}, 191);
  std::vector<float> sink(gn.NumParams(), 0.0f);
  EXPECT_DEATH(gn.BackwardBatch(gy, {sink.data(), gn.NumParams(), 0}),
               "no forward has run");
}

}  // namespace
}  // namespace nn
}  // namespace dpbr
