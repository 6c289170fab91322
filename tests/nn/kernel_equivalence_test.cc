// Contract tests for the GEMM-backed compute layer:
//  * the im2col+GEMM Conv2d agrees with the direct loop nest of
//    conv2d_reference.h to 1e-4 relative tolerance (forward, input
//    grads, parameter grads), and Linear with a double-accumulated
//    triple loop to 1e-5,
//  * GEMM results are bit-identical under thread pools of size 1, 2 and
//    hardware concurrency, and on every SIMD tier (the determinism
//    contract),
//  * layers compute on the calling thread: no layer's pass, and no
//    whole model's forward + loss + backward, issues a dispatch, and
//  * the one-example contract holds: a forward of two examples, and a
//    backward with no forward before it, die loudly.

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

// One example of shape `ex_shape` (leading dimension 1).
Tensor RandomExample(const std::vector<size_t>& ex_shape, uint64_t seed) {
  std::vector<size_t> shape = {1};
  shape.insert(shape.end(), ex_shape.begin(), ex_shape.end());
  return RandomTensor(std::move(shape), seed);
}

// One ForwardBatch + BackwardBatch through `layer`: the output, the input
// gradient and the gradient row (NumParams floats, pre-zeroed). `gy` is
// drawn from `gy_seed` at the output's shape.
struct Pass {
  Tensor y;
  Tensor gy;
  Tensor dx;
  std::vector<float> row;
};

Pass RunPass(Layer* layer, const Tensor& x, uint64_t gy_seed) {
  Pass r;
  r.y = layer->ForwardBatch(x);
  r.gy = RandomTensor(r.y.shape(), gy_seed);
  r.row.assign(layer->NumParams(), 0.0f);
  r.dx = layer->BackwardBatch(r.gy, {r.row.data(), 0});
  return r;
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

TEST(KernelEquivalenceTest, ConvForwardMatchesNaive) {
  for (const ConvCase& c : kCases) {
    std::unique_ptr<Conv2d> conv = MakeConv(c, 61);
    // Several examples through one layer: each forward refills the
    // layer's cache.
    for (uint64_t seed : {67, 68, 69}) {
      Tensor x = RandomExample({c.in_ch, c.h, c.w}, seed);
      ExpectNear(conv->ForwardBatch(x),
                 ReferenceConv2dForward(conv->Params(), Geometry(c), x),
                 1e-4);
    }
  }
}

TEST(KernelEquivalenceTest, ConvBackwardMatchesNaive) {
  for (const ConvCase& c : kCases) {
    std::unique_ptr<Conv2d> conv = MakeConv(c, 13);
    Tensor x = RandomExample({c.in_ch, c.h, c.w}, 23);
    Pass g = RunPass(conv.get(), x, 31);
    std::vector<float> row(conv->NumParams(), 0.0f);
    Tensor dx =
        ReferenceConv2dBackward(conv->Params(), Geometry(c), x, g.gy,
                                row.data());
    ExpectNear(g.dx, dx, 1e-4);
    ExpectNear(g.row, row, 1e-4);
  }
}

// Conv forward + backward (y, dx and gradient row) must be bit-identical
// under pool sizes 1, 2 and hardware concurrency.
TEST(KernelEquivalenceTest, ConvPoolInvariant) {
  size_t hw = std::max<size_t>(2, std::thread::hardware_concurrency());
  for (const ConvCase& c : kCases) {
    std::vector<Pass> runs;
    for (size_t threads : {size_t{1}, size_t{2}, hw}) {
      ThreadPool pool(threads);
      ScopedPoolOverride override_pool(&pool);
      std::unique_ptr<Conv2d> conv = MakeConv(c, 229);
      Tensor x = RandomExample({c.in_ch, c.h, c.w}, 233);
      runs.push_back(RunPass(conv.get(), x, 239));
    }
    for (size_t i = 1; i < runs.size(); ++i) {
      for (size_t j = 0; j < runs[0].y.size(); ++j) {
        ASSERT_EQ(runs[0].y[j], runs[i].y[j]) << "pool run " << i;
      }
      for (size_t j = 0; j < runs[0].dx.size(); ++j) {
        ASSERT_EQ(runs[0].dx[j], runs[i].dx[j]) << "pool run " << i;
      }
      ASSERT_EQ(runs[0].row, runs[i].row) << "pool run " << i;
    }
  }
}

// Linear has a single implementation, so it is checked against a
// double-accumulated triple loop: y = W x + b, dW = dy ⊗ x, db = dy,
// dx = Wᵀ dy.
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
  for (uint64_t ex = 0; ex < 3; ++ex) {
    SCOPED_TRACE("example " + std::to_string(ex));
    Tensor xt = RandomExample({kIn}, 409 + ex);
    Pass got = RunPass(&linear, xt, 419 + ex);
    const float* x = xt.data();
    const float* gy = got.gy.data();
    Tensor y_ref({1, kOut});
    Tensor dx_ref({1, kIn});
    std::vector<float> row_ref(linear.NumParams());
    for (size_t r = 0; r < kOut; ++r) {
      double s = b[r];
      for (size_t c = 0; c < kIn; ++c) {
        s += static_cast<double>(w[r * kIn + c]) * x[c];
        row_ref[r * kIn + c] =
            static_cast<float>(static_cast<double>(gy[r]) * x[c]);
      }
      y_ref[r] = static_cast<float>(s);
      row_ref[kOut * kIn + r] = gy[r];
    }
    for (size_t c = 0; c < kIn; ++c) {
      double s = 0.0;
      for (size_t r = 0; r < kOut; ++r) {
        s += static_cast<double>(w[r * kIn + c]) * gy[r];
      }
      dx_ref[c] = static_cast<float>(s);
    }
    ExpectNear(got.y, y_ref, 1e-5);
    ExpectNear(got.dx, dx_ref, 1e-5);
    ExpectNear(got.row, row_ref, 1e-5);
  }
}

// Every layer, once as an example shape and a factory.
struct LayerCase {
  const char* name;
  LayerPtr layer;
  std::vector<size_t> ex_shape;
};

std::vector<LayerCase> EveryLayer() {
  const std::vector<size_t> image = {8, 24, 24};
  std::vector<LayerCase> cases;
  cases.push_back({"Conv2d", std::make_unique<Conv2d>(8, 8, 3, 1), image});
  cases.push_back({"Linear", std::make_unique<Linear>(48, 10), {48}});
  cases.push_back({"Elu", std::make_unique<Elu>(), image});
  cases.push_back({"GroupNorm", std::make_unique<GroupNorm>(4, 8), image});
  cases.push_back({"AdaptiveAvgPool2d",
                   std::make_unique<AdaptiveAvgPool2d>(4, 4), image});
  cases.push_back({"Flatten", std::make_unique<Flatten>(), image});
  return cases;
}

// A model-zoo family and the example shape it takes.
struct ModelCase {
  const char* name;
  std::unique_ptr<Sequential> model;
  std::vector<size_t> ex_shape;
  size_t num_classes;
};

std::vector<ModelCase> EveryModel() {
  std::vector<ModelCase> models;
  models.push_back({"MakeCnn", MakeCnn(1, 8, 3, 4), {1, 8, 8}, 4});
  models.push_back(
      {"MakeResidualCnn", MakeResidualCnn(1, 8, 3, 4), {1, 8, 8}, 4});
  models.push_back({"MakeMlp", MakeMlp(20, 8, 5), {20}, 5});
  return models;
}

// --- Dispatch contract: layers compute on the calling thread. With a
// multi-thread pool, every layer's forward and backward, and every
// model-zoo family's whole forward + loss + backward, issue zero
// dispatches. A federated round's one dispatch is the only parallelism.
TEST(KernelEquivalenceTest, PassesDispatchNothing) {
  ThreadPool pool(4);
  ScopedPoolOverride override_pool(&pool);
  for (LayerCase& c : EveryLayer()) {
    SCOPED_TRACE(c.name);
    SplitRng rng(317);
    c.layer->InitParams(&rng);
    Tensor x = RandomExample(c.ex_shape, 331);
    uint64_t before = ParallelDispatchCount();
    Tensor y = c.layer->ForwardBatch(x);
    EXPECT_EQ(ParallelDispatchCount() - before, 0u) << "forward";
    Tensor gy = RandomTensor(y.shape(), 337);
    std::vector<float> row(std::max<size_t>(1, c.layer->NumParams()), 0.0f);
    before = ParallelDispatchCount();
    c.layer->BackwardBatch(gy, {row.data(), 0});
    EXPECT_EQ(ParallelDispatchCount() - before, 0u) << "backward";
  }
  for (ModelCase& m : EveryModel()) {
    SCOPED_TRACE(m.name);
    SplitRng rng(311);
    m.model->InitParams(&rng);
    Tensor x = RandomExample(m.ex_shape, 313);
    std::vector<float> row(m.model->NumParams());
    uint64_t before = ParallelDispatchCount();
    LossGrad lg = SoftmaxCrossEntropy(m.model->ForwardBatch(x), 1);
    m.model->BackwardTo(lg.grad_logits, row.data());
    EXPECT_EQ(ParallelDispatchCount() - before, 0u);
  }
}

// The whole model path (conv, GroupNorm, pooling, activations, linear)
// over kN examples, one pass each through the same model: the logits
// and the gradient rows, concatenated.
struct ModelRun {
  std::vector<float> logits;
  std::vector<float> grads;
};

ModelRun RunModelUnderPool(size_t pool_size) {
  ThreadPool pool(pool_size);
  ScopedPoolOverride override_pool(&pool);
  std::unique_ptr<Sequential> model = MakeCnn(1, 8, 3, 4);
  SplitRng rng(137);
  model->InitParams(&rng);
  constexpr size_t kN = 7;
  size_t dim = model->NumParams();
  ModelRun r;
  r.grads.resize(kN * dim);
  for (size_t ex = 0; ex < kN; ++ex) {
    Tensor logits = model->ForwardBatch(RandomExample({1, 8, 8}, 139 + ex));
    r.logits.insert(r.logits.end(), logits.data(),
                    logits.data() + logits.size());
    LossGrad lg = SoftmaxCrossEntropy(logits, ex % 4);
    model->BackwardTo(lg.grad_logits, r.grads.data() + ex * dim);
  }
  return r;
}

// The SIMD dispatch contract, end to end: the whole model path (GEMM
// microkernel, activations, GroupNorm, pooling) must be bit-identical
// between the scalar reference tier and every vector tier the host can
// run — under pool sizes 1, 2 and hardware concurrency.
TEST(KernelEquivalenceTest, ModelPathBitwiseAcrossSimdTiers) {
  size_t hw = std::max<size_t>(2, std::thread::hardware_concurrency());
  for (size_t threads : {size_t{1}, size_t{2}, hw}) {
    ModelRun want;
    {
      simd::ScopedForceIsa force(simd::IsaLevel::kScalar);
      want = RunModelUnderPool(threads);
    }
    for (simd::IsaLevel level :
         {simd::IsaLevel::kSse2, simd::IsaLevel::kAvx2,
          simd::IsaLevel::kAvx512}) {
      if (simd::KernelsFor(level) == nullptr) continue;
      simd::ScopedForceIsa force(level);
      ModelRun got = RunModelUnderPool(threads);
      ASSERT_EQ(want.logits, got.logits)
          << simd::IsaName(level) << " pool " << threads;
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
// Forward and backward (y, dx, gradient row) must be bitwise equal to
// the scalar tier at pool 1, on every tier and at pool sizes 1, 2 and hw.
TEST(KernelEquivalenceTest, RaggedConvBitwiseAcrossSimdTiersAndPools) {
  const ConvCase c = {3, 5, 3, 1, 7, 7};
  auto run = [&](size_t threads) {
    ThreadPool pool(threads);
    ScopedPoolOverride override_pool(&pool);
    Conv2d conv(c.in_ch, c.out_ch, c.k, c.pad);
    SplitRng rng(241);
    conv.InitParams(&rng);
    Tensor x = RandomExample({c.in_ch, c.h, c.w}, 251);
    return RunPass(&conv, x, 257);
  };
  Pass ref;
  {
    simd::ScopedForceIsa force(simd::IsaLevel::kScalar);
    ref = run(1);
  }
  ASSERT_EQ(ref.y.size(), c.out_ch * c.h * c.w);
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
      ASSERT_EQ(got.row.size(), ref.row.size());
      EXPECT_TRUE(SameBits(ref.y.data(), got.y.data(), ref.y.size()));
      EXPECT_TRUE(SameBits(ref.dx.data(), got.dx.data(), ref.dx.size()));
      EXPECT_TRUE(SameBits(ref.row.data(), got.row.data(), ref.row.size()));
    }
  }
}

TEST(KernelEquivalenceTest, ModelPathPoolInvariant) {
  size_t hw = std::max<size_t>(2, std::thread::hardware_concurrency());
  ModelRun r1 = RunModelUnderPool(1);
  for (size_t threads : {size_t{2}, hw}) {
    ModelRun rn = RunModelUnderPool(threads);
    ASSERT_EQ(r1.logits, rn.logits) << "pool " << threads;
    ASSERT_EQ(r1.grads, rn.grads) << "pool " << threads;
  }
}

// --- The one-example contract: every layer, and every model-zoo family,
// rejects a leading dimension of 2 ...
TEST(KernelEquivalenceDeathTest, ForwardOfTwoExamplesDies) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  for (LayerCase& c : EveryLayer()) {
    SCOPED_TRACE(c.name);
    std::vector<size_t> shape = {2};
    shape.insert(shape.end(), c.ex_shape.begin(), c.ex_shape.end());
    Tensor x(shape);
    EXPECT_DEATH(c.layer->ForwardBatch(x), "x.dim\\(0\\) == 1u \\(2 vs 1\\)");
  }
  for (ModelCase& m : EveryModel()) {
    SCOPED_TRACE(m.name);
    std::vector<size_t> shape = {2};
    shape.insert(shape.end(), m.ex_shape.begin(), m.ex_shape.end());
    Tensor x(shape);
    EXPECT_DEATH(m.model->ForwardBatch(x), "x.dim\\(0\\) == 1u \\(2 vs 1\\)");
  }
}

// ... and a backward with no forward before it dies loudly instead of
// reading uninitialized caches.
TEST(KernelEquivalenceDeathTest, BackwardWithoutForwardDies) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  GroupNorm gn(2, 4);
  Tensor gy = RandomTensor({1, 4, 5, 5}, 191);
  EXPECT_DEATH(gn.BackwardBatch(gy, {}), "no forward has run");
}

}  // namespace
}  // namespace nn
}  // namespace dpbr
