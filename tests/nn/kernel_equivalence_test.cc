// Contract tests for the GEMM-backed compute layer:
//  * the im2col+GEMM Conv2d agrees with the naive reference kernel to
//    1e-4 relative tolerance (forward, input grads, parameter grads),
//  * GEMM results are bit-identical under thread pools of size 1, 2 and
//    hardware concurrency (the determinism contract from PR 1),
//  * the batched microbatch path reproduces the per-example path
//    bit-for-bit, including the per-example parameter gradients the DP
//    protocol clips,
//  * only the GEMM layers dispatch: a local step costs exactly one
//    dispatch per Conv2d / Linear per direction, and the cheap layers'
//    batched passes issue none, and
//  * the cached-state contract is *checked*: a backward whose path does
//    not match the last forward (per-example vs batched) dies loudly
//    instead of consuming stale caches, while legal interleavings
//    (evaluation between training steps) stay bitwise correct.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/simd.h"
#include "common/thread_pool.h"
#include "nn/activations.h"
#include "nn/conv2d.h"
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

// Builds a pair of identically-initialized Conv2d layers, one per kernel.
struct ConvPair {
  std::unique_ptr<Conv2d> gemm;
  std::unique_ptr<Conv2d> naive;
};

ConvPair MakePair(size_t in_ch, size_t out_ch, size_t k, size_t pad,
                  uint64_t seed) {
  ConvPair p;
  p.gemm = std::make_unique<Conv2d>(in_ch, out_ch, k, pad,
                                    Conv2dKernel::kGemm);
  p.naive = std::make_unique<Conv2d>(in_ch, out_ch, k, pad,
                                     Conv2dKernel::kNaive);
  SplitRng rng_a(seed), rng_b(seed);
  p.gemm->InitParams(&rng_a);
  p.naive->InitParams(&rng_b);
  return p;
}

struct ConvCase {
  size_t in_ch, out_ch, k, pad, h, w;
};

// CIFAR-like (the acceptance shape), deeper same-padded, and edge cases
// where the padded kernel overhangs most of the input.
const ConvCase kCases[] = {
    {3, 32, 3, 1, 32, 32},
    {16, 16, 3, 1, 8, 8},
    {1, 4, 5, 2, 7, 9},
    {2, 3, 3, 0, 6, 6},
    {4, 8, 1, 0, 5, 5},
    {1, 2, 7, 3, 3, 3},  // kernel overhangs the whole padded input
};

TEST(KernelEquivalenceTest, ConvForwardMatchesNaive) {
  for (const ConvCase& c : kCases) {
    ConvPair p = MakePair(c.in_ch, c.out_ch, c.k, c.pad, 11);
    Tensor x = RandomTensor({c.in_ch, c.h, c.w}, 21);
    ExpectNear(p.gemm->Forward(x), p.naive->Forward(x), 1e-4);
  }
}

TEST(KernelEquivalenceTest, ConvBackwardMatchesNaive) {
  for (const ConvCase& c : kCases) {
    ConvPair p = MakePair(c.in_ch, c.out_ch, c.k, c.pad, 13);
    Tensor x = RandomTensor({c.in_ch, c.h, c.w}, 23);
    Tensor yg = p.gemm->Forward(x);
    Tensor yn = p.naive->Forward(x);
    Tensor gy = RandomTensor(yg.shape(), 31);
    p.gemm->ZeroGrad();
    p.naive->ZeroGrad();
    Tensor dxg = p.gemm->Backward(gy);
    Tensor dxn = p.naive->Backward(gy);
    ExpectNear(dxg, dxn, 1e-4);
    std::vector<ParamView> pg = p.gemm->Params();
    std::vector<ParamView> pn = p.naive->Params();
    ASSERT_EQ(pg.size(), pn.size());
    for (size_t i = 0; i < pg.size(); ++i) {
      ASSERT_EQ(pg[i].size, pn[i].size);
      ExpectNear(std::vector<float>(pg[i].grad, pg[i].grad + pg[i].size),
                 std::vector<float>(pn[i].grad, pn[i].grad + pn[i].size),
                 1e-4);
    }
  }
}

// Runs forward+backward through a GEMM conv under an explicit pool size
// and returns (y, dx, flat parameter grads).
struct ConvRun {
  Tensor y;
  Tensor dx;
  std::vector<float> grads;
};

ConvRun RunUnderPool(size_t pool_size, const ConvCase& c) {
  ThreadPool pool(pool_size);
  ScopedPoolOverride override_pool(&pool);
  ConvPair p = MakePair(c.in_ch, c.out_ch, c.k, c.pad, 17);
  Tensor x = RandomTensor({c.in_ch, c.h, c.w}, 19);
  ConvRun r;
  r.y = p.gemm->Forward(x);
  Tensor gy = RandomTensor(r.y.shape(), 29);
  p.gemm->ZeroGrad();
  r.dx = p.gemm->Backward(gy);
  for (const ParamView& v : p.gemm->Params()) {
    r.grads.insert(r.grads.end(), v.grad, v.grad + v.size);
  }
  return r;
}

TEST(KernelEquivalenceTest, GemmBitIdenticalAcrossPoolSizes) {
  size_t hw = std::max<size_t>(2, std::thread::hardware_concurrency());
  for (const ConvCase& c : kCases) {
    ConvRun r1 = RunUnderPool(1, c);
    for (size_t threads : {size_t{2}, hw}) {
      ConvRun rn = RunUnderPool(threads, c);
      ASSERT_EQ(r1.y.shape(), rn.y.shape());
      for (size_t i = 0; i < r1.y.size(); ++i) {
        ASSERT_EQ(r1.y[i], rn.y[i]) << "pool " << threads << " y[" << i << "]";
      }
      for (size_t i = 0; i < r1.dx.size(); ++i) {
        ASSERT_EQ(r1.dx[i], rn.dx[i])
            << "pool " << threads << " dx[" << i << "]";
      }
      ASSERT_EQ(r1.grads, rn.grads) << "pool " << threads;
    }
  }
}

// One loss backward pass through a model, per-example path: returns the
// logits and each example's flat gradient.
struct PerExampleRun {
  std::vector<Tensor> logits;
  std::vector<std::vector<float>> grads;
};

PerExampleRun RunPerExample(Sequential* model, const Tensor& batch,
                            const std::vector<size_t>& labels,
                            const std::vector<size_t>& example_shape) {
  size_t n = batch.dim(0);
  size_t feat = batch.size() / n;
  PerExampleRun r;
  for (size_t ex = 0; ex < n; ++ex) {
    Tensor x(example_shape,
             std::vector<float>(batch.data() + ex * feat,
                                batch.data() + (ex + 1) * feat));
    model->ZeroGrad();
    Tensor logits = model->Forward(x);
    LossGrad lg = SoftmaxCrossEntropy(logits, labels[ex]);
    model->Backward(lg.grad_logits);
    r.logits.push_back(std::move(logits));
    r.grads.push_back(model->FlatGrads());
  }
  return r;
}

void CheckBatchedMatchesPerExample(std::unique_ptr<Sequential> model,
                                   std::vector<size_t> example_shape,
                                   size_t num_classes, uint64_t seed) {
  SplitRng rng(seed);
  model->InitParams(&rng);
  // N=1 exercises the degenerate microbatch, 3 and 7 leave ragged
  // parallel blocks in the batched dispatches.
  for (size_t batch_n : {size_t{1}, size_t{3}, size_t{7}}) {
    std::vector<size_t> batch_shape;
    batch_shape.push_back(batch_n);
    for (size_t d : example_shape) batch_shape.push_back(d);
    Tensor batch = RandomTensor(batch_shape, seed + 1 + batch_n);
    std::vector<size_t> labels(batch_n);
    for (size_t ex = 0; ex < batch_n; ++ex) labels[ex] = ex % num_classes;

    Tensor logits = model->ForwardBatch(batch);
    ASSERT_EQ(logits.dim(0), batch_n);
    BatchLossGrad lg = SoftmaxCrossEntropyBatch(logits, labels);
    size_t dim = model->NumParams();
    std::vector<float> grads(batch_n * dim);
    model->BackwardBatchTo(lg.grad_logits, batch_n, grads.data());

    PerExampleRun ref =
        RunPerExample(model.get(), batch, labels, example_shape);
    size_t classes = logits.dim(1);
    for (size_t ex = 0; ex < batch_n; ++ex) {
      for (size_t c = 0; c < classes; ++c) {
        ASSERT_EQ(logits[ex * classes + c], ref.logits[ex][c])
            << "batch " << batch_n << " example " << ex << " class " << c;
      }
      for (size_t i = 0; i < dim; ++i) {
        ASSERT_EQ(grads[ex * dim + i], ref.grads[ex][i])
            << "batch " << batch_n << " example " << ex << " param " << i;
      }
    }
  }
}

// --- Batched conv forward: ForwardBatch runs the microbatch as one
// batched-GEMM dispatch over streamed per-example im2col panels. Per
// output element the accumulation order is unchanged, so the batched
// path must be bitwise equal to looping the single-example forward — at
// odd batch sizes too — and to the naive batch kernel within 1e-4.

TEST(KernelEquivalenceTest, ConvForwardBatchMatchesPerExampleBitwise) {
  for (size_t batch : {size_t{1}, size_t{3}, size_t{7}}) {
    for (const ConvCase& c : kCases) {
      ConvPair p = MakePair(c.in_ch, c.out_ch, c.k, c.pad, 53);
      Tensor xb = RandomTensor({batch, c.in_ch, c.h, c.w}, 59 + batch);
      Tensor yb = p.gemm->ForwardBatch(xb);
      size_t feat = c.in_ch * c.h * c.w;
      size_t out_stride = yb.size() / batch;
      for (size_t ex = 0; ex < batch; ++ex) {
        Tensor x({c.in_ch, c.h, c.w},
                 std::vector<float>(xb.data() + ex * feat,
                                    xb.data() + (ex + 1) * feat));
        Tensor y = p.gemm->Forward(x);
        ASSERT_EQ(y.size(), out_stride);
        for (size_t i = 0; i < y.size(); ++i) {
          ASSERT_EQ(yb[ex * out_stride + i], y[i])
              << "batch " << batch << " example " << ex << " index " << i;
        }
      }
    }
  }
}

TEST(KernelEquivalenceTest, ConvForwardBatchMatchesNaiveBatch) {
  for (size_t batch : {size_t{1}, size_t{3}, size_t{7}}) {
    for (const ConvCase& c : kCases) {
      ConvPair p = MakePair(c.in_ch, c.out_ch, c.k, c.pad, 61);
      Tensor xb = RandomTensor({batch, c.in_ch, c.h, c.w}, 67 + batch);
      ExpectNear(p.gemm->ForwardBatch(xb), p.naive->ForwardBatch(xb), 1e-4);
    }
  }
}

TEST(KernelEquivalenceTest, ConvForwardBatchPoolInvariant) {
  size_t hw = std::max<size_t>(2, std::thread::hardware_concurrency());
  for (const ConvCase& c : kCases) {
    std::vector<Tensor> outs;
    for (size_t threads : {size_t{1}, size_t{2}, hw}) {
      ThreadPool pool(threads);
      ScopedPoolOverride override_pool(&pool);
      ConvPair p = MakePair(c.in_ch, c.out_ch, c.k, c.pad, 71);
      Tensor xb = RandomTensor({7, c.in_ch, c.h, c.w}, 73);
      outs.push_back(p.gemm->ForwardBatch(xb));
    }
    for (size_t i = 1; i < outs.size(); ++i) {
      ASSERT_EQ(outs[0].shape(), outs[i].shape());
      for (size_t j = 0; j < outs[0].size(); ++j) {
        ASSERT_EQ(outs[0][j], outs[i][j]) << "pool run " << i;
      }
    }
  }
}

// --- Batched backward: BackwardBatch runs the whole microbatch — dW/db
// rows into the PerExampleGradSink, dX through col2im — as one batched
// dispatch (GemmBatchedNT + embedded GemmBatchedTN). Per-element
// accumulation order is unchanged, so it must be bitwise equal to the
// per-example Forward/Backward reference at N = 1, 3, 7, with every
// example's sink row exactly the gradient the per-example path
// accumulates.

TEST(KernelEquivalenceTest, ConvBackwardBatchMatchesPerExampleBitwise) {
  for (size_t batch : {size_t{1}, size_t{3}, size_t{7}}) {
    for (const ConvCase& c : kCases) {
      ConvPair p = MakePair(c.in_ch, c.out_ch, c.k, c.pad, 193);
      Tensor xb = RandomTensor({batch, c.in_ch, c.h, c.w}, 197 + batch);
      Tensor yb = p.gemm->ForwardBatch(xb);
      Tensor gyb = RandomTensor(yb.shape(), 199 + batch);
      size_t dim = p.gemm->NumParams();
      std::vector<float> sink(batch * dim, 0.0f);
      Tensor dxb = p.gemm->BackwardBatch(gyb, {sink.data(), dim, 0});
      size_t in_stride = c.in_ch * c.h * c.w;
      size_t out_stride = yb.size() / batch;
      for (size_t ex = 0; ex < batch; ++ex) {
        Tensor x({c.in_ch, c.h, c.w},
                 std::vector<float>(xb.data() + ex * in_stride,
                                    xb.data() + (ex + 1) * in_stride));
        Tensor gy({c.out_ch, yb.dim(2), yb.dim(3)},
                  std::vector<float>(gyb.data() + ex * out_stride,
                                     gyb.data() + (ex + 1) * out_stride));
        p.gemm->ZeroGrad();
        p.gemm->Forward(x);
        Tensor dx = p.gemm->Backward(gy);
        std::vector<float> ex_grads;
        for (const ParamView& v : p.gemm->Params()) {
          ex_grads.insert(ex_grads.end(), v.grad, v.grad + v.size);
        }
        ASSERT_EQ(ex_grads.size(), dim);
        for (size_t i = 0; i < in_stride; ++i) {
          ASSERT_EQ(dxb[ex * in_stride + i], dx[i])
              << "batch " << batch << " ex " << ex << " dx[" << i << "]";
        }
        for (size_t i = 0; i < dim; ++i) {
          ASSERT_EQ(sink[ex * dim + i], ex_grads[i])
              << "batch " << batch << " ex " << ex << " param " << i;
        }
      }
    }
  }
}

TEST(KernelEquivalenceTest, LinearBackwardBatchMatchesPerExampleBitwise) {
  constexpr size_t kIn = 13, kOut = 5;
  for (size_t batch : {size_t{1}, size_t{3}, size_t{7}}) {
    Linear linear(kIn, kOut);
    SplitRng rng(211);
    linear.InitParams(&rng);
    Tensor xb = RandomTensor({batch, kIn}, 223 + batch);
    Tensor gyb = RandomTensor({batch, kOut}, 227 + batch);
    linear.ForwardBatch(xb);
    size_t dim = linear.NumParams();
    std::vector<float> sink(batch * dim, 0.0f);
    Tensor dxb = linear.BackwardBatch(gyb, {sink.data(), dim, 0});
    for (size_t ex = 0; ex < batch; ++ex) {
      Tensor x({kIn}, std::vector<float>(xb.data() + ex * kIn,
                                         xb.data() + (ex + 1) * kIn));
      Tensor gy({kOut}, std::vector<float>(gyb.data() + ex * kOut,
                                           gyb.data() + (ex + 1) * kOut));
      linear.ZeroGrad();
      linear.Forward(x);
      Tensor dx = linear.Backward(gy);
      std::vector<float> ex_grads;
      for (const ParamView& v : linear.Params()) {
        ex_grads.insert(ex_grads.end(), v.grad, v.grad + v.size);
      }
      for (size_t i = 0; i < kIn; ++i) {
        ASSERT_EQ(dxb[ex * kIn + i], dx[i])
            << "batch " << batch << " ex " << ex << " dx[" << i << "]";
      }
      for (size_t i = 0; i < dim; ++i) {
        ASSERT_EQ(sink[ex * dim + i], ex_grads[i])
            << "batch " << batch << " ex " << ex << " param " << i;
      }
    }
  }
}

TEST(KernelEquivalenceTest, ConvBackwardBatchPoolInvariant) {
  size_t hw = std::max<size_t>(2, std::thread::hardware_concurrency());
  for (const ConvCase& c : kCases) {
    std::vector<std::vector<float>> outs;  // dx ++ sink per pool size
    for (size_t threads : {size_t{1}, size_t{2}, hw}) {
      ThreadPool pool(threads);
      ScopedPoolOverride override_pool(&pool);
      ConvPair p = MakePair(c.in_ch, c.out_ch, c.k, c.pad, 229);
      Tensor xb = RandomTensor({7, c.in_ch, c.h, c.w}, 233);
      Tensor yb = p.gemm->ForwardBatch(xb);
      Tensor gyb = RandomTensor(yb.shape(), 239);
      size_t dim = p.gemm->NumParams();
      std::vector<float> sink(7 * dim, 0.0f);
      Tensor dxb = p.gemm->BackwardBatch(gyb, {sink.data(), dim, 0});
      std::vector<float> all(dxb.data(), dxb.data() + dxb.size());
      all.insert(all.end(), sink.begin(), sink.end());
      outs.push_back(std::move(all));
    }
    for (size_t i = 1; i < outs.size(); ++i) {
      ASSERT_EQ(outs[0], outs[i]) << "pool run " << i;
    }
  }
}

// The single-dispatch contract, proven rather than asserted in prose:
// with a multi-thread pool and a multi-example microbatch, each batched
// forward and backward must fan work out to the pool exactly once.
TEST(KernelEquivalenceTest, ConvAndLinearBatchedPassesAreOneDispatch) {
  ThreadPool pool(4);
  ScopedPoolOverride override_pool(&pool);
  // Larger than the GEMM row block (8) so even the row-split forward
  // GEMMs genuinely fan out instead of collapsing to the inline path.
  constexpr size_t kN = 9;

  Conv2d conv(3, 8, 3, 1);
  SplitRng rng(241);
  conv.InitParams(&rng);
  Tensor xb = RandomTensor({kN, 3, 9, 9}, 251);
  uint64_t before = ParallelDispatchCount();
  Tensor yb = conv.ForwardBatch(xb);
  EXPECT_EQ(ParallelDispatchCount() - before, 1u) << "conv forward";
  Tensor gyb = RandomTensor(yb.shape(), 257);
  size_t dim = conv.NumParams();
  std::vector<float> sink(kN * dim, 0.0f);
  before = ParallelDispatchCount();
  conv.BackwardBatch(gyb, {sink.data(), dim, 0});
  EXPECT_EQ(ParallelDispatchCount() - before, 1u) << "conv backward";

  Linear linear(48, 10);
  linear.InitParams(&rng);
  Tensor lx = RandomTensor({kN, 48}, 263);
  before = ParallelDispatchCount();
  linear.ForwardBatch(lx);
  EXPECT_EQ(ParallelDispatchCount() - before, 1u) << "linear forward";
  Tensor lgy = RandomTensor({kN, 10}, 269);
  size_t ldim = linear.NumParams();
  std::vector<float> lsink(kN * ldim, 0.0f);
  before = ParallelDispatchCount();
  linear.BackwardBatch(lgy, {lsink.data(), ldim, 0});
  EXPECT_EQ(ParallelDispatchCount() - before, 1u) << "linear backward";
}

// Every model-zoo family's batched local step (ForwardBatch + the
// per-example-gradient BackwardBatchTo) against the per-example path.

TEST(KernelEquivalenceTest, BatchedCnnMatchesPerExampleBitwise) {
  CheckBatchedMatchesPerExample(MakeCnn(1, 8, 3, 4), {1, 8, 8}, 4, 41);
}

TEST(KernelEquivalenceTest, BatchedResidualCnnMatchesPerExampleBitwise) {
  CheckBatchedMatchesPerExample(MakeResidualCnn(1, 8, 3, 4), {1, 8, 8}, 4,
                                43);
}

TEST(KernelEquivalenceTest, BatchedMlpMatchesPerExampleBitwise) {
  CheckBatchedMatchesPerExample(MakeMlp(20, 8, 5), {20}, 5, 47);
}

// --- Dispatch contract: parallelism lives in the GEMM layers only.
// Conv2d and Linear each fan a batched pass out to the pool once per
// direction; activations, GroupNorm, pooling and Flatten run serially.
// A whole local step therefore costs one dispatch per GEMM layer per
// direction, which the counters below pin.

// Defined in the cached-state section below.
std::vector<size_t> WithBatch(size_t n, const std::vector<size_t>& shape);

// Dispatch accounting for a whole local step, with a multi-thread pool
// and a multi-example microbatch so every dispatch is a real fan-out.
// kN = 9 exceeds Linear's 8-row GEMM block, so its forward genuinely
// fans out too.
struct StepDispatchCounts {
  uint64_t forward = 0;
  uint64_t backward = 0;
};

StepDispatchCounts CountStepDispatches(std::unique_ptr<Sequential> model,
                                       const std::vector<size_t>& ex_shape,
                                       size_t num_classes) {
  ThreadPool pool(4);
  ScopedPoolOverride override_pool(&pool);
  constexpr size_t kN = 9;
  SplitRng rng(311);
  model->InitParams(&rng);
  Tensor batch = RandomTensor(WithBatch(kN, ex_shape), 313);
  std::vector<size_t> labels(kN);
  for (size_t ex = 0; ex < kN; ++ex) labels[ex] = ex % num_classes;
  StepDispatchCounts c;
  uint64_t before = ParallelDispatchCount();
  Tensor logits = model->ForwardBatch(batch);
  c.forward = ParallelDispatchCount() - before;
  BatchLossGrad lg = SoftmaxCrossEntropyBatch(logits, labels);
  std::vector<float> grads(kN * model->NumParams());
  before = ParallelDispatchCount();
  model->BackwardBatchTo(lg.grad_logits, kN, grads.data());
  c.backward = ParallelDispatchCount() - before;
  return c;
}

// The CNN and the residual CNN have three convolutions and two linear
// layers (5 per direction; Residual's skip-add is serial), the MLP two
// linear layers.
TEST(KernelEquivalenceTest, LocalStepDispatchCounts) {
  StepDispatchCounts cnn =
      CountStepDispatches(MakeCnn(1, 8, 3, 4), {1, 8, 8}, 4);
  EXPECT_EQ(cnn.forward, 5u);
  EXPECT_EQ(cnn.backward, 5u);
  StepDispatchCounts res =
      CountStepDispatches(MakeResidualCnn(1, 8, 3, 4), {1, 8, 8}, 4);
  EXPECT_EQ(res.forward, 5u);
  EXPECT_EQ(res.backward, 5u);
  StepDispatchCounts mlp = CountStepDispatches(MakeMlp(20, 8, 5), {20}, 5);
  EXPECT_EQ(mlp.forward, 2u);
  EXPECT_EQ(mlp.backward, 2u);
}

// The serial half of the rule, per layer: large enough batched passes
// that any per-example or per-block split would fan out, yet zero
// dispatches at pool size hw.
TEST(KernelEquivalenceTest, CheapLayersBatchedPassesDispatchNothing) {
  size_t hw = std::max<size_t>(2, std::thread::hardware_concurrency());
  ThreadPool pool(hw);
  ScopedPoolOverride override_pool(&pool);
  constexpr size_t kN = 9;
  struct Case {
    const char* name;
    LayerPtr layer;
  };
  Case cases[] = {
      {"Elu", std::make_unique<Elu>()},
      {"Relu", std::make_unique<Relu>()},
      {"GroupNorm", std::make_unique<GroupNorm>(4, 8, 1e-5, true)},
      {"AdaptiveAvgPool2d", std::make_unique<AdaptiveAvgPool2d>(4, 4)},
      {"Flatten", std::make_unique<Flatten>()},
  };
  for (Case& c : cases) {
    SCOPED_TRACE(c.name);
    SplitRng rng(317);
    c.layer->InitParams(&rng);
    Tensor xb = RandomTensor({kN, 8, 24, 24}, 331);
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

// --- Batched GroupNorm / pooling / activation kernels: each layer runs
// its microbatch as one serial loop, and must stay bitwise equal to the
// per-example reference path at N = 1, 3, 7.

TEST(KernelEquivalenceTest, GroupNormBatchedMatchesPerExampleBitwise) {
  constexpr size_t kC = 6, kH = 5, kW = 4;
  for (size_t batch : {size_t{1}, size_t{3}, size_t{7}}) {
    // affine=true so the per-example sink rows are exercised too.
    GroupNorm gn(2, kC, 1e-5, /*affine=*/true);
    SplitRng rng(101);
    gn.InitParams(&rng);
    Tensor xb = RandomTensor({batch, kC, kH, kW}, 103 + batch);
    Tensor gyb = RandomTensor({batch, kC, kH, kW}, 107 + batch);
    Tensor yb = gn.ForwardBatch(xb);
    size_t dim = gn.NumParams();
    std::vector<float> sink(batch * dim, 0.0f);
    Tensor dxb = gn.BackwardBatch(gyb, {sink.data(), dim, 0});
    size_t stride = kC * kH * kW;
    for (size_t ex = 0; ex < batch; ++ex) {
      Tensor x({kC, kH, kW},
               std::vector<float>(xb.data() + ex * stride,
                                  xb.data() + (ex + 1) * stride));
      Tensor gy({kC, kH, kW},
                std::vector<float>(gyb.data() + ex * stride,
                                   gyb.data() + (ex + 1) * stride));
      gn.ZeroGrad();
      Tensor y = gn.Forward(x);
      Tensor dx = gn.Backward(gy);
      std::vector<float> ex_grads;
      for (const ParamView& v : gn.Params()) {
        ex_grads.insert(ex_grads.end(), v.grad, v.grad + v.size);
      }
      for (size_t i = 0; i < stride; ++i) {
        ASSERT_EQ(yb[ex * stride + i], y[i]) << "ex " << ex << " y[" << i
                                             << "]";
        ASSERT_EQ(dxb[ex * stride + i], dx[i])
            << "ex " << ex << " dx[" << i << "]";
      }
      for (size_t i = 0; i < dim; ++i) {
        ASSERT_EQ(sink[ex * dim + i], ex_grads[i])
            << "ex " << ex << " param " << i;
      }
    }
  }
}

TEST(KernelEquivalenceTest, PoolBatchedMatchesPerExampleBitwise) {
  constexpr size_t kC = 5, kH = 9, kW = 7;
  for (size_t batch : {size_t{1}, size_t{3}, size_t{7}}) {
    AdaptiveAvgPool2d pool(4, 4);
    Tensor xb = RandomTensor({batch, kC, kH, kW}, 109 + batch);
    Tensor gyb = RandomTensor({batch, kC, 4, 4}, 113 + batch);
    Tensor yb = pool.ForwardBatch(xb);
    Tensor dxb = pool.BackwardBatch(gyb, {});
    size_t in_stride = kC * kH * kW;
    size_t out_stride = kC * 4 * 4;
    for (size_t ex = 0; ex < batch; ++ex) {
      Tensor x({kC, kH, kW},
               std::vector<float>(xb.data() + ex * in_stride,
                                  xb.data() + (ex + 1) * in_stride));
      Tensor gy({kC, 4, 4},
                std::vector<float>(gyb.data() + ex * out_stride,
                                   gyb.data() + (ex + 1) * out_stride));
      Tensor y = pool.Forward(x);
      Tensor dx = pool.Backward(gy);
      for (size_t i = 0; i < out_stride; ++i) {
        ASSERT_EQ(yb[ex * out_stride + i], y[i]) << "ex " << ex;
      }
      for (size_t i = 0; i < in_stride; ++i) {
        ASSERT_EQ(dxb[ex * in_stride + i], dx[i]) << "ex " << ex;
      }
    }
  }
}

TEST(KernelEquivalenceTest, ActivationBatchedMatchesPerExampleBitwise) {
  constexpr size_t kFeat = 300;  // not a multiple of any SIMD width
  for (size_t batch : {size_t{1}, size_t{3}, size_t{7}}) {
    Elu elu;
    Relu relu;
    Tensor xb = RandomTensor({batch, kFeat}, 127 + batch);
    Tensor gyb = RandomTensor({batch, kFeat}, 131 + batch);
    Tensor ye = elu.ForwardBatch(xb);
    Tensor dxe = elu.BackwardBatch(gyb, {});
    Tensor yr = relu.ForwardBatch(xb);
    Tensor dxr = relu.BackwardBatch(gyb, {});
    for (size_t ex = 0; ex < batch; ++ex) {
      Tensor x({kFeat}, std::vector<float>(xb.data() + ex * kFeat,
                                           xb.data() + (ex + 1) * kFeat));
      Tensor gy({kFeat}, std::vector<float>(gyb.data() + ex * kFeat,
                                            gyb.data() + (ex + 1) * kFeat));
      Tensor y1 = elu.Forward(x);
      Tensor d1 = elu.Backward(gy);
      Tensor y2 = relu.Forward(x);
      Tensor d2 = relu.Backward(gy);
      for (size_t i = 0; i < kFeat; ++i) {
        ASSERT_EQ(ye[ex * kFeat + i], y1[i]) << "elu ex " << ex;
        ASSERT_EQ(dxe[ex * kFeat + i], d1[i]) << "elu ex " << ex;
        ASSERT_EQ(yr[ex * kFeat + i], y2[i]) << "relu ex " << ex;
        ASSERT_EQ(dxr[ex * kFeat + i], d2[i]) << "relu ex " << ex;
      }
    }
  }
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

// --- Cached-state contract: legal interleavings stay bitwise correct...

// Simulates Server::EvaluateAccuracy between two worker training steps
// on one model instance: batched step, per-example pass, batched step.
// Every result must equal a never-interleaved run of the same pass.
TEST(KernelEquivalenceTest, InterleavedPerExampleAndBatchedStayBitwise) {
  auto make_model = [] {
    std::unique_ptr<Sequential> model = MakeCnn(1, 8, 3, 4);
    SplitRng rng(149);
    model->InitParams(&rng);
    return model;
  };
  constexpr size_t kN = 3;
  Tensor batch = RandomTensor({kN, 1, 8, 8}, 151);
  std::vector<size_t> labels = {0, 1, 2};
  Tensor x0({1, 8, 8}, std::vector<float>(batch.data(), batch.data() + 64));

  auto batched_pass = [&](Sequential* model) {
    BatchedModelRun r;
    r.logits = model->ForwardBatch(batch);
    BatchLossGrad lg = SoftmaxCrossEntropyBatch(r.logits, labels);
    r.grads.resize(kN * model->NumParams());
    model->BackwardBatchTo(lg.grad_logits, kN, r.grads.data());
    return r;
  };
  auto per_example_pass = [&](Sequential* model) {
    model->ZeroGrad();
    Tensor logits = model->Forward(x0);
    LossGrad lg = SoftmaxCrossEntropy(logits, labels[0]);
    model->Backward(lg.grad_logits);
    std::vector<float> grads = model->FlatGrads();
    std::vector<float> out(logits.data(), logits.data() + logits.size());
    out.insert(out.end(), grads.begin(), grads.end());
    return out;
  };

  // Reference runs, one model per pass (no interleaving anywhere).
  std::unique_ptr<Sequential> ref_batched = make_model();
  BatchedModelRun want_batched = batched_pass(ref_batched.get());
  std::unique_ptr<Sequential> ref_per_ex = make_model();
  std::vector<float> want_per_ex = per_example_pass(ref_per_ex.get());

  // Interleaved: batched → per-example → batched → per-example, all on
  // one instance whose layers share cache slots between the paths.
  std::unique_ptr<Sequential> model = make_model();
  BatchedModelRun b1 = batched_pass(model.get());
  std::vector<float> p1 = per_example_pass(model.get());
  BatchedModelRun b2 = batched_pass(model.get());
  std::vector<float> p2 = per_example_pass(model.get());

  for (size_t i = 0; i < want_batched.logits.size(); ++i) {
    ASSERT_EQ(b1.logits[i], want_batched.logits[i]) << "b1 logits " << i;
    ASSERT_EQ(b2.logits[i], want_batched.logits[i]) << "b2 logits " << i;
  }
  ASSERT_EQ(b1.grads, want_batched.grads);
  ASSERT_EQ(b2.grads, want_batched.grads);
  ASSERT_EQ(p1, want_per_ex);
  ASSERT_EQ(p2, want_per_ex);
}

// ... and path-mismatched backwards die loudly instead of reading the
// other path's caches. One case per layer type the model zoo uses.

struct ContractCase {
  const char* name;
  std::function<LayerPtr()> make;
  std::vector<size_t> ex_in;   // per-example input shape
  std::vector<size_t> ex_out;  // per-example output shape
};

std::vector<ContractCase> ContractCases() {
  return {
      {"Conv2d",
       [] { return std::make_unique<Conv2d>(2, 3, 3, 1); },
       {2, 5, 5},
       {3, 5, 5}},
      {"Linear",
       [] { return std::make_unique<Linear>(12, 5); },
       {12},
       {5}},
      {"GroupNorm",
       [] { return std::make_unique<GroupNorm>(2, 4); },
       {4, 5, 5},
       {4, 5, 5}},
      {"AdaptiveAvgPool2d",
       [] { return std::make_unique<AdaptiveAvgPool2d>(2, 2); },
       {3, 6, 6},
       {3, 2, 2}},
      {"Flatten",
       [] { return std::make_unique<Flatten>(); },
       {3, 4, 4},
       {48}},
      {"Elu", [] { return std::make_unique<Elu>(); }, {2, 6, 6}, {2, 6, 6}},
      {"Relu", [] { return std::make_unique<Relu>(); }, {2, 6, 6}, {2, 6, 6}},
  };
}

std::vector<size_t> WithBatch(size_t n, const std::vector<size_t>& shape) {
  std::vector<size_t> s;
  s.push_back(n);
  for (size_t d : shape) s.push_back(d);
  return s;
}

TEST(KernelEquivalenceDeathTest, BackwardAfterForwardBatchDies) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  constexpr size_t kN = 3;
  for (const ContractCase& c : ContractCases()) {
    SCOPED_TRACE(c.name);
    LayerPtr layer = c.make();
    SplitRng rng(157);
    layer->InitParams(&rng);
    Tensor xb = RandomTensor(WithBatch(kN, c.ex_in), 163);
    layer->ForwardBatch(xb);
    // The batched caches are live; the per-example Backward must refuse
    // rather than misread the 4-D batch shape as a 3-D example shape.
    Tensor gy = RandomTensor(c.ex_out, 167);
    EXPECT_DEATH(layer->Backward(gy), "cached-state contract violated");
  }
}

TEST(KernelEquivalenceDeathTest, BackwardBatchAfterForwardDies) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  constexpr size_t kN = 3;
  for (const ContractCase& c : ContractCases()) {
    SCOPED_TRACE(c.name);
    LayerPtr layer = c.make();
    SplitRng rng(173);
    layer->InitParams(&rng);
    Tensor x = RandomTensor(c.ex_in, 179);
    layer->Forward(x);
    Tensor gyb = RandomTensor(WithBatch(kN, c.ex_out), 181);
    std::vector<float> sink(kN * std::max<size_t>(1, layer->NumParams()),
                            0.0f);
    EXPECT_DEATH(
        layer->BackwardBatch(gyb, {sink.data(), layer->NumParams(), 0}),
        "cached-state contract violated");
  }
}

TEST(KernelEquivalenceDeathTest, BackwardWithoutForwardDies) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  GroupNorm gn(2, 4);
  Tensor gy = RandomTensor({4, 5, 5}, 191);
  EXPECT_DEATH(gn.Backward(gy), "no forward has run");
}

}  // namespace
}  // namespace nn
}  // namespace dpbr
